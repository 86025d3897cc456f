"""Chi state preparation, powering, and the chi file format."""

import hashlib
import math

import numpy as np
import pytest

from chi_dlog import chi
from chi_dlog.chi import (
    ChiHandle,
    chi_power_from,
    chi_reference,
    load_chi,
    prepare_chi,
    save_chi,
)
from chi_dlog.dlog import run_dlog
from chi_dlog.errors import ArtifactMismatch, RetryLimitExceeded, UnverifiedChi
from chi_dlog.group import totient, validate_group
from chi_dlog.qstate import QState, fidelity

Z5 = validate_group(5, 2)
Z7 = validate_group(7, 3)
Z13 = validate_group(13, 2)


def test_chi_reference_frozen_amplitudes():
    # n=5, g=2, power 1: powers of g are 1, 2, 4, 3 and pick up i each step
    state = chi_reference(Z5, 1)
    assert np.allclose(state.amplitudes, [0.5, 0.5j, -0.5j, -0.5], atol=1e-12)


def test_chi_reference_power_zero_is_uniform():
    for spec in (Z5, Z7, Z13):
        m = spec.order
        assert np.allclose(chi_reference(spec, 0).amplitudes, np.full(m, 1 / np.sqrt(m)))


def test_chi_reference_power_wraps():
    assert np.array_equal(chi_reference(Z7, 7).amplitudes, chi_reference(Z7, 1).amplitudes)
    assert np.array_equal(chi_reference(Z7, -1).amplitudes, chi_reference(Z7, 5).amplitudes)


def test_chi_reference_orthonormal_family():
    states = [chi_reference(Z7, a) for a in range(6)]
    for a in range(6):
        for b in range(6):
            overlap = abs(np.vdot(states[a].amplitudes, states[b].amplitudes))
            assert abs(overlap - (1.0 if a == b else 0.0)) <= 1e-9


def test_handle_verify_flags_corruption():
    good = ChiHandle(power=2, state=chi_reference(Z7, 2))
    assert good.verify() == pytest.approx(1.0)
    assert good.verified
    amps = chi_reference(Z7, 2).amplitudes.copy()
    amps[0] *= 1.2
    bad = ChiHandle(power=2, state=QState(good.state.layout, amps / np.linalg.norm(amps)))
    assert bad.verify() < 1.0 - 1e-9
    assert not bad.verified


def test_handle_verify_refuses_a_scaled_state():
    handle, _ = prepare_chi(Z13, seed=0)
    handle.state = QState(handle.state.layout, handle.state.amplitudes * 1.01)
    assert handle.verify() == pytest.approx(1.0201)
    assert not handle.verified
    with pytest.raises(UnverifiedChi):
        run_dlog(Z13, handle, 6)


def test_prepare_exhaustive_z5():
    handle, stats = prepare_chi(Z5, mode="exhaustive")
    assert handle.power == 1
    assert handle.verified
    assert stats.attempts == 1
    assert stats.success_s == 1  # smallest s coprime to 4
    assert stats.acceptance_probability == pytest.approx(0.5, abs=1e-12)
    assert fidelity(handle.state, chi_reference(Z5, 1)) >= 1 - 1e-9


def test_prepare_exhaustive_acceptance_matches_totient_ratio():
    for n, g in ((7, 3), (13, 2), (9, 2), (11, 2), (2, 1)):
        spec = validate_group(n, g)
        m = spec.order
        _, stats = prepare_chi(spec, mode="exhaustive")
        assert stats.acceptance_probability == pytest.approx(totient(m) / m, abs=1e-9)


def test_prepare_sampled_is_deterministic():
    a_handle, a_stats = prepare_chi(Z7, seed=1)
    b_handle, b_stats = prepare_chi(Z7, seed=1)
    assert a_stats == b_stats
    assert np.array_equal(a_handle.state.amplitudes, b_handle.state.amplitudes)
    assert a_handle.verified


def test_prepare_sampled_retry_trace():
    # every rejected draw shares a factor with the order, the last one never does
    for seed in range(12):
        _, stats = prepare_chi(Z13, seed=seed)
        m = Z13.order
        assert stats.attempts == len(stats.observed_s)
        assert all(math.gcd(s, m) > 1 for s in stats.observed_s[:-1])
        assert math.gcd(stats.success_s, m) == 1
        assert stats.observed_s[-1] == stats.success_s


# (n, seed, attempts, observed_s, success_s, sha256 of the handle's amplitude
# bytes) for prepare_chi(validate_group(n, g), seed=seed), recorded when every
# attempt still re-simulated the round: drawing all attempts from one
# simulated round must give the same stream and the same handles
PINNED_PREPARATIONS = [
    (101, 0, 1, [63], 63,
     "79e76780c76d2859eff4e7585f9ff2bec90f2ae0fb58061587f8b452711c8550"),
    (101, 1, 1, [51], 51,
     "c357b0f1bf97191eb0aca62a58268703a22854b1cbf752116ec2e114a27cbad2"),
    (101, 2, 2, [26, 29], 29,
     "9ae77c45f712e72ab00392f92b9209173bd84bc394460eb8e8927f269901a9bd"),
    (101, 3, 2, [8, 23], 23,
     "b19aa85a6c5c80c634a7838fdd03a5e2121f4bb28816f28f06e1bc1115410762"),
    (101, 4, 2, [94, 51], 51,
     "c357b0f1bf97191eb0aca62a58268703a22854b1cbf752116ec2e114a27cbad2"),
    (101, 5, 3, [80, 80, 51], 51,
     "c357b0f1bf97191eb0aca62a58268703a22854b1cbf752116ec2e114a27cbad2"),
    (101, 6, 1, [53], 53,
     "2bfb61c48be869aa8e673b130b4ea4ddcc403007bab28375bf1aa72ef371236b"),
    (101, 7, 2, [62, 89], 89,
     "df9b63b2b368baf40af3925a5047411dda46bb98e19aec047b42bbfddf203f54"),
    (101, 8, 3, [32, 98, 31], 31,
     "03a52f7801a934777fcec8b94e1f50fb7602bcc1c0c8f1dca68e0dcc4729d443"),
    (101, 9, 1, [87], 87,
     "573f5cc7a003b3f41d28dea5e846e4a159607f4dfde0eb3cf6316d3f83e4ddd7"),
    (101, 10, 5, [95, 20, 82, 14, 51], 51,
     "c357b0f1bf97191eb0aca62a58268703a22854b1cbf752116ec2e114a27cbad2"),
    (101, 11, 2, [12, 49], 49,
     "2b046033449095c091e0141ccf17a6c6f46a1a8ba7f248a6934da48b8fce965e"),
    (101, 12, 4, [25, 94, 18, 17], 17,
     "1055bf0db965022593033c686a7c66a17f37b79ad17815a3de984e6ffc527e27"),
    (101, 13, 3, [86, 85, 81], 81,
     "4769b9e49116561ef26925a4caf90bac96923563b7902cfd11c1ca99443f4eaf"),
    (101, 14, 1, [83], 83,
     "1e1b693e851e2628461f1188e69b126684e07c9b9aa79b82ed3fc16ff7f3f755"),
    (101, 15, 1, [69], 69,
     "9280e9bdac64e42895562647aff131d777d1118441ba0eb3eb9eaec21270ef0c"),
    (101, 16, 2, [56, 43], 43,
     "8d1f685af026fe6e05bcaa1c55f2b28779f4272cfb4bb5747a4ef94aff7f793a"),
    (101, 17, 5, [84, 16, 55, 36, 21], 21,
     "a441c79d000c503a59d4a6801d140ce771d94d05bee66188a5ac8d292b6ae99a"),
    (101, 18, 1, [39], 39,
     "d62387b2fad88f80c9f809666b4a8a97b1db8c9011866b4937d86fbfcda85b20"),
    (101, 19, 3, [42, 92, 27], 27,
     "6cc00b53f237bf16c58eb5d0b0d3a4b34259e6170daf8e221c8f37a546dc8b59"),
    (1009, 0, 2, [642, 271], 271,
     "f0e3be0493273e5933f43550fce302c05358eae1d70902a1c8ab8281e072bc86"),
    (1009, 1, 1, [515], 515,
     "07f8b63e540725c08d070a053b8392e6bf8fb78ae6d4782b2e9da6aa90ddd99e"),
    (1009, 2, 1, [263], 263,
     "5143abb77f823c3c7ec0d22658b0eb3ef019e7f0e79eb68e1180738d66c13893"),
    (1009, 3, 15, [86, 238, 807, 586, 94, 436, 482, 161, 740,
      114, 394, 520, 434, 591, 743], 743,
     "e3b68bad1e6e2e1ce5e6cc82c852c62084a98e56d5953614807a2abd031e772b"),
    (1009, 4, 2, [950, 515], 515,
     "07f8b63e540725c08d070a053b8392e6bf8fb78ae6d4782b2e9da6aa90ddd99e"),
]
PINNED_GENERATORS = {101: 2, 1009: 11}


@pytest.mark.parametrize("n, seed, attempts, observed_s, success_s, digest",
                         PINNED_PREPARATIONS)
def test_prepare_sampled_stream_is_pinned(n, seed, attempts, observed_s, success_s,
                                          digest):
    handle, stats = prepare_chi(validate_group(n, PINNED_GENERATORS[n]), seed=seed)
    assert (stats.attempts, stats.observed_s, stats.success_s) == \
        (attempts, observed_s, success_s)
    assert hashlib.sha256(handle.state.amplitudes.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("n, g, seed", [(13, 2, 5), (1009, 11, 3)])
def test_prepare_simulates_the_round_once(monkeypatch, n, g, seed):
    # each call's entry is the register count of the states it was handed, so
    # qft_apply shows that the fresh exponent register is transformed alone
    # and power_oracle_apply that it joins the group register there
    calls = {"power_oracle_apply": [], "qft_apply": [], "marginal_distribution": []}

    def counted(name):
        inner = getattr(chi, name)

        def wrapper(*args, **kwargs):
            calls[name].append(sum(len(arg.layout.registers) for arg in args
                                   if isinstance(arg, QState)))
            return inner(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(chi, name, counted(name))
    spec = validate_group(n, g)
    for mode in ("sampled", "exhaustive"):
        for name in calls:
            calls[name] = []
        handle, stats = prepare_chi(spec, seed=seed, mode=mode)
        assert handle.verified
        assert stats.attempts >= (3 if mode == "sampled" else 1)
        assert calls == {"power_oracle_apply": [2], "qft_apply": [1, 2],
                         "marginal_distribution": [2]}


def test_prepare_sampled_retry_cap():
    retry_seed = next(
        seed for seed in range(100) if prepare_chi(Z13, seed=seed)[1].attempts > 1
    )
    with pytest.raises(RetryLimitExceeded):
        prepare_chi(Z13, seed=retry_seed, max_attempts=1)


def test_prepare_trivial_group():
    spec = validate_group(2, 1)
    for mode in ("sampled", "exhaustive"):
        handle, stats = prepare_chi(spec, seed=0, mode=mode)
        assert stats.attempts == 1
        assert stats.success_s == 0  # gcd(0, 1) == 1, so 0 is accepted
        assert np.allclose(handle.state.amplitudes, [1.0])


def test_prepare_rejects_bad_arguments():
    with pytest.raises(ValueError):
        prepare_chi(Z5, mode="bogus")
    with pytest.raises(ValueError):
        prepare_chi(Z5, max_attempts=0)


def test_chi_power_from_reaches_reference():
    source, _ = prepare_chi(Z7, mode="exhaustive")
    before = source.state.amplitudes.copy()
    for alpha in range(Z7.order):
        handle = chi_power_from(Z7, source, alpha)
        assert handle.power == alpha % Z7.order
        assert handle.verified
        assert fidelity(handle.state, chi_reference(Z7, alpha)) >= 1 - 1e-9
    assert np.array_equal(source.state.amplitudes, before)


def test_chi_power_from_start_power_offset():
    source, _ = prepare_chi(Z7, mode="exhaustive")
    handle = chi_power_from(Z7, source, 2, start_power=3)
    assert handle.power == 5


def test_chi_power_from_general_source_power():
    # source at power 2: dividing by alpha=2 adds 4 on the new register
    source = ChiHandle(power=2, state=chi_reference(Z7, 2))
    source.verify()
    handle = chi_power_from(Z7, source, 2)
    assert handle.power == 4
    assert fidelity(handle.state, chi_reference(Z7, 4)) >= 1 - 1e-9


def test_chi_power_from_requires_verified_source():
    stale = ChiHandle(power=1, state=chi_reference(Z7, 1), verified=False)
    with pytest.raises(UnverifiedChi):
        chi_power_from(Z7, stale, 2)


def test_save_load_roundtrip(tmp_path):
    handle, _ = prepare_chi(Z5, mode="exhaustive")
    path = tmp_path / "chi.txt"
    save_chi(handle, path)
    first_line = path.read_text().splitlines()[0]
    assert first_line == "chi m=4 power=1 n=5 g=2"
    spec, loaded = load_chi(path)
    assert spec == Z5
    assert not loaded.verified
    assert loaded.power == 1
    assert np.array_equal(loaded.state.amplitudes, handle.state.amplitudes)
    assert loaded.verify() >= 1 - 1e-9


def test_load_rejects_malformed_files(tmp_path):
    good = tmp_path / "good.txt"
    handle, _ = prepare_chi(Z5, mode="exhaustive")
    save_chi(handle, good)
    lines = good.read_text().splitlines()

    bad_header = tmp_path / "bad_header.txt"
    bad_header.write_text("chi order=4\n" + "\n".join(lines[1:]) + "\n")
    with pytest.raises(ArtifactMismatch):
        load_chi(bad_header)

    wrong_order = tmp_path / "wrong_order.txt"
    wrong_order.write_text("chi m=5 power=1 n=5 g=2\n" + "\n".join(lines[1:]) + "\n")
    with pytest.raises(ArtifactMismatch):
        load_chi(wrong_order)

    truncated = tmp_path / "truncated.txt"
    truncated.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ArtifactMismatch):
        load_chi(truncated)


def test_save_needs_modulus_backed_group(tmp_path):
    from chi_dlog.group import group_from_mul

    table_spec = group_from_mul(3, lambda a, b: a * b % 7)
    handle = ChiHandle(power=0, state=chi_reference(table_spec, 0))
    with pytest.raises(ValueError):
        save_chi(handle, tmp_path / "never.txt")
