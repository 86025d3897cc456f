"""Chi state preparation, powering, and the chi file format."""

import hashlib
import math

import numpy as np
import pytest

from chi_dlog import chi, qstate
from chi_dlog.chi import (
    ChiHandle,
    chi_power_from,
    chi_reference,
    load_chi,
    prepare_chi,
    save_chi,
)
from chi_dlog.dlog import run_dlog
from chi_dlog.errors import (
    ArtifactMismatch,
    DegenerateNorm,
    RetryLimitExceeded,
    UnverifiedChi,
)
from chi_dlog.group import cyclic_group, mod_inverse, totient, validate_group
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


# each case id ends in the value first recorded, so that the case keeps its name
@pytest.mark.parametrize("n, g, recorded", [
    pytest.param(101, 2, 0.4000000000000001, id="101-2-0.4000000000000002"),
    pytest.param(1019, 2, 0.4990176817288804, id="1019-2-0.4990176817288758"),
    pytest.param(2003, 5, 0.35964035964035956, id="2003-5-0.35964035964036073"),
])
def test_exhaustive_acceptance_keeps_its_recorded_bits(n, g, recorded):
    # math.fsum of the coprime entries of the distribution the round adds up:
    # one rounding, in any order, and within 2.2e-16 of phi(m) / m here.
    # Read as the kept coprime columns' basis-order sums, added over s, these
    # were the values the ids end in
    _, stats = prepare_chi(validate_group(n, g), mode="exhaustive")
    assert stats.acceptance_probability == recorded


# sha256 of an exhaustive preparation's handle amplitudes, recorded while the
# round still held all m x m amplitudes and the conversion was written whole,
# and again when the conversion's row sum came to add its rows in the order
# of the division's walk (test_prepared_handles_are_within_rounding_of_chi
# bounds what such a reordering may move). Each case id ends in the digest
# first recorded, so that the case keeps its name
@pytest.mark.parametrize("n, g, digest", [
    pytest.param(101, 2, "04299d271322fd4344cbf3761c134dd5380e0179a6b75c5057b38444c12a9717",
                 id="101-2-1c36a1d6fa448f877cc2239424636c38126acffc4747ba0931840fb7c7ca8c5d"),
    pytest.param(1009, 11, "1f70f563d056a2e2934294d8c2629eaf3e76ce3c41990e873725f8bdb1a0878c",
                 id="1009-11-eb75c06906032b07d40dd781ff6990b08ce0edeb1b33612cd2e6a2cbca17c676"),
    pytest.param(2003, 5, "b6c08ec20222f740142369debf601c066fddb7931b871b68ba3cc31f27456adc",
                 id="2003-5-1ab892bd54189f3e48c3f7aa744ad20eb69b913077094f5f55c494137e7eb80d"),
])
def test_exhaustive_handles_keep_their_recorded_bits(n, g, digest):
    handle, stats = prepare_chi(validate_group(n, g), mode="exhaustive")
    assert stats.success_s == 1
    assert hashlib.sha256(handle.state.amplitudes.tobytes()).hexdigest() == digest


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
# bytes) for prepare_chi(validate_group(n, g), seed=seed). The streams were
# recorded when every attempt still re-simulated the round: drawing all
# attempts from one simulated round must give the same stream and the same
# handles. The digests were recorded again when factor_out's projection became
# a row sum in a fixed order, and when the conversion's row sum came to add
# its rows in the order of the division's walk; they are the same on any core
# and BLAS thread count
PINNED_PREPARATIONS = [
    (101, 0, 1, [63], 63,
     "6f7d1fafda1cc3d9bf95e0c12492aa8c1c2f790d62abba6dd01b35c742974b3f"),
    (101, 1, 1, [51], 51,
     "21108e11cd6de181058a6f9079ed859858a6b05396702ac31df0271d1c1003a9"),
    (101, 2, 2, [26, 29], 29,
     "419a107f903a91540603e01b29d3f61a31af587053b0ffb3c08596d99b9eac32"),
    (101, 3, 2, [8, 23], 23,
     "43a88958f9e9647b34685cf795e3128613d42a2584fb99a31f7a1a6ae379deac"),
    (101, 4, 2, [94, 51], 51,
     "21108e11cd6de181058a6f9079ed859858a6b05396702ac31df0271d1c1003a9"),
    (101, 5, 3, [80, 80, 51], 51,
     "21108e11cd6de181058a6f9079ed859858a6b05396702ac31df0271d1c1003a9"),
    (101, 6, 1, [53], 53,
     "5f2171c16f7381b948924c02fccfe386a55fc2c82ad10de2916c186edeed5fb5"),
    (101, 7, 2, [62, 89], 89,
     "8cac1f5e7f3586ae53969b1df33b32d1d5ae1b36b918b94b2f8eba8d1d42bbb1"),
    (101, 8, 3, [32, 98, 31], 31,
     "6d74017a0f27060a4f78ae4420fd5898792b52990aeff5a67db1a8e7f89e9637"),
    (101, 9, 1, [87], 87,
     "b047b85b2283b5f153f9019e745c09d48655b253dc1ef5ccd51a7b8d25051f0d"),
    (101, 10, 5, [95, 20, 82, 14, 51], 51,
     "21108e11cd6de181058a6f9079ed859858a6b05396702ac31df0271d1c1003a9"),
    (101, 11, 2, [12, 49], 49,
     "aa0189ce5923ab4f8d02dc92eb65f513d1b8bf4de0bd592f21db27d578321b57"),
    (101, 12, 4, [25, 94, 18, 17], 17,
     "a37399db01328ecbfddd7e55af3b1864b702b0563acc208cc6e8afc7cf6f65b5"),
    (101, 13, 3, [86, 85, 81], 81,
     "0542225ce2ecae5ab225756aea214dab3a38f5262815732baa0ff433fe7561a5"),
    (101, 14, 1, [83], 83,
     "92803fca5b313735165be211abb8b0d976ab16456efd3d32cee1077e4de397d4"),
    (101, 15, 1, [69], 69,
     "7fb909e84f548fe6f67f0804cd5b6acb75b5f833c04eca7c38b144bb517a7368"),
    (101, 16, 2, [56, 43], 43,
     "f9d67bb8a7e88cd83d328ce73a32ae3bbdb9fe0278d8b99c40796b05410303df"),
    (101, 17, 5, [84, 16, 55, 36, 21], 21,
     "91792532cef6656e3528dcea62436ece8de67274b68018d96be30ee327a66816"),
    (101, 18, 1, [39], 39,
     "69e9e8dca815dc899331367b6d87c6af32a888d62341a4befda78fd750850633"),
    (101, 19, 3, [42, 92, 27], 27,
     "ba06d1a5b7abd35234456cb89d7cc873174410637de8cbacb2872188aa89f48f"),
    (1009, 0, 2, [642, 271], 271,
     "326f219766c2a154d7dba28643bedfe75872f4835464e3d827639a2251a9a5a5"),
    (1009, 1, 1, [515], 515,
     "1486453d522e143022615c5e76fb3626d3e75533a9088368043fbf715eb13a56"),
    (1009, 2, 1, [263], 263,
     "ff97ef59a6821974eda66532c05de93504cd8ca8785846e858b584e1b44c3205"),
    (1009, 3, 15, [86, 238, 807, 586, 94, 436, 482, 161, 740,
      114, 394, 520, 434, 591, 743], 743,
     "2f44c2eb9ca592f315947665e3d47b564b0a68b0cab8983bcd632f47eaa61080"),
    (1009, 4, 2, [950, 515], 515,
     "1486453d522e143022615c5e76fb3626d3e75533a9088368043fbf715eb13a56"),
]
PINNED_GENERATORS = {101: 2, 1009: 11}
# The case ids end in the digests first recorded, while factor_out still
# projected with an OpenBLAS zgemv, so that each case keeps its name; the
# digest a case checks is the one in PINNED_PREPARATIONS
CASE_ID_DIGESTS = [
    "79e76780c76d2859eff4e7585f9ff2bec90f2ae0fb58061587f8b452711c8550",
    "c357b0f1bf97191eb0aca62a58268703a22854b1cbf752116ec2e114a27cbad2",
    "9ae77c45f712e72ab00392f92b9209173bd84bc394460eb8e8927f269901a9bd",
    "b19aa85a6c5c80c634a7838fdd03a5e2121f4bb28816f28f06e1bc1115410762",
    "c357b0f1bf97191eb0aca62a58268703a22854b1cbf752116ec2e114a27cbad2",
    "c357b0f1bf97191eb0aca62a58268703a22854b1cbf752116ec2e114a27cbad2",
    "2bfb61c48be869aa8e673b130b4ea4ddcc403007bab28375bf1aa72ef371236b",
    "df9b63b2b368baf40af3925a5047411dda46bb98e19aec047b42bbfddf203f54",
    "03a52f7801a934777fcec8b94e1f50fb7602bcc1c0c8f1dca68e0dcc4729d443",
    "573f5cc7a003b3f41d28dea5e846e4a159607f4dfde0eb3cf6316d3f83e4ddd7",
    "c357b0f1bf97191eb0aca62a58268703a22854b1cbf752116ec2e114a27cbad2",
    "2b046033449095c091e0141ccf17a6c6f46a1a8ba7f248a6934da48b8fce965e",
    "1055bf0db965022593033c686a7c66a17f37b79ad17815a3de984e6ffc527e27",
    "4769b9e49116561ef26925a4caf90bac96923563b7902cfd11c1ca99443f4eaf",
    "1e1b693e851e2628461f1188e69b126684e07c9b9aa79b82ed3fc16ff7f3f755",
    "9280e9bdac64e42895562647aff131d777d1118441ba0eb3eb9eaec21270ef0c",
    "8d1f685af026fe6e05bcaa1c55f2b28779f4272cfb4bb5747a4ef94aff7f793a",
    "a441c79d000c503a59d4a6801d140ce771d94d05bee66188a5ac8d292b6ae99a",
    "d62387b2fad88f80c9f809666b4a8a97b1db8c9011866b4937d86fbfcda85b20",
    "6cc00b53f237bf16c58eb5d0b0d3a4b34259e6170daf8e221c8f37a546dc8b59",
    "f0e3be0493273e5933f43550fce302c05358eae1d70902a1c8ab8281e072bc86",
    "07f8b63e540725c08d070a053b8392e6bf8fb78ae6d4782b2e9da6aa90ddd99e",
    "5143abb77f823c3c7ec0d22658b0eb3ef019e7f0e79eb68e1180738d66c13893",
    "e3b68bad1e6e2e1ce5e6cc82c852c62084a98e56d5953614807a2abd031e772b",
    "07f8b63e540725c08d070a053b8392e6bf8fb78ae6d4782b2e9da6aa90ddd99e",
]
PINNED_CASE_IDS = [
    f"{n}-{seed}-{attempts}-observed_s{i}-{success_s}-{first}"
    for i, ((n, seed, attempts, _, success_s, _), first)
    in enumerate(zip(PINNED_PREPARATIONS, CASE_ID_DIGESTS))
]


@pytest.mark.parametrize("n, seed, attempts, observed_s, success_s, digest",
                         PINNED_PREPARATIONS, ids=PINNED_CASE_IDS)
def test_prepare_sampled_stream_is_pinned(n, seed, attempts, observed_s, success_s,
                                          digest):
    handle, stats = prepare_chi(validate_group(n, PINNED_GENERATORS[n]), seed=seed)
    assert (stats.attempts, stats.observed_s, stats.success_s) == \
        (attempts, observed_s, success_s)
    assert hashlib.sha256(handle.state.amplitudes.tobytes()).hexdigest() == digest


ACCURACY_CASES = ([(n, PINNED_GENERATORS[n], seed) for n, seed, *_ in PINNED_PREPARATIONS]
                  + [(n, g, "exhaustive") for n, g in ((101, 2), (1009, 11), (2003, 5),
                                                       (4001, 3))])


@pytest.mark.parametrize("n, g, seed", ACCURACY_CASES)
def test_prepared_handles_are_within_rounding_of_chi(n, g, seed):
    # every pinned preparation, sampled and exhaustive: each amplitude is
    # within sqrt(m) * 2**-52 of the reference chi state's, a bound that does
    # not depend on the order in which the conversion's rows are added
    spec = validate_group(n, g)
    if seed == "exhaustive":
        handle, _ = prepare_chi(spec, mode="exhaustive")
    else:
        handle, _ = prepare_chi(spec, seed=seed)
    error = np.abs(handle.state.amplitudes - chi_reference(spec, 1).amplitudes).max()
    assert error <= math.sqrt(spec.order) * 2.0 ** -52, f"off by {error:.3e}"


@pytest.mark.parametrize("n, g, seed", [(13, 2, 5), (1009, 11, 3)])
def test_prepare_simulates_the_round_once(monkeypatch, n, g, seed):
    # each call's entry is the register count of the states it was handed and
    # the transform it was asked to make, so qft_apply shows that the fresh
    # exponent register is transformed alone, and div_x_apply, which loads the
    # powers of g, that it joins the group register there and makes the
    # round's second transform as it builds the joint state. The round is
    # the one division a preparation makes: its conversion is never built
    # whole, and factor_out builds its rows. In both modes the round adds up
    # the whole marginal in the same pass, so no marginal_distribution call
    # reads the joint state again: a sampled round draws from it and keeps
    # the coprime columns, any of which the draw may accept; an exhaustive
    # round sums its coprime entries into the acceptance and keeps the
    # column of the smallest, the one it collapses
    calls = {"div_x_apply": [], "qft_apply": [], "marginal_distribution": []}
    rounds = []  # the marginal and the columns each round was given, and what it returned

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            registers = sum(len(arg.layout.registers) for arg in args
                            if isinstance(arg, QState))
            if name in ("qft_apply", "div_x_apply"):
                calls[name].append((registers, kwargs.get("qft")))
            # the handle's norm reads the marginal of its lone register
            elif name == "marginal_distribution" and registers == 2:
                calls[name].append((registers, args[0].layout.dim(0)))
            result = inner(*args, **kwargs)
            if name == "div_x_apply":
                rounds.append((kwargs.get("marginal"), kwargs.get("keep"), result))
            return result
        return wrapper

    for name in ("div_x_apply", "qft_apply"):
        monkeypatch.setattr(chi, name, counted(chi, name))
    monkeypatch.setattr(qstate, "marginal_distribution",
                        counted(qstate, "marginal_distribution"))
    spec = validate_group(n, g)
    m = spec.order
    # the whole round, as the kept columns and the marginal must read it
    whole = chi._superposed_round(spec)
    basis_order = qstate.marginal_distribution(whole)
    for mode in ("sampled", "exhaustive"):
        for name in calls:
            calls[name] = []
        rounds.clear()
        handle, stats = prepare_chi(spec, seed=seed, mode=mode)
        assert handle.verified
        assert stats.attempts >= (3 if mode == "sampled" else 1)
        (filled, keep, state), = rounds
        coprime = [s for s in range(m) if math.gcd(s, m) == 1]
        assert keep == (coprime if mode == "sampled" else [1])
        assert state.layout.dim(0) == len(keep) < m
        assert np.array_equal(state.amplitudes.reshape(m, -1),
                              whole.amplitudes.reshape(m, m)[:, keep])
        assert calls == {"div_x_apply": [(2, "forward")], "qft_apply": [(1, None)],
                         "marginal_distribution": []}
        assert np.abs(filled - basis_order).max() <= m * 2.0 ** -52
        if mode == "exhaustive":
            assert stats.acceptance_probability == math.fsum(filled[coprime])


def test_a_zero_drawn_column_is_refused_by_its_measured_exponent(monkeypatch):
    # the round's marginal is intact, so the draw is the pinned one, but the
    # kept column it lands on is zero: the refusal names the measured
    # exponent, not the column of the kept grid that holds it
    spec = validate_group(101, 2)
    m, s = spec.order, 63  # seed 0 draws 63 at once
    coprime = [r for r in range(m) if math.gcd(r, m) == 1]
    assert coprime.index(s) != s
    division = chi.div_x_apply

    def zeroed(*args, **kwargs):
        state = division(*args, **kwargs)
        state.amplitudes.reshape(m, -1)[:, coprime.index(s)] = 0
        return state
    monkeypatch.setattr(chi, "div_x_apply", zeroed)
    with pytest.raises(DegenerateNorm, match=f"^index {s} carries probability 0"):
        prepare_chi(spec, seed=0)


def test_a_bad_seed_is_refused_before_the_round(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the round was simulated")
    monkeypatch.setattr(chi, "_superposed_round", never)
    with pytest.raises(ValueError, match="negative"):
        prepare_chi(Z13, seed=-1)


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


CORE_COUNT_GROUPS = {"m=512": cyclic_group(512), "m=1008": validate_group(1009, 11)}


@pytest.mark.parametrize("name", list(CORE_COUNT_GROUPS))
def test_the_conversion_and_powering_are_bit_identical_on_any_core_count(
        see_cores, started, name):
    # from 2**18 amplitudes factor_out's row sum and product check split over
    # the cores, and each builds the conversion's rows as it goes: the rows,
    # the converted register, a prepared chi register and a powered one must
    # have the same bits on one core as on two to four, and the rows those
    # of the division written whole, taken in the walk's order
    spec = CORE_COUNT_GROUPS[name]
    m = spec.order
    s = 5  # coprime to both orders
    survivor = chi_reference(spec, s)
    x = spec.pow(spec.generator, mod_inverse(s, m))
    whole = chi.div_x_apply(chi._chi_exponents(spec, 0), survivor, x).amplitudes
    first = {}
    for count in (1, 2, 3, 4):
        see_cores(count)
        started.clear()
        joint = chi._division_rows(chi._chi_exponents(spec, 0), survivor, x)
        converted = chi.factor_out(joint, 1, survivor)
        # one range a core for the row sum and one for the product check
        assert len(started) == 2 * (count - 1)
        rows = np.empty((m, m), dtype=np.complex128)
        joint.write(0, m, 0, m, rows)
        assert np.array_equal(rows, whole.reshape(m, m)[joint.order])
        handle, _ = prepare_chi(spec, seed=0, mode="exhaustive")
        got = [("converted", converted.amplitudes), ("prepared", handle.state.amplitudes),
               ("powered", chi_power_from(spec, handle, 5, start_power=2).state.amplitudes)]
        for key, amps in got:
            assert np.array_equal(amps, first.setdefault(key, amps.copy())), key


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


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize("k", [2, 3, 5])
def test_a_refused_chi_file_names_the_line_the_file_numbers(tmp_path, newline, k):
    # the header is file line 1, so the amplitude on file line k is named line k
    handle, _ = prepare_chi(Z5, mode="exhaustive")
    good = tmp_path / "good.txt"
    save_chi(handle, good)
    lines = good.read_text().splitlines()
    assert len(lines) == 5
    lines[k - 1] = lines[k - 1].split()[0] + " nan 0"
    bad = tmp_path / "bad.txt"
    bad.write_bytes(newline.join(lines).encode() + newline.encode())
    with pytest.raises(ArtifactMismatch, match=f"^line {k}: non-finite amplitude$"):
        load_chi(bad)


def test_load_reads_crlf_line_endings_to_the_same_bits(tmp_path):
    handle, _ = prepare_chi(Z13, seed=3)
    path = tmp_path / "chi.txt"
    save_chi(handle, path)
    crlf = tmp_path / "chi-crlf.txt"
    crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert b"\r\n" in crlf.read_bytes()
    spec, loaded = load_chi(crlf)
    assert spec == Z13
    assert loaded.power == handle.power
    assert loaded.state.amplitudes.tobytes() == handle.state.amplitudes.tobytes()


def test_save_needs_modulus_backed_group(tmp_path):
    from chi_dlog.group import group_from_mul

    table_spec = group_from_mul(3, lambda a, b: a * b % 7)
    handle = ChiHandle(power=0, state=chi_reference(table_spec, 0))
    with pytest.raises(ValueError):
        save_chi(handle, tmp_path / "never.txt")
