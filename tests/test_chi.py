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
from chi_dlog.errors import ArtifactMismatch, RetryLimitExceeded, UnverifiedChi
from chi_dlog.group import cyclic_group, totient, validate_group
from chi_dlog.qstate import QState, fidelity, marginal_distribution

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


@pytest.mark.parametrize("n, g, recorded", [(101, 2, 0.4000000000000002),
                                            (1019, 2, 0.4990176817288758),
                                            (2003, 5, 0.35964035964036073)])
def test_exhaustive_acceptance_keeps_its_recorded_bits(n, g, recorded):
    # the round's coprime columns added in basis order, as marginal_distribution
    # adds them, then over s; summed in the division's walk order the m = 100
    # value reads 0.4000000000000003 and the m = 2002 one moves by 2.7e-15
    _, stats = prepare_chi(validate_group(n, g), mode="exhaustive")
    assert stats.acceptance_probability == recorded


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
# a row sum in a fixed order; they are the same on any core and BLAS thread
# count
PINNED_PREPARATIONS = [
    (101, 0, 1, [63], 63,
     "7576825fbc2df1e71a056abeee329253a3c5a95f911d71795956841617b43609"),
    (101, 1, 1, [51], 51,
     "3eeab259494a855fb3f243d5876c8cb3f4856c8b7e0c70b7d8fbbcf54903bc4c"),
    (101, 2, 2, [26, 29], 29,
     "035425813210d909f450d893f9fcae9d34ddd183efc862e18e6a673949355174"),
    (101, 3, 2, [8, 23], 23,
     "018d81ad254dc9447413c6a435f98a091af5cabee7604cf240c31b380a17bd0c"),
    (101, 4, 2, [94, 51], 51,
     "3eeab259494a855fb3f243d5876c8cb3f4856c8b7e0c70b7d8fbbcf54903bc4c"),
    (101, 5, 3, [80, 80, 51], 51,
     "3eeab259494a855fb3f243d5876c8cb3f4856c8b7e0c70b7d8fbbcf54903bc4c"),
    (101, 6, 1, [53], 53,
     "c132e4df33b9eecdf6b58e736629db86c05b67bf79135b014f85d8bb79774c9d"),
    (101, 7, 2, [62, 89], 89,
     "ff15fa581b0d4f51d394ac54f309491d0fa77f2ba30750ce326dea98ba253f01"),
    (101, 8, 3, [32, 98, 31], 31,
     "4cec8307105e94121b8d1e1408716abd4835a8f3cf63ae1d49d148067ac3c180"),
    (101, 9, 1, [87], 87,
     "c45a798cb7352f1277a25e1ce042ed2b39e1220f7c6103e66b920388cac9b93d"),
    (101, 10, 5, [95, 20, 82, 14, 51], 51,
     "3eeab259494a855fb3f243d5876c8cb3f4856c8b7e0c70b7d8fbbcf54903bc4c"),
    (101, 11, 2, [12, 49], 49,
     "69a9e0e0a79a2cc91913a77e192b28717d1ed0082e2add2319b0c781c361a76f"),
    (101, 12, 4, [25, 94, 18, 17], 17,
     "35e1d6d5d49f715943336da9f9ff067f1017045a5735a313d4fa32a427852300"),
    (101, 13, 3, [86, 85, 81], 81,
     "c46c9e90689ebf912b895162a497fe1405c1d6146b829c6b6d3ef38783790a04"),
    (101, 14, 1, [83], 83,
     "397a6f043373a1df9102ebdc648e71998c7e380a96bb956c2d684435e301bb9e"),
    (101, 15, 1, [69], 69,
     "7228fb9fbc7c96a0e7328dc639a1ad46be772b74775923aa6a1181b39eec525b"),
    (101, 16, 2, [56, 43], 43,
     "12f91d014319c32f17aa7c49be8bd8190a42600af67f7a4b6d3d791391d8644b"),
    (101, 17, 5, [84, 16, 55, 36, 21], 21,
     "d511aa43298fa44e105c72bd66a8dd2e8268d7f0fc90eed163945f8270200ab9"),
    (101, 18, 1, [39], 39,
     "2b2621d71181c0bb00a030ea0305436b4ad951f7dee0a9f1daf8df5b94f0e3a7"),
    (101, 19, 3, [42, 92, 27], 27,
     "4e6604fd69854eb9714decbaa23f4ac91ceba1c3f038776159e65c446189956f"),
    (1009, 0, 2, [642, 271], 271,
     "e04682df9f9fef9603086d4c258b6612ffb04199edb5ac362b00623f34d322ff"),
    (1009, 1, 1, [515], 515,
     "ee4b5b36dc99ad4b60a4d75635ae76e4a36c2b2a45ae32c58536b1cfde7ac4ad"),
    (1009, 2, 1, [263], 263,
     "be77ab245846ae5d4ff6f63f5eaff4d8ea9aa1557ec242066e13e0dec6714c2c"),
    (1009, 3, 15, [86, 238, 807, 586, 94, 436, 482, 161, 740,
      114, 394, 520, 434, 591, 743], 743,
     "4b0e2a378ff4ce91a469ad4a80d41ed33d32f7570ce48f2ac1fc7e66b6c737b0"),
    (1009, 4, 2, [950, 515], 515,
     "ee4b5b36dc99ad4b60a4d75635ae76e4a36c2b2a45ae32c58536b1cfde7ac4ad"),
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


@pytest.mark.parametrize("n, g, seed", [(13, 2, 5), (1009, 11, 3)])
def test_prepare_simulates_the_round_once(monkeypatch, n, g, seed):
    # each call's entry is the register count of the states it was handed and
    # the transform it was asked to make, so qft_apply shows that the fresh
    # exponent register is transformed alone, and div_x_apply, which loads the
    # powers of g, that it joins the group register there and makes the
    # round's second transform as it builds the joint state. Only the round's
    # division, the one with the forward transform, is counted: the
    # conversion after the measurement divides too. In sampled mode that
    # division also adds up the marginal the preparation draws from, so no
    # marginal_distribution call reads the joint state again; in exhaustive
    # mode the acceptance is one strided read of the columns that can be
    # coprime, the odd ones, and no call reads every column of the round
    calls = {"div_x_apply": [], "qft_apply": [], "marginal_distribution": []}
    rounds = []  # the marginal each round filled, and the reference's

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            registers = sum(len(arg.layout.registers) for arg in args
                            if isinstance(arg, QState))
            if name == "qft_apply" \
                    or name == "div_x_apply" and kwargs.get("qft") == "forward":
                calls[name].append((registers, kwargs.get("qft")))
            # the handle's norm reads the marginal of its lone register
            elif name == "marginal_distribution" and registers == 2:
                columns = args[1] if len(args) > 1 else kwargs.get("columns", slice(None))
                calls[name].append((registers, columns))
            result = inner(*args, **kwargs)
            if name == "div_x_apply" and kwargs.get("qft") == "forward":
                # read before the conversion divides into the round's buffer
                rounds.append((kwargs.get("marginal"), marginal_distribution(result)))
            return result
        return wrapper

    for name in ("div_x_apply", "qft_apply"):
        monkeypatch.setattr(chi, name, counted(chi, name))
    for module in (chi, qstate):
        monkeypatch.setattr(module, "marginal_distribution",
                            counted(qstate, "marginal_distribution"))
    spec = validate_group(n, g)
    m = spec.order
    for mode in ("sampled", "exhaustive"):
        for name in calls:
            calls[name] = []
        rounds.clear()
        handle, stats = prepare_chi(spec, seed=seed, mode=mode)
        assert handle.verified
        assert stats.attempts >= (3 if mode == "sampled" else 1)
        (filled, basis_order), = rounds
        if mode == "sampled":
            assert calls == {"div_x_apply": [(2, "forward")], "qft_apply": [(1, None)],
                             "marginal_distribution": []}
            assert np.abs(filled - basis_order).max() <= m * 2.0 ** -52
        else:
            assert m % 2 == 0
            assert calls == {"div_x_apply": [(2, "forward")], "qft_apply": [(1, None)],
                             "marginal_distribution": [(2, slice(1, m, 2))]}
            assert filled is None
            coprime = sum(basis_order[s] for s in range(m) if math.gcd(s, m) == 1)
            assert stats.acceptance_probability == float(coprime)


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
    # from 2**18 amplitudes the conversion division splits its rows over the
    # cores as every division does: the division itself, with and without a
    # passed buffer, a prepared chi register and a powered one must have the
    # same bits on one core as on two to four
    spec = CORE_COUNT_GROUPS[name]
    m = spec.order
    rng = np.random.default_rng(m)
    survivor = QState(chi_reference(spec, 0).layout,
                      rng.normal(size=m) + 1j * rng.normal(size=m))
    x = spec.pow(spec.generator, 5)
    first = {}
    for count in (1, 2, 3, 4):
        see_cores(count)
        got = []
        for out in (None, np.full(m * m, np.nan, dtype=np.complex128)):
            started.clear()
            joint = chi.div_x_apply(chi._chi_exponents(spec, 0), survivor, x, out=out)
            assert out is None or joint.amplitudes is out
            assert len(started) == count - 1
            got.append(("conversion", joint.amplitudes))
        handle, _ = prepare_chi(spec, seed=0, mode="exhaustive")
        got += [("prepared", handle.state.amplitudes),
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
