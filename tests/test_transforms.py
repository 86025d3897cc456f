"""The FFT and the division operator, against the dense Fourier matrix and
the three reference permutation tables, those oracles against direct
recomputation, and the names the package exports."""

import inspect
import math
import threading
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

import chi_dlog
from chi_dlog import dlog, errors, qstate, transforms
from chi_dlog.chi import chi_reference, prepare_chi
from chi_dlog.dlog import run_dlog
from chi_dlog.errors import (
    LayoutMismatch,
    NotAGenerator,
    NotAProductState,
    NotBijective,
    NotInGroup,
    WrongRegisterKind,
)
from chi_dlog.group import cyclic_group, cyclic_moduli, primitive_root, validate_group
from chi_dlog.qstate import (
    ExponentRegister,
    GroupRegister,
    QState,
    RegisterLayout,
    basis_state,
)
from chi_dlog.transforms import (
    div_alpha_permutation,
    div_x_apply,
    div_x_permutation,
    fourier_matrix,
    power_oracle_permutation,
    qft_apply,
)
from chi_dlog.verify import _div_alpha, _product, _relabel

Z5 = validate_group(5, 2)
Z7 = validate_group(7, 3)


def random_state(layout, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=layout.total_dim) + 1j * rng.normal(size=layout.total_dim)
    return QState(layout, amps / np.linalg.norm(amps))


def pair_layout(spec):
    return RegisterLayout((GroupRegister(spec), GroupRegister(spec)))


def run_layout(spec):
    return RegisterLayout((ExponentRegister(spec.order), GroupRegister(spec)))


def group_state(spec, seed):
    return random_state(RegisterLayout((GroupRegister(spec),)), seed)


def exponent_state(m, seed):
    return random_state(RegisterLayout((ExponentRegister(m),)), seed)


def test_fourier_known_columns():
    f2 = fourier_matrix(2)
    assert np.allclose(f2 @ [0, 1], np.array([1, -1]) / np.sqrt(2))
    f4 = fourier_matrix(4)
    assert np.allclose(f4 @ [0, 1, 0, 0], [0.5, 0.5j, -0.5, -0.5j])
    zeta3 = complex(-0.5, np.sqrt(3) / 2)
    assert np.allclose(fourier_matrix(3) @ [0, 1, 0],
                       np.array([1, zeta3, zeta3 ** 2]) / np.sqrt(3))
    for m in (1, 2, 5, 12):
        col0 = fourier_matrix(m)[:, 0]
        assert np.allclose(col0, np.full(m, 1 / np.sqrt(m)))


def test_fourier_unitary_up_to_64():
    for m in range(1, 65):
        f = fourier_matrix(m)
        assert np.abs(f @ f.conj().T - np.eye(m)).max() <= 1e-9


def test_fourier_inverse_is_conjugate_transpose():
    for m in (1, 2, 3, 8, 31):
        assert np.array_equal(fourier_matrix(m, inverse=True), fourier_matrix(m).conj().T)


def test_fourier_matrix_is_read_only():
    with pytest.raises(ValueError):
        fourier_matrix(4)[0, 0] = 0.0
    with pytest.raises(ValueError):
        fourier_matrix(0)


def test_qft_roundtrip():
    lay = RegisterLayout((ExponentRegister(6), GroupRegister(Z7)))
    state = random_state(lay, 0)
    back = qft_apply(qft_apply(state.copy()), inverse=True)
    assert np.allclose(back.amplitudes, state.amplitudes, atol=1e-12)


@pytest.mark.parametrize("dims", [(9, 4), (3, 16)])
def test_qft_fft_path_matches_dense(dims):
    lay = RegisterLayout((ExponentRegister(dims[0]), ExponentRegister(dims[1])))
    state = random_state(lay, 23)
    for inverse in (False, True):
        # register 0 varies fastest, so it is the right-hand kron factor
        full = np.kron(np.eye(dims[1]), fourier_matrix(dims[0], inverse))
        dense = full @ state.amplitudes
        fast = qft_apply(state, inverse=inverse)
        assert np.abs(dense - fast.amplitudes).max() <= 1e-9


def test_qft_fft_path_single_register():
    # 1, primes (Bluestein) and composites
    for m in (1, 2, 7, 12, 25, 61, 64):
        state = random_state(RegisterLayout((ExponentRegister(m),)), m)
        for inverse in (False, True):
            dense = fourier_matrix(m, inverse) @ state.amplitudes
            fast = qft_apply(state, inverse=inverse)
            assert np.abs(dense - fast.amplitudes).max() <= 1e-9


def test_qft_register_kind_guard():
    # register 0 must be an exponent register, alone or joined
    for layout in (pair_layout(Z7), RegisterLayout((GroupRegister(Z7),))):
        with pytest.raises(WrongRegisterKind):
            qft_apply(random_state(layout, 1))


def qft_after(op, *args, qft):
    """op(*args) with no transform, then qft_apply: what the fused pass must equal."""
    return qft_apply(op(*args), inverse=qft == "inverse").amplitudes


def assert_fused_on_any_core_count(see_cores, started, spec, x):
    """div_x_apply with its transform against the two steps, on 1 to 4 cores."""
    m = spec.order
    a, b = exponent_state(m, m), group_state(spec, m + 1)
    for qft in ("forward", "inverse"):
        want = qft_after(div_x_apply, a, b, x, qft=qft)
        for count in (1, 2, 3, 4):
            see_cores(count)
            started.clear()
            got = div_x_apply(a, b, x, qft=qft)
            assert np.array_equal(got.amplitudes, want)
            # from _SPLIT_MIN, one range of rows per core
            split = m * m >= qstate._SPLIT_MIN
            assert len(started) == (count - 1 if split else 0)
            assert not any(thread.is_alive() for thread in started)


@pytest.mark.parametrize("m", [512, 724, 1008])
def test_split_qft_is_bit_identical_on_any_core_count(see_cores, started, m):
    # a joint transform is split over the cores only inside the division it
    # follows. In Z/mZ, x = 0 makes m cycles of length 1, x = 1 one cycle of
    # length m, and x = m/4 cycles of length 4, shorter than a block: at
    # m = 724 (22 to 90 rows a block, by the core count) the blocks straddle them
    spec = cyclic_group(m)
    for x in (0, 1, m // 4):
        assert_fused_on_any_core_count(see_cores, started, spec, x)


# below the split threshold, a prime order, and a unit group whose cycles of
# length 7 straddle its blocks of 16 to 65 rows
FUSED_CASES = {
    "m=256, x=1": (validate_group(257, 3), 1),
    "m=256, x=g": (validate_group(257, 3), 3),
    "m=256, order 16": (validate_group(257, 3), pow(3, 16, 257)),
    "prime m=521, x=1": (cyclic_group(521), 0),
    "prime m=521, x=g": (cyclic_group(521), 1),
    "m=1008, order 7": (validate_group(1009, 11), pow(11, 144, 1009)),
}


@pytest.mark.parametrize("case", list(FUSED_CASES))
def test_a_division_with_its_transform_is_bit_identical_on_any_core_count(
        see_cores, started, case):
    assert_fused_on_any_core_count(see_cores, started, *FUSED_CASES[case])


def test_a_division_with_its_transform_matches_the_two_steps_exhaustively():
    for spec in oracle_groups():
        m = spec.order
        a, b = exponent_state(m, m), group_state(spec, m + 1)
        for x in spec.elements:
            for qft in ("forward", "inverse"):
                assert np.array_equal(div_x_apply(a, b, x, qft=qft).amplitudes,
                                      qft_after(div_x_apply, a, b, x, qft=qft))


def test_a_division_refuses_a_transform_it_cannot_make():
    a, b = exponent_state(6, 23), group_state(Z7, 24)
    with pytest.raises(ValueError, match="qft must be"):
        div_x_apply(a, b, 3, qft=True)
    # a group register in the exponent register's place is refused whole
    with pytest.raises(LayoutMismatch):
        div_x_apply(group_state(Z7, 25), b, 5, qft="forward")


# x = 1, a generator and an x of small order (the last item) at each size;
# m = 1450 and m = 2002 are where the memory tests and the dlog pins run
PASS_MARGINAL_CASES = {
    "m=512": (cyclic_group(512), 4),
    "m=1008": (validate_group(1009, 11), 7),
    "m=1450": (validate_group(1451, 2), 5),
    "m=2002": (validate_group(2003, 5), 7),
}


@pytest.mark.parametrize("name", list(PASS_MARGINAL_CASES))
def test_the_pass_marginal_is_bit_identical_on_any_core_count(see_cores, started, name):
    # the sum goes segment by segment, so the core count moves no bit; and it
    # stays within m ulps of 1 of the basis-order sum
    spec, order = PASS_MARGINAL_CASES[name]
    m, g = spec.order, spec.generator
    a, b = exponent_state(m, m), group_state(spec, m + 1)
    for x, qft in ((spec.identity, "inverse"), (g, "forward"),
                   (spec.pow(g, m // order), "inverse")):
        want = qft_after(div_x_apply, a, b, x, qft=qft)
        first = None
        for count in (1, 2, 3, 4, 8, 64):
            see_cores(count)
            marginal = np.full(m, np.nan)
            started.clear()
            got = div_x_apply(a, b, x, qft=qft, marginal=marginal)
            assert np.array_equal(got.amplitudes, want)
            first = marginal if first is None else first
            assert np.array_equal(marginal, first)
            assert len(started) <= count - 1
            assert not any(thread.is_alive() for thread in started)
        basis_order = qstate.marginal_distribution(QState(got.layout, want))
        assert np.abs(first - basis_order).max() <= m * 2.0 ** -52


def test_the_pass_marginal_matches_the_marginal_exhaustively():
    for spec in oracle_groups():
        m = spec.order
        a, b = exponent_state(m, m), group_state(spec, m + 1)
        for x in spec.elements:
            for qft in ("forward", "inverse"):
                marginal = np.full(m, np.nan)
                joint = div_x_apply(a, b, x, qft=qft, marginal=marginal)
                assert np.abs(marginal - qstate.marginal_distribution(joint)).max() \
                    <= m * 2.0 ** -52


def _marginals():
    """A bad marginal for each refusal, for a 6 x 6 joint state."""
    frozen = np.zeros(6)
    frozen.setflags(write=False)
    return {
        "a list": [0.0] * 6,
        "float32": np.zeros(6, dtype=np.float32),
        "complex128": np.zeros(6, dtype=np.complex128),
        "too short": np.zeros(5),
        "too long": np.zeros(7),
        "two-dimensional": np.zeros((6, 1)),
        "read-only": frozen,
    }


@pytest.mark.parametrize("what", list(_marginals()))
def test_a_division_refuses_a_bad_marginal(what):
    a, b = exponent_state(6, 11), group_state(Z7, 12)
    marginal = _marginals()[what]
    with pytest.raises(LayoutMismatch, match="marginal must be"):
        div_x_apply(a, b, 3, qft="forward", marginal=marginal)
    assert not np.any(marginal)


def test_a_marginal_needs_a_transform_and_memory_of_its_own():
    a, b = exponent_state(6, 11), group_state(Z7, 12)
    with pytest.raises(ValueError, match="needs qft"):
        div_x_apply(a, b, 3, marginal=np.zeros(6))
    for given in (a, b):
        before = given.amplitudes.copy()
        with pytest.raises(LayoutMismatch, match="shares memory"):
            div_x_apply(a, b, 3, qft="forward", marginal=given.amplitudes.imag)
        assert np.array_equal(given.amplitudes, before)


def assert_kept_columns(spec, a, b, x, ks):
    """Each kept column, the coprime columns, and the marginal filled with them,
    against the whole pass."""
    m = spec.order
    coprime = [k for k in range(m) if math.gcd(k, m) == 1]
    for qft in ("forward", "inverse"):
        marginal = np.full(m, np.nan)
        columns = div_x_apply(a, b, x, qft=qft, marginal=marginal).amplitudes.reshape(m, m)
        for k in [*ks, coprime, np.array(ks[:2])]:
            filled = np.full(m, np.nan)
            kept = div_x_apply(a, b, x, qft=qft, marginal=filled, keep=k)
            width = np.size(k)
            assert kept.layout == RegisterLayout((ExponentRegister(width), GroupRegister(spec)))
            assert np.array_equal(kept.amplitudes.reshape(m, width), columns[:, k].reshape(m, -1))
            assert np.array_equal(filled, marginal)


@pytest.mark.parametrize("n, g", [(13, 2), (47, 2), (101, 2)])
def test_every_kept_column_has_the_bits_of_the_whole_pass(n, g):
    spec = validate_group(n, g)
    m = spec.order
    a, b = exponent_state(m, m), group_state(spec, m + 1)
    for x in (spec.identity, g, spec.pow(g, 5)):
        assert_kept_columns(spec, a, b, x, list(range(m)))


@pytest.mark.parametrize("n, g", [(1451, 2), (2003, 5)])
def test_a_kept_column_has_the_bits_of_the_whole_pass_on_any_core_count(see_cores, n, g):
    spec = validate_group(n, g)
    m = spec.order
    a, b = exponent_state(m, m), group_state(spec, m + 1)
    for count in (1, 2, 8):
        see_cores(count)
        assert_kept_columns(spec, a, b, spec.pow(g, 5), (0, 1, 5, m // 2, m - 1))


def test_a_division_refuses_a_column_it_cannot_keep():
    a, b = exponent_state(6, 11), group_state(Z7, 12)
    with pytest.raises(ValueError, match="they need qft"):
        div_x_apply(a, b, 3, keep=2)
    # an exponent outside [0, m), or not an integer; an array that is empty,
    # not strictly ascending, reaches outside [0, m) or is not one-dimensional
    for k in (-1, 6, 2.0, "2", True, [], [1, 1], [3, 2], [0, 6], [-1, 2], [2.0, 3.0],
              [[1, 2]], np.array([], dtype=int)):
        with pytest.raises(errors.BadLabel, match="kept column"):
            div_x_apply(a, b, 3, qft="inverse", keep=k)


def test_a_state_below_the_split_threshold_starts_no_thread(see_cores, started):
    see_cores(4)
    assert 511 * 511 < qstate._SPLIT_MIN == 512 * 512
    div_x_apply(exponent_state(511, 1), group_state(cyclic_group(511), 2), 510,
                qft="forward")
    assert started == []
    joint = div_x_apply(exponent_state(512, 3), group_state(cyclic_group(512), 4),
                        511, qft="forward")
    assert len(started) == 3
    # qft_apply transforms lone registers on the run's path, in one call
    started.clear()
    qft_apply(joint)
    assert started == []


@pytest.mark.parametrize("count", [1, 2, 8, 64, 4096])
def test_the_division_scratch_does_not_grow_with_the_cores(see_cores, count):
    # each range of rows holds a block, a tile of 3m and numpy's two
    # multiply buffers, and the ranges share _SEGMENTS sums of a marginal: at
    # most 3 MiB together even with another m amplitudes a range, whatever
    # the core count (no thread starts here)
    see_cores(count)
    segments = transforms._SEGMENTS
    # from m = 3100 the segments' sums leave room for only 4 ranges
    for m in (512, 1008, 1450, 2002, 3100, 4000):
        bounds, cuts, size = transforms._blocks(m)
        parts = len(cuts) - 1
        # the segments depend on m alone, and each range is whole segments
        assert bounds == [m * k // segments for k in range(segments + 1)]
        assert cuts[0] == 0 and cuts[-1] == segments and min(np.diff(cuts)) >= 1
        assert 1 <= parts <= count and size >= 1
        assert 16 * (parts * (size * m + 4 * m + 2 * np.getbufsize())
                     + segments * m) <= 3 * 2 ** 20


@pytest.mark.parametrize("count", [2, 3, 4, 6])
def test_the_division_splits_evenly_over_2_3_4_and_6_cores(see_cores, count):
    # every range holds as many segments, so none runs longer than an even
    # split of the rows would
    see_cores(count)
    for m in (1008, 1450):
        _, cuts, _ = transforms._blocks(m)
        assert len(cuts) - 1 == count and len(set(np.diff(cuts))) == 1


class PartFailed(Exception):
    pass


@pytest.mark.parametrize("failing", ["worker", "caller"])
def test_a_failing_part_raises_in_the_caller_and_every_thread_is_joined(
        monkeypatch, see_cores, started, failing):
    see_cores(4)
    real, caller = np.fft.ifft, threading.get_ident()

    def transform(a, *args, **kwargs):
        if (threading.get_ident() == caller) == (failing == "caller"):
            raise PartFailed(failing)
        return real(a, *args, **kwargs)
    monkeypatch.setattr(np.fft, "ifft", transform)
    before = threading.active_count()
    spec = cyclic_group(512)
    with pytest.raises(PartFailed, match=failing):
        div_x_apply(exponent_state(512, 3), group_state(spec, 4), 1, qft="forward")
    assert len(started) == 3
    assert not any(thread.is_alive() for thread in started)
    assert threading.active_count() == before


def test_a_run_at_m_1008_leaves_no_thread_running(see_cores, started):
    see_cores(2)
    spec = validate_group(1009, 11)
    before = threading.active_count()
    handle, _ = prepare_chi(spec, seed=0, mode="exhaustive")
    run_dlog(spec, handle, 3, mode="exhaustive")
    # on two cores each split pass over a joint state starts one thread: the
    # preparation's division with its transform, which adds up the marginal
    # the acceptance is read from and keeps the one column it collapses, and
    # factor_out's row sum and residual, which build the conversion's rows as
    # they go, then the run's division with its transform, which adds up the
    # run's marginal as it goes. The lone registers' transforms (1008
    # amplitudes) start none
    assert len(started) == 4
    assert threading.active_count() == before


def joint_index(layout, labels):
    i0 = layout.label_to_index(0, labels[0])
    i1 = layout.label_to_index(1, labels[1])
    return i0 + layout.dim(0) * i1


def test_div_alpha_known_mapping():
    # alpha=1 sends |3, 6> to |3, 6 * 3^-1> = |3, 2> in the units mod 7
    lay = pair_layout(Z7)
    table = div_alpha_permutation(Z7, 1)
    assert table[joint_index(lay, (3, 6))] == joint_index(lay, (3, 2))


def test_div_alpha_exhaustive_against_group_ops():
    for spec in (Z7, validate_group(9, 2), cyclic_group(8)):
        lay = pair_layout(spec)
        for alpha in range(spec.order):
            table = div_alpha_permutation(spec, alpha)
            for x in spec.elements:
                for y in spec.elements:
                    target = spec.mul(y, spec.pow(x, -alpha))
                    assert table[joint_index(lay, (x, y))] == joint_index(lay, (x, target))


def test_div_alpha_zero_is_identity():
    a, b = group_state(Z7, 3), group_state(Z7, 4)
    out = _div_alpha(a, b, 0)
    assert np.array_equal(out.amplitudes, _product(a, b).amplitudes)


def test_div_alpha_tables_compose_and_invert():
    m = Z7.order
    for a in range(m):
        for b in range(m):
            composed = div_alpha_permutation(Z7, b)[div_alpha_permutation(Z7, a)]
            assert np.array_equal(composed, div_alpha_permutation(Z7, (a + b) % m))
    for a in range(m):
        undo = div_alpha_permutation(Z7, m - a)[div_alpha_permutation(Z7, a)]
        assert np.array_equal(undo, np.arange(m * m))


def test_div_x_known_mapping():
    # x=4 in the units mod 5: |3, 2> picks up 4^-3 = 4, landing on |3, 3>
    lay = run_layout(Z5)
    table = div_x_permutation(Z5, 4)
    assert table[joint_index(lay, (3, 2))] == joint_index(lay, (3, 3))


def test_div_x_exhaustive_against_group_ops():
    for spec in (Z5, Z7, cyclic_group(6)):
        lay = run_layout(spec)
        for x in spec.elements:
            table = div_x_permutation(spec, x)
            for a in range(spec.order):
                for y in spec.elements:
                    target = spec.mul(y, spec.pow(x, -a))
                    assert table[joint_index(lay, (a, y))] == joint_index(lay, (a, target))


def test_div_x_identity_element_is_identity_map():
    a, b = exponent_state(Z7.order, 6), group_state(Z7, 7)
    out = div_x_apply(a, b, 1)
    assert np.array_equal(out.amplitudes, _product(a, b).amplitudes)


def test_power_oracle_known_mapping():
    # (n=5, g=2): |3, 2> loads 2 * 2^3 = 16 = 1, landing on |3, 1>
    lay = run_layout(Z5)
    table = power_oracle_permutation(Z5)
    assert table[joint_index(lay, (3, 2))] == joint_index(lay, (3, 1))
    assert table[joint_index(lay, (0, 1))] == joint_index(lay, (0, 1))


def test_power_oracle_exhaustive_against_group_ops():
    for spec in (Z5, Z7, validate_group(13, 2), cyclic_group(9)):
        lay = run_layout(spec)
        table = power_oracle_permutation(spec)
        for a in range(spec.order):
            for y in spec.elements:
                target = spec.mul(y, spec.pow(spec.generator, a))
                assert table[joint_index(lay, (a, y))] == joint_index(lay, (a, target))


def test_permutation_tables_are_bijections():
    for spec in (Z5, Z7, cyclic_group(10)):
        m = spec.order
        tables = [power_oracle_permutation(spec)]
        tables += [div_alpha_permutation(spec, a) for a in range(m)]
        tables += [div_x_permutation(spec, x) for x in spec.elements]
        for table in tables:
            assert np.array_equal(np.sort(table), np.arange(m * m))
            assert table.dtype == np.int64 and not table.flags.writeable


def test_division_layout_guards():
    exp7 = basis_state(RegisterLayout((ExponentRegister(6),)), (0,))
    grp7 = basis_state(RegisterLayout((GroupRegister(Z7),)), (1,))
    with pytest.raises(LayoutMismatch):
        div_x_apply(grp7, grp7, 3)
    short = basis_state(RegisterLayout((ExponentRegister(3),)), (0,))
    with pytest.raises(LayoutMismatch):
        div_x_apply(short, grp7, 3)
    with pytest.raises(LayoutMismatch):
        div_x_apply(short, grp7, Z7.inverse(Z7.generator))
    # each input is one register; a joint state is refused
    with pytest.raises(LayoutMismatch):
        div_x_apply(basis_state(run_layout(Z7), (0, 1)), grp7, 3)
    with pytest.raises(NotInGroup):
        div_x_apply(exp7, grp7, 0)


# the one shape a division takes is a lone exponent register and a lone
# group register of the same order; each of these breaks it
WRONG_SHAPES = {
    "a group-register control": lambda: (group_state(Z7, 31), group_state(Z7, 32)),
    "an exponent register of another order": lambda: (exponent_state(7, 33),
                                                      group_state(Z7, 34)),
    "a two-register control": lambda: (random_state(run_layout(Z7), 35),
                                       group_state(Z7, 36)),
    "a two-register group state": lambda: (exponent_state(6, 37),
                                           random_state(run_layout(Z7), 38)),
}


@pytest.mark.parametrize("shape", list(WRONG_SHAPES))
def test_a_division_refuses_any_other_shape_and_writes_nothing(shape):
    a, b = WRONG_SHAPES[shape]()
    marginal = np.zeros(6)
    with pytest.raises(LayoutMismatch, match="lone exponent register"):
        div_x_apply(a, b, 5, qft="forward", marginal=marginal)
    assert not np.any(marginal)
    # the conversion's rows are checked as the division is
    with pytest.raises(LayoutMismatch, match="lone exponent register"):
        transforms._division_rows(a, b, 5)


def test_unitary_check_passes_the_dense_fourier_oracle():
    f = fourier_matrix(5)
    assert np.abs(f @ f.conj().T - np.eye(5)).max() <= 1e-9
    state = basis_state(RegisterLayout((ExponentRegister(5),)), (0,))
    dense = f @ state.amplitudes
    out = qft_apply(state)
    assert out.norm() == pytest.approx(1.0, abs=1e-12)
    assert np.abs(out.amplitudes - dense).max() <= 1e-12
    # the same residual exposes a matrix that is not unitary
    smear = np.ones((5, 5)) / 5
    assert np.abs(smear @ smear.conj().T - np.eye(5)).max() > 1e-9


def oracle_groups(max_order=64):
    """Every cyclic unit group of order <= max_order, then the callback models."""
    units = [validate_group(n, primitive_root(n)) for n in cyclic_moduli(2 * max_order + 2)]
    return [s for s in units if s.order <= max_order] + \
        [cyclic_group(m) for m in range(1, max_order + 1)]


def basis_index_state(layout, index):
    amps = np.zeros(layout.total_dim, dtype=np.complex128)
    amps[index] = 1.0
    return QState(layout, amps)


def assert_matches_table(op, a_layout, spec, table):
    """op(a, b) against the table's relabelling of a x b.

    A generic product puts a distinct amplitude on every basis pair, so an
    exact match pins where each one goes. For small orders every basis pair
    |c>|y> is also checked on its own: those span the joint space, so that
    checks the whole linear map.
    """
    b_layout = RegisterLayout((GroupRegister(spec),))
    a, b = random_state(a_layout, spec.order), random_state(b_layout, spec.order + 1)
    assert np.array_equal(op(a, b).amplitudes, _relabel(_product(a, b), table).amplitudes)
    if spec.order <= 8:
        d0 = a_layout.total_dim
        for c in range(d0):
            for y in range(spec.order):
                got = op(basis_index_state(a_layout, c), basis_index_state(b_layout, y))
                want = basis_index_state(got.layout, table[c + d0 * y])
                assert np.array_equal(got.amplitudes, want.amplitudes)


def test_div_alpha_apply_matches_table_exhaustively():
    # the (group, group) division: div_x_apply on the left register written
    # over exponents, its columns relabelled back to the group's basis
    for spec in oracle_groups():
        layout = RegisterLayout((GroupRegister(spec),))
        for alpha in range(spec.order):
            assert_matches_table(lambda a, b: _div_alpha(a, b, alpha), layout, spec,
                                 div_alpha_permutation(spec, alpha))


def test_div_x_apply_matches_table_exhaustively():
    for spec in oracle_groups():
        layout = RegisterLayout((ExponentRegister(spec.order),))
        for x in spec.elements:
            assert_matches_table(lambda a, b: div_x_apply(a, b, x), layout, spec,
                                 div_x_permutation(spec, x))


def test_power_oracle_is_div_x_by_the_inverse_generator_exhaustively():
    for spec in oracle_groups():
        g_inv = spec.inverse(spec.generator)
        assert_matches_table(lambda a, b: div_x_apply(a, b, g_inv),
                             RegisterLayout((ExponentRegister(spec.order),)),
                             spec, power_oracle_permutation(spec))


# the tests still named for controlled_product, once the division's
# primitive, now check div_x_apply, which took over its body


def test_controlled_product_known_mapping():
    # (n=7, g=3): |1, 2> is row k=1, so 2 / 5 = 2 * 3 = 6
    control = RegisterLayout((ExponentRegister(6),))
    group = RegisterLayout((GroupRegister(Z7),))
    out = div_x_apply(basis_state(control, (1,)), basis_state(group, (2,)), 5)
    assert out.layout == run_layout(Z7)
    assert out.amplitudes[joint_index(run_layout(Z7), (1, 6))] == 1.0
    # row k=0 is left alone whatever x
    a, b = basis_state(control, (0,)), basis_state(group, (5,))
    out = div_x_apply(a, b, 5)
    assert np.array_equal(out.amplitudes, _product(a, b).amplitudes)


def test_identity_step_builds_the_plain_product():
    # register 0 fastest: flat amplitudes are kron(right, left)
    a = random_state(RegisterLayout((ExponentRegister(4),)), 1)
    b = group_state(Z5, 2)
    joint = div_x_apply(a, b, Z5.identity)
    assert joint.layout == run_layout(Z5)
    assert np.array_equal(joint.amplitudes, np.kron(b.amplitudes, a.amplitudes))
    with pytest.raises(LayoutMismatch):
        div_x_apply(joint, b, Z5.identity)


def test_controlled_product_guards():
    a, b = exponent_state(6, 1), group_state(Z7, 1)
    with pytest.raises(NotInGroup):
        div_x_apply(a, b, 0)
    with pytest.raises(NotBijective):
        div_x_apply(a, group_state(collapsed_group(), 2), 5)
    with pytest.raises(LayoutMismatch):
        div_x_apply(a, exponent_state(6, 3), 5)


def collapsed_group():
    """The units mod 7, but every product collapses onto one label."""
    broken = validate_group(7, 3)
    broken._mul = lambda a, b: 1
    return broken


def test_the_conversion_rows_have_the_division_bits():
    # every generator x of every group of order <= 64, as the preparation's
    # conversion divides by g**alpha for a coprime alpha, its left register a
    # group register written over exponents: each block of rows in the
    # walk's order, of any column range, has the bits of those rows of the
    # joint state div_x_apply writes
    for spec in oracle_groups():
        m = spec.order
        chi = group_state(spec, m)
        left = QState(RegisterLayout((ExponentRegister(m),)),
                      group_state(spec, m + 2).amplitudes[spec.power_indices])
        for alpha in (alpha for alpha in range(m) if math.gcd(alpha, m) == 1):
            x = spec.pow(spec.generator, alpha)
            rows = transforms._division_rows(left, chi, x)
            assert rows.layout == run_layout(spec) and rows.shape == (m, m)
            assert sorted(rows.order) == list(range(m))
            want = div_x_apply(left, chi, x).amplitudes.reshape(m, m)[rows.order]
            for lo, hi in ((0, m), (m // 3, m), (0, m - m // 4)):
                for size in (1, 3, 5, m):
                    got = np.full((m, hi - lo), np.nan, dtype=np.complex128)
                    for start in range(0, m, size):
                        rows.write(start, min(start + size, m), lo, hi,
                                   got[start:start + size])
                    assert np.array_equal(got, want[:, lo:hi])


def test_the_conversion_rows_need_a_generator():
    # x = 2 in the units mod 7 has order 3: its division walks two cycles
    with pytest.raises(NotAGenerator, match="2 does not generate"):
        transforms._division_rows(exponent_state(6, 1), group_state(Z7, 2), 2)
    with pytest.raises(NotInGroup):
        transforms._division_rows(exponent_state(6, 1), group_state(Z7, 2), 0)


def conversion(spec, s, survivor):
    """The rows of the preparation's conversion of a survivor measured as s,
    and the uniform left register they divide."""
    m = spec.order
    left = QState(RegisterLayout((ExponentRegister(m),)), np.full(m, m ** -0.5 + 0j))
    x = spec.pow(spec.generator, pow(s, -1, m))
    return transforms._division_rows(left, survivor, x), left


@pytest.mark.parametrize("n, g", [(13, 2), (1009, 11)])
def test_factor_out_of_the_conversion_rows_has_the_bits_of_the_whole_state(
        see_cores, started, n, g):
    # the rows written block by block, in the walk's order, into the row sum
    # and the product check give the register, or the refusal, that the joint
    # state written whole gives with its rows and the survivor taken in that
    # order, on any core count; a survivor that is not the chi state of
    # power s, or holds a NaN, is refused with the same residual
    spec = validate_group(n, g)
    m = spec.order
    chi_s = chi_reference(spec, 5)
    bent = chi_s.amplitudes.copy()
    bent[3] *= 1.001
    poisoned = chi_s.amplitudes.copy()
    poisoned[-2] = np.nan
    for survivor in (chi_s, QState(chi_s.layout, bent), QState(chi_s.layout, poisoned)):
        rows, left = conversion(spec, 5, survivor)
        whole = div_x_apply(left, survivor, spec.pow(spec.generator, pow(5, -1, m)))
        walked = QState(whole.layout, whole.amplitudes.reshape(m, m)[rows.order].reshape(-1))
        try:
            want = qstate.factor_out(walked, 1, QState(survivor.layout,
                                                       survivor.amplitudes[rows.order]))
            want = want.amplitudes
        except NotAProductState as exc:
            want = str(exc)
        for count in (1, 2, 4):
            see_cores(count)
            started.clear()
            try:
                got = qstate.factor_out(rows, 1, survivor).amplitudes
                assert np.array_equal(got, want)
            except NotAProductState as exc:
                assert str(exc) == want
            assert not any(thread.is_alive() for thread in started)
    assert isinstance(want, str) and want.startswith("residual nan ")
    with pytest.raises(LayoutMismatch, match="register 1 alone"):
        qstate.factor_out(rows, 0, left)


@pytest.mark.parametrize("count", [1, 2, 4, 64])
def test_the_conversion_scratch_does_not_grow_with_the_cores(see_cores, count):
    # factor_out of the conversion's rows holds the row sum's scratch, or the
    # product check's blocks with one more share for the written rows,
    # beside which numpy's multiply through the window view holds two
    # buffers of np.getbufsize() values a range, at most READOUT_BLOCK values
    # in all: never a row block per core, nor anything of m * m amplitudes
    see_cores(count)
    spec = validate_group(1451, 2)
    survivor = chi_reference(spec, 3)
    rows, _ = conversion(spec, 3, survivor)
    tracemalloc.start()
    try:
        qstate.factor_out(rows, 1, survivor)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * qstate.READOUT_BLOCK + 2 ** 16, f"peaked at {peak} bytes"


def test_transforms_consume_their_input():
    for layout in (RegisterLayout((ExponentRegister(6), ExponentRegister(7))),
                   RegisterLayout((ExponentRegister(9),))):
        for inverse in (False, True):
            state = random_state(layout, 5)
            buffer = state.amplitudes
            out = qft_apply(state, inverse=inverse)
            assert out is state and np.shares_memory(out.amplitudes, buffer)


def test_divisions_build_a_fresh_state_and_leave_their_inputs_alone():
    exp, grp = exponent_state(6, 6), group_state(Z7, 7)
    for op, a, args in ((div_x_apply, exp, (5,)),
                        (div_x_apply, exp, (Z7.inverse(Z7.generator),)),
                        (div_x_apply, exp, (Z7.pow(Z7.generator, 2),))):
        before = a.amplitudes.copy(), grp.amplitudes.copy()
        out = op(a, grp, *args)
        assert out.amplitudes.flags.c_contiguous and out.amplitudes.flags.writeable
        assert not np.shares_memory(out.amplitudes, a.amplitudes)
        assert not np.shares_memory(out.amplitudes, grp.amplitudes)
        assert np.array_equal(a.amplitudes, before[0])
        assert np.array_equal(grp.amplitudes, before[1])


def test_transforms_copy_a_buffer_they_cannot_overwrite():
    # a strided view or a read-only array is copied once, then transformed
    state = random_state(run_layout(Z7), 8)
    want = qft_apply(state.copy()).amplitudes
    strided = np.repeat(state.amplitudes, 2)[::2]
    assert np.array_equal(qft_apply(QState(state.layout, strided)).amplitudes, want)
    frozen = state.amplitudes.copy()
    frozen.setflags(write=False)
    out = qft_apply(QState(state.layout, frozen))
    assert np.array_equal(out.amplitudes, want)
    assert np.array_equal(frozen, state.amplitudes)
    # the divisions read their inputs only, so read-only ones serve as they are
    a, b = exponent_state(6, 8), group_state(Z7, 9)
    want = div_x_apply(a, b, 3).amplitudes
    for amps in (a.amplitudes, b.amplitudes):
        amps.setflags(write=False)
    assert np.array_equal(div_x_apply(a, b, 3).amplitudes, want)


def test_refused_transforms_leave_their_input_alone():
    a, b = exponent_state(6, 9), group_state(collapsed_group(), 10)
    before = a.amplitudes.copy(), b.amplitudes.copy()
    with pytest.raises(NotBijective):
        div_x_apply(a, b, 5)
    assert np.array_equal(a.amplitudes, before[0])
    assert np.array_equal(b.amplitudes, before[1])
    state = random_state(pair_layout(Z7), 9)
    before = state.amplitudes.copy()
    with pytest.raises(WrongRegisterKind):
        qft_apply(state)
    assert np.array_equal(state.amplitudes, before)


def test_package_exports_only_the_simulation_path():
    removed = ("apply_register_unitary", "NotUnitary", "BasisPermutation",
               "apply_basis_permutation", "measure", "ResourceComparison",
               "controlled_multiply", "tensor", "power_oracle_apply", "div_alpha_apply",
               "controlled_product", "WrongLayout", "_column_masses")
    oracles = {"fourier_matrix", "div_alpha_permutation", "div_x_permutation",
               "power_oracle_permutation"}
    for module in (chi_dlog, qstate, errors, chi_dlog.chi, dlog, transforms):
        assert [name for name in removed if hasattr(module, name)] == []
    assert "measure" not in qstate.__all__
    assert not hasattr(qstate.RegisterLayout, "index_to_label")
    assert "__add__" not in vars(dlog.ResourceLedger)
    # only register 0, the exponent register, is transformed or read out
    for fn in (qft_apply, qstate.marginal_distribution, qstate.collapse):
        assert not any("register" in name for name in inspect.signature(fn).parameters)
    assert [f.name for f in fields(qstate.MeasurementOutcome)] == \
        ["observed", "probability", "post_state"]
    assert [name for name in oracles if hasattr(chi_dlog, name)] == []
    # the cached oracles stay listed here only while the benchmark's tracer
    # reads their cache counters by name
    simulation = {"qft_apply", "div_x_apply"}
    assert set(transforms.__all__) == simulation | oracles
