"""Register layouts, amplitudes, measurement of register 0, the dump format,
and the basis relabelling the verify suites compare the operators against."""

import threading
import tracemalloc

import numpy as np
import pytest

from chi_dlog import qstate
from chi_dlog.errors import (
    ArtifactMismatch,
    BadLabel,
    CapExceeded,
    DegenerateNorm,
    LayoutMismatch,
    NotAProductState,
)
from chi_dlog.group import validate_group
from chi_dlog.qstate import (
    DIM_CAP,
    NORM_TOL,
    READOUT_BLOCK,
    ExponentRegister,
    GroupRegister,
    QState,
    RegisterLayout,
    basis_state,
    collapse,
    dump_amplitudes,
    factor_out,
    fidelity,
    marginal_distribution,
    parse_amplitudes,
    sample_index,
)
from chi_dlog.transforms import qft_apply
from chi_dlog.verify import _product, _relabel

Z5 = validate_group(5, 2)

F2 = np.array([[1, 1], [1, -1]], complex) / np.sqrt(2)
F4 = np.array(
    [[1, 1, 1, 1], [1, 1j, -1, -1j], [1, -1, 1, -1], [1, -1j, -1, 1j]], complex
) / 2.0


def exp_layout(m):
    return RegisterLayout((ExponentRegister(m),))


def random_state(layout, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=layout.total_dim) + 1j * rng.normal(size=layout.total_dim)
    return QState(layout, amps / np.linalg.norm(amps))


def test_layout_dims_and_cap():
    lay = RegisterLayout((ExponentRegister(2), GroupRegister(Z5)))
    assert lay.total_dim == 8
    assert (lay.dim(0), lay.dim(1)) == (2, 4)
    with pytest.raises(LayoutMismatch):
        RegisterLayout(())
    with pytest.raises(LayoutMismatch):
        RegisterLayout((ExponentRegister(2),) * 3)


def test_layout_refuses_over_the_dim_cap():
    # only layouts are built; no state of either size is allocated
    with pytest.raises(CapExceeded, match=f"total dimension {DIM_CAP + 1} exceeds"):
        RegisterLayout((ExponentRegister(DIM_CAP + 1),))
    assert RegisterLayout((ExponentRegister(DIM_CAP),)).total_dim == DIM_CAP


def test_label_index_maps():
    lay = RegisterLayout((ExponentRegister(3), GroupRegister(Z5)))
    assert lay.label_to_index(0, 2) == 2
    assert lay.label_to_index(1, 3) == 2  # elements of Z5* are (1, 2, 3, 4)
    with pytest.raises(BadLabel):
        lay.label_to_index(0, 3)
    with pytest.raises(BadLabel):
        lay.label_to_index(1, 0)


def test_basis_state_joint_index_is_little_endian():
    # register 0 varies fastest: (i0, i1) sits at flat index i0 + d0 * i1
    lay = RegisterLayout((ExponentRegister(2), GroupRegister(Z5)))
    state = basis_state(lay, (1, 2))
    expected = np.zeros(8, complex)
    expected[1 + 2 * 1] = 1.0
    assert np.array_equal(state.amplitudes, expected)


def test_state_norm_and_copy():
    state = random_state(exp_layout(6), 0)
    assert state.norm() == pytest.approx(1.0, abs=1e-12)
    dup = state.copy()
    dup.amplitudes[0] = 99.0
    assert state.amplitudes[0] != 99.0


def test_unitary_known_columns():
    # column k of F is the forward transform of the basis state |k>
    for f in (F2, F4):
        for k in range(len(f)):
            out = qft_apply(basis_state(exp_layout(len(f)), (k,)))
            assert np.allclose(out.amplitudes, f[:, k])


def test_permutation_shift_and_inverse():
    shift = np.array([(i + 1) % 4 for i in range(4)])
    state = basis_state(exp_layout(4), (0,))
    assert np.argmax(np.abs(_relabel(state, shift).amplitudes)) == 1
    rand = random_state(exp_layout(4), 21)
    roundtrip = _relabel(_relabel(rand, shift), np.argsort(shift))
    assert np.array_equal(roundtrip.amplitudes, rand.amplitudes)


def test_permutation_preserves_amplitude_multiset():
    rand = random_state(exp_layout(6), 2)
    shuffled = _relabel(rand, np.array([3, 0, 5, 1, 2, 4]))
    assert np.array_equal(np.sort(np.abs(rand.amplitudes)), np.sort(np.abs(shuffled.amplitudes)))


def test_permutation_identity_is_bitwise():
    rand = random_state(exp_layout(5), 4)
    out = _relabel(rand, np.arange(5))
    assert np.array_equal(out.amplitudes, rand.amplitudes)


def test_permutation_validation():
    # an index no entry reaches stays NaN, so a table that repeats an image
    # never matches an operator's output; a short or out-of-range table raises
    rand = random_state(exp_layout(3), 0)
    assert np.isnan(_relabel(rand, np.array([0, 0, 2])).amplitudes[1])
    with pytest.raises(IndexError):
        _relabel(rand, np.array([0, 1, 3]))
    with pytest.raises(ValueError):
        _relabel(rand, np.array([1, 0]))


def bell_state():
    lay = RegisterLayout((ExponentRegister(2), ExponentRegister(2)))
    return QState(lay, np.array([1, 0, 0, 1], complex) / np.sqrt(2))


def test_marginals():
    assert np.allclose(marginal_distribution(basis_state(exp_layout(4), (2,))),
                       [0, 0, 1, 0])
    assert np.allclose(marginal_distribution(bell_state()), [0.5, 0.5])


# (d0, d1): a single column, one block, many blocks with a ragged last one,
# blocks that divide d1 exactly, and rows wider than a block's share
@pytest.mark.parametrize("d0,d1", [(1, 1000), (7, 3), (7, 20000), (256, 1024),
                                   (1009, 200)])
def test_blocked_marginal_matches_the_plain_sum(d0, d1):
    assert READOUT_BLOCK == 1 << 16
    state = random_state(RegisterLayout((ExponentRegister(d0), ExponentRegister(d1))), d0)
    dens = (np.abs(state.amplitudes) ** 2).reshape(d1, d0)
    # numpy sums a lone column pairwise; the marginal adds it in order
    plain = np.cumsum(dens[:, 0])[-1:] if d0 == 1 else dens.sum(axis=0)
    assert np.array_equal(marginal_distribution(state), plain)


# a lone column (numpy would add it pairwise), every other column, a ragged
# range and all of them, on grids under and over the split threshold
@pytest.mark.parametrize("d0,d1", [(7, 20000), (1008, 1008), (1009, 300)])
@pytest.mark.parametrize("count", [1, 2, 3, 8])
def test_column_masses_have_the_marginals_bits(see_cores, d0, d1, count):
    see_cores(count)
    state = random_state(RegisterLayout((ExponentRegister(d0), ExponentRegister(d1))), d0)
    whole = marginal_distribution(state)
    for columns in (slice(3, 4), slice(d0 - 1, d0), slice(1, d0, 2), slice(0, d0, 2),
                    slice(2, d0 - 1, 3), slice(0, d0)):
        assert np.array_equal(marginal_distribution(state, columns), whole[columns])


def test_one_register_marginal_is_the_density():
    state = random_state(exp_layout(1009), 4)
    assert np.array_equal(marginal_distribution(state), np.abs(state.amplitudes) ** 2)


def test_collapse():
    # the measured register becomes classical: post_state is register 1 alone
    bell = collapse(bell_state(), 1)
    assert bell.probability == pytest.approx(0.5)
    assert np.allclose(bell.post_state.amplitudes, [0, 1])
    lay = RegisterLayout((ExponentRegister(3), GroupRegister(Z5)))
    state = random_state(lay, 21)
    grid = state.amplitudes.reshape(Z5.order, 3)  # [group index, exponent label]
    out = collapse(state, 2)
    assert out.observed == 2
    assert out.probability == pytest.approx(np.sum(np.abs(grid[:, 2]) ** 2))
    assert out.post_state.layout == RegisterLayout((GroupRegister(Z5),))
    assert np.allclose(out.post_state.amplitudes, grid[:, 2] / np.linalg.norm(grid[:, 2]))
    assert out.post_state.norm() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DegenerateNorm):
        collapse(basis_state(bell_state().layout, (0, 0)), 1)
    # an index outside register 0 is refused, negative ones included
    for index in (3, -1, 1.0):
        with pytest.raises(BadLabel):
            collapse(state, index)
    with pytest.raises(LayoutMismatch):
        collapse(QState(exp_layout(2), np.array([0.6, 0.8j])), 1)


def read_out(state, rng):
    """The readout of run_dlog and prepare_chi: draw from the marginal, collapse."""
    return collapse(state, sample_index(marginal_distribution(state), rng))


def test_measure_basis_state_is_certain():
    lay = RegisterLayout((ExponentRegister(3), GroupRegister(Z5)))
    out = read_out(basis_state(lay, (2, 4)), np.random.default_rng(0))
    assert out.observed == 2
    assert out.probability == pytest.approx(1.0)


def test_measure_is_seed_deterministic():
    rand = random_state(RegisterLayout((ExponentRegister(7), GroupRegister(Z5))), 13)
    a = read_out(rand, np.random.default_rng(42))
    b = read_out(rand, np.random.default_rng(42))
    assert a.observed == b.observed
    assert np.array_equal(a.post_state.amplitudes, b.post_state.amplitudes)


def test_measure_empirical_frequencies():
    # two-outcome register with 0.3/0.7 weights, binomial 4 sigma band
    lay = exp_layout(2)
    probs = marginal_distribution(QState(lay, np.array([np.sqrt(0.3), np.sqrt(0.7)], complex)))
    rng = np.random.default_rng(7)
    draws = 20_000
    ones = sum(sample_index(probs, rng) for _ in range(draws))
    sigma = np.sqrt(draws * 0.3 * 0.7)
    assert abs(ones - draws * 0.7) <= 4 * sigma


def test_measure_rejects_corrupted_norm():
    lay = exp_layout(4)
    with pytest.raises(DegenerateNorm):
        sample_index(marginal_distribution(QState(lay, np.full(4, 1e-8, complex))))


def test_sample_index_refuses_a_nan_mass():
    # NaN compares False with any bound, so only a check that the total is in
    # range refuses it
    with pytest.raises(DegenerateNorm):
        sample_index(np.array([0.5, np.nan, 0.5]), 0)


def test_sample_index_refuses_an_infinite_mass():
    with pytest.raises(DegenerateNorm):
        sample_index(np.array([np.inf, 0.0, 0.0]), 0)


def test_collapse_refuses_a_nan_column():
    state = bell_state()
    state.amplitudes[2] = np.nan
    with pytest.raises(DegenerateNorm):
        collapse(state, 0)


def test_collapse_refuses_an_infinite_column():
    state = bell_state()
    state.amplitudes[2] = np.inf
    with pytest.raises(DegenerateNorm):
        collapse(state, 0)


def test_measure_is_sample_index_over_the_marginal():
    lay = RegisterLayout((ExponentRegister(6), GroupRegister(Z5)))
    state = random_state(lay, 5)
    grid = state.amplitudes.reshape(Z5.order, 6)
    probs = marginal_distribution(state)
    for seed in range(20):
        idx = sample_index(probs, np.random.default_rng(seed))
        out = read_out(state, np.random.default_rng(seed))
        assert out.observed == idx
        assert out.probability == pytest.approx(probs[idx], abs=1e-15)
        assert np.allclose(out.post_state.amplitudes, grid[:, idx] / np.sqrt(probs[idx]))
    corrupted = QState(lay, state.amplitudes * 1e-4)
    with pytest.raises(DegenerateNorm):
        read_out(corrupted, 0)


def test_fidelity():
    a = basis_state(exp_layout(3), (0,))
    b = basis_state(exp_layout(3), (1,))
    assert fidelity(a, a) == pytest.approx(1.0)
    assert fidelity(a, b) == pytest.approx(0.0)
    phased = QState(a.layout, a.amplitudes * np.exp(0.7j))
    assert fidelity(a, phased) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(LayoutMismatch):
        fidelity(a, basis_state(exp_layout(4), (0,)))


def test_factor_out_recovers_both_registers():
    a = random_state(exp_layout(3), 5)
    b = random_state(RegisterLayout((GroupRegister(Z5),)), 6)
    joint = _product(a, b)
    left = factor_out(joint, 1, b)
    right = factor_out(joint, 0, a)
    assert fidelity(left, a) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(right, b) == pytest.approx(1.0, abs=1e-12)


def test_factor_out_moves_global_phase_to_remainder():
    a = random_state(exp_layout(3), 9)
    b = random_state(exp_layout(4), 10)
    joint = _product(a, b)
    phased = QState(joint.layout, joint.amplitudes * np.exp(1.3j))
    left = factor_out(phased, 1, b)
    assert fidelity(left, a) == pytest.approx(1.0, abs=1e-12)
    assert left.norm() == pytest.approx(1.0, abs=1e-12)


def test_factor_out_rejects_entanglement():
    with pytest.raises(NotAProductState):
        factor_out(bell_state(), 0, basis_state(exp_layout(2), (0,)))
    with pytest.raises(LayoutMismatch):
        factor_out(bell_state(), 0, basis_state(exp_layout(3), (0,)))


# (d0, d1) as for the marginal: one block, many blocks with a ragged last one,
# blocks that divide d1 exactly, and rows wider than a block's share
@pytest.mark.parametrize("d0,d1", [(7, 3), (7, 20000), (256, 1024), (1009, 200)])
def test_factor_out_sums_the_rows_in_order(d0, d1):
    # splitting off register 1 is the plain sum of the weighted rows, bit for
    # bit, whatever the BLAS thread count; numpy's complex product is not
    # bitwise commutative, so the rows are the left operand, as in factor_out
    a, b = random_state(exp_layout(d0), d0), random_state(exp_layout(d1), d1)
    joint = _product(a, b)
    weighted = joint.amplitudes.reshape(d1, d0) * b.amplitudes.conj()[:, None]
    left = factor_out(joint, 1, b)
    assert np.array_equal(left.amplitudes, weighted.sum(axis=0))
    # register 0 is split off by the same running sum over the grid's columns
    columns = np.ascontiguousarray(joint.amplitudes.reshape(d1, d0).T)
    right = factor_out(joint, 0, a)
    assert np.array_equal(right.amplitudes,
                          (columns * a.amplitudes.conj()[:, None]).sum(axis=0))


def test_factor_out_checks_every_row_block():
    # 200 rows of 1009 amplitudes make four row blocks, the last one ragged
    a, b = random_state(exp_layout(1009), 1), random_state(exp_layout(200), 2)
    for flat in (0, 1009 * 100 + 5, 1009 * 200 - 1):
        joint = _product(a, b)
        joint.amplitudes[flat] += 1e-6
        with pytest.raises(NotAProductState):
            factor_out(joint, 1, b)
        with pytest.raises(NotAProductState):
            factor_out(joint, 0, a)


def deviated(d, d0=48, d1=64, flat=17 * 48 + 5):
    """A product state with one amplitude moved by d, its register 1, and the
    residual factor_out must report on splitting that register off, taken
    with a magnitude per amplitude."""
    a, b = random_state(exp_layout(d0), d0), random_state(exp_layout(d1), d1)
    joint = _product(a, b)
    joint.amplitudes[flat] += d
    grid = joint.amplitudes.reshape(d1, d0)
    with np.errstate(invalid="ignore"):  # an infinite d makes NaNs
        remaining = (grid * b.amplitudes.conj()[:, None]).sum(axis=0)
        exact = np.abs(np.multiply.outer(b.amplitudes, remaining) - grid).max()
    return joint, b, float(exact)


def test_a_deviation_past_the_tolerance_in_both_parts_is_refused_with_its_residual():
    # 2 * 0.75 * NORM_TOL fails the screen, and |d| is 1.06 * NORM_TOL: the
    # block takes its magnitudes, and the message has the exact maximum
    joint, b, exact = deviated(0.75 * NORM_TOL * (1 + 1j))
    assert exact > NORM_TOL
    with pytest.raises(NotAProductState,
                       match=f"^residual {exact:.3e} after projecting register 1$"):
        factor_out(joint, 1, b)
    grid = joint.amplitudes.reshape(64, 48)
    remaining = (grid * b.amplitudes.conj()[:, None]).sum(axis=0)
    assert qstate._residual(b.amplitudes, remaining, grid) == exact


@pytest.mark.parametrize("d", [0.99 * NORM_TOL, -0.99j * NORM_TOL, 0.4 * NORM_TOL * (1 - 1j)])
def test_a_deviation_within_the_tolerance_passes(d):
    # 0.99 in one part alone fails the screen and passes on its magnitude;
    # 0.4 in both passes the screen with no magnitude taken
    joint, b, exact = deviated(d)
    assert exact <= NORM_TOL
    factor_out(joint, 1, b)


@pytest.mark.parametrize("d", [complex(np.nan, 0), complex(0, np.nan), complex(np.inf, 0),
                               complex(0, -np.inf)])
def test_a_nan_or_infinite_amplitude_fails_the_residual(d):
    joint, b, _ = deviated(d)
    # an infinite amplitude makes NaNs in the projection; pytest makes any
    # numpy warning an error, so the refusal must come with none
    with pytest.raises(NotAProductState, match="^residual (nan|inf) "):
        factor_out(joint, 1, b)


@pytest.mark.parametrize("d", [complex(np.nan, 0), complex(np.inf, 0), complex(0, -np.inf)])
def test_a_nan_or_infinite_amplitude_fails_a_split_residual(see_cores, started, d):
    # the amplitude sits in the second core's rows and columns, so the NaNs
    # are made on a thread, which must run in factor_out's errstate. Both
    # registers are real, so the weighted row sum makes NaNs too (inf * 0)
    see_cores(2)
    assert 512 * 512 >= qstate._SPLIT_MIN
    a = QState(exp_layout(512), np.full(512, 512 ** -0.5, dtype=np.complex128))
    real = np.random.default_rng(512).normal(size=512) + 0j
    b = QState(exp_layout(512), real / np.linalg.norm(real))
    joint = _product(a, b)
    joint.amplitudes[300 * 512 + 400] += d
    for register, expected in ((1, b), (0, a)):
        started.clear()
        with pytest.raises(NotAProductState,
                           match=f"^residual (nan|inf) after projecting register {register}$"):
            factor_out(joint, register, expected)
        assert started and not any(thread.is_alive() for thread in started)


# at or above the split threshold: squares whose rows and columns split
# evenly or not over 2, 3 and 4 cores, and a tall grid too narrow to split
# by columns, whose residual still splits by rows
@pytest.mark.parametrize("d0,d1", [(512, 512), (1008, 1008), (1009, 1009), (8, 40000)])
def test_split_passes_are_bit_identical_on_any_core_count(see_cores, started, d0, d1):
    assert d0 * d1 >= qstate._SPLIT_MIN
    a, b = random_state(exp_layout(d0), d0), random_state(exp_layout(d1), d1)
    joint = _product(a, b)
    noisy = random_state(joint.layout, 3)
    grid = noisy.amplitudes.reshape(d1, d0)
    results = {}
    for count in (1, 2, 3, 4):
        see_cores(count)
        started.clear()
        results[count] = (marginal_distribution(noisy),
                          factor_out(joint, 1, b).amplitudes,
                          factor_out(joint, 0, a).amplitudes,
                          qstate._residual(b.amplitudes, a.amplitudes, grid))
        # the row sums split only where every range can be 64 columns wide (d0
        # of them for the marginal and register 1's, d1 for register 0's);
        # factor_out's residuals and the one called here always split
        wide = 2 * (d0 >= 64 * count) + (d1 >= 64 * count)
        assert len(started) == (count - 1) * (wide + 3)
        assert not any(thread.is_alive() for thread in started)
    # the one-core passes are the whole-array sums, row after row
    weighted = joint.amplitudes.reshape(d1, d0) * b.amplitudes.conj()[:, None]
    assert np.array_equal(results[1][0], (np.abs(grid) ** 2).sum(axis=0))
    assert np.array_equal(results[1][1], weighted.sum(axis=0))
    columns = np.ascontiguousarray(joint.amplitudes.reshape(d1, d0).T)
    assert np.array_equal(results[1][2], (columns * a.amplitudes.conj()[:, None]).sum(axis=0))
    for count in (2, 3, 4):
        for got, want in zip(results[count], results[1]):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("count", [1, 2, 3, 4, 8, 64])
def test_no_column_range_is_narrower_than_its_floor(see_cores, count):
    see_cores(count)
    for d0 in (1, 3, 63, 64, 127, 128, 200, 1009):
        cuts = qstate._cuts(d0, qstate._SPLIT_MIN, qstate._COLUMNS_MIN)
        widths = np.diff(cuts)
        assert cuts[0] == 0 and cuts[-1] == d0
        assert len(widths) == max(1, min(count, d0 // qstate._COLUMNS_MIN))
        assert len(widths) == 1 or widths.min() >= qstate._COLUMNS_MIN


@pytest.mark.parametrize("count", [1, 2, 3, 4])
def test_a_nan_in_the_last_part_fails_factor_out(see_cores, count):
    see_cores(count)
    a, b = random_state(exp_layout(1008), 1), random_state(exp_layout(1008), 2)
    joint = _product(a, b)
    joint.amplitudes[-5] = np.nan  # the last row, which the last part checks
    with pytest.raises(NotAProductState):
        factor_out(joint, 1, b)


@pytest.mark.parametrize("count", [1, 2, 4, 64])
def test_the_residual_scratch_does_not_grow_with_the_cores(see_cores, started, count):
    # rows of 1450 amplitudes: at most READOUT_BLOCK // (2 * np.getbufsize()) = 4
    # ranges and the row tile they share hold one block of complex and one of
    # float values, and numpy holds no buffer of its own beside them
    see_cores(count)
    d = 1450
    a, b = random_state(exp_layout(d), 1), random_state(exp_layout(d), 2)
    grid = _product(a, b).amplitudes.reshape(d, d)
    tracemalloc.start()
    try:
        residual = qstate._residual(b.amplitudes, a.amplitudes, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert residual <= qstate.NORM_TOL
    assert len(started) == min(count, qstate.READOUT_BLOCK // (2 * np.getbufsize())) - 1
    assert peak <= 24 * qstate.READOUT_BLOCK + 2 ** 16, f"peaked at {peak} bytes"


def test_the_row_sum_scratch_does_not_grow_with_the_cores(see_cores, started):
    # numpy's call over a range's strided column block holds buffers of its
    # own, so however many cores there are the row sum cuts at most
    # READOUT_BLOCK // (2 * np.getbufsize()) column ranges: with 64 cores and
    # rows of 1450, 4 ranges rather than 1450 // 64 = 22
    d = 1450
    joint = random_state(RegisterLayout((ExponentRegister(d), ExponentRegister(d))), 3)
    see_cores(1)
    want = marginal_distribution(joint)
    see_cores(64)
    started.clear()
    tracemalloc.start()
    try:
        got = marginal_distribution(joint)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    assert len(started) == qstate.READOUT_BLOCK // (2 * np.getbufsize()) - 1 == 3
    # the float scratch and total, READOUT_BLOCK + 2 * d values, and the
    # ranges' buffers, measured at 128 KiB a range: 0.77-0.88 MiB here, and
    # 1.33-1.42 MiB with 22 ranges
    assert peak <= 8 * (qstate.READOUT_BLOCK + 2 * d) + 2 ** 19 + 2 ** 16, \
        f"peaked at {peak} bytes"


class PartFailed(Exception):
    pass


SPLIT_PASSES = {
    "marginal": lambda joint, a, b: marginal_distribution(joint),
    "factor-out": lambda joint, a, b: factor_out(joint, 1, b),
    "residual": lambda joint, a, b: qstate._residual(
        b.amplitudes, a.amplitudes, joint.amplitudes.reshape(512, 512)),
}


@pytest.mark.parametrize("failing", ["worker", "caller"])
@pytest.mark.parametrize("name", SPLIT_PASSES)
def test_a_failing_part_of_a_split_pass_raises_in_the_caller(
        monkeypatch, see_cores, started, name, failing):
    # as for the split Fourier transform: the parts on other threads, or the
    # caller's, raise; the caller sees the exception once every thread is joined
    see_cores(4)
    a, b = random_state(exp_layout(512), 1), random_state(exp_layout(512), 2)
    joint = _product(a, b)
    real, caller = qstate._over_cores, threading.get_ident()

    def over_cores(cuts, work):
        def part(index, lo, hi):
            if (threading.get_ident() == caller) == (failing == "caller"):
                raise PartFailed(failing)
            work(index, lo, hi)
        real(cuts, part)
    monkeypatch.setattr(qstate, "_over_cores", over_cores)
    before = threading.active_count()
    with pytest.raises(PartFailed, match=failing):
        SPLIT_PASSES[name](joint, a, b)
    assert len(started) == 3
    assert not any(thread.is_alive() for thread in started)
    assert threading.active_count() == before


def test_dump_format_and_roundtrip():
    assert dump_amplitudes(basis_state(exp_layout(2), (1,))) == "0 0 0\n1 1 0\n"
    lay = RegisterLayout((ExponentRegister(3), GroupRegister(Z5)))
    state = random_state(lay, 17)
    back = parse_amplitudes(dump_amplitudes(state), lay)
    # 17 significant digits reproduce float64 exactly
    assert np.array_equal(back.amplitudes, state.amplitudes)


@pytest.mark.parametrize(
    "text",
    [
        "0 1 0\n",  # missing index
        "0 1 0\n1 0 0\n2 0 0\n",  # extra index
        "0 1 0\n0 0 0\n",  # duplicate index
        "0 1 0\n1 zero 0\n",  # not a float
        "0 1 0\n1 nan 0\n",  # not finite
        "0 1\n1 0 0\n",  # wrong field count
    ],
)
def test_parse_rejects_malformed_dumps(text):
    with pytest.raises(ArtifactMismatch):
        parse_amplitudes(text, exp_layout(2))


# The table below runs on a 12-amplitude dump, so that "1_0" names index 10.
# Line k + 1 of the dump holds index k.
TABLE_STATE = random_state(exp_layout(12), 23)
TABLE_LINES = dump_amplitudes(TABLE_STATE).splitlines()


def _edit(*changes):
    """The table dump with lines replaced: (1-based line, new text or None to drop)."""
    lines = list(TABLE_LINES)
    for lineno, text in sorted(changes, reverse=True):
        if text is None:
            del lines[lineno - 1]
        else:
            lines[lineno - 1] = text
    return "\n".join(lines) + "\n"


def _values(lineno):
    """The 're im' fields of a table line."""
    return TABLE_LINES[lineno - 1].split(maxsplit=1)[1]


_SHUFFLED = [TABLE_LINES[k] for k in np.random.default_rng(5).permutation(12)]

# (text, None when the dump is accepted, else the start of the message:
# "line N: ..." for the first offending line in file order, "dump holds ..."
# when every line passes but indices are missing)
PARSE_TABLE = {
    "blank-and-whitespace-lines": (
        "\n" + "\n   \n".join(TABLE_LINES) + "\n\t \n\n", None),
    "crlf": ("\r\n".join(TABLE_LINES) + "\r\n", None),
    "shuffled": ("\n".join(_SHUFFLED) + "\n", None),
    "index-plus-sign": (_edit((2, f"+1 {_values(2)}")), None),
    "index-underscore": (_edit((11, f"1_0 {_values(11)}")), None),
    "index-float-syntax": (_edit((2, f"1.0 {_values(2)}")), "line 2: unparseable"),
    "index-hex": (_edit((2, f"0x1 {_values(2)}")), "line 2: unparseable"),
    "index-negative": (_edit((2, f"-1 {_values(2)}")), "line 2: index -1 out of range"),
    "index-expression": (_edit((2, f"10**30 {_values(2)}")), "line 2: unparseable"),
    "index-beyond-int64": (_edit((2, f"{10 ** 30} {_values(2)}")),
                           f"line 2: index {10 ** 30} out of range"),
    "value-nan": (_edit((4, "3 nan 0")), "line 4: non-finite"),
    "value-inf": (_edit((4, "3 0 inf")), "line 4: non-finite"),
    "value-minus-inf": (_edit((4, "3 -inf 0")), "line 4: non-finite"),
    "value-overflows": (_edit((4, "3 1e999 0")), "line 4: non-finite"),
    "value-not-a-float": (_edit((4, "3 0 zero")), "line 4: unparseable"),
    "two-fields": (_edit((5, "4 0")), "line 5: expected 'index re im'"),
    "four-fields": (_edit((5, "4 0 0 0")), "line 5: expected 'index re im'"),
    # the two lines hold six tokens between them, as two good lines would
    "balanced-misshapen": (_edit((5, "4 0"), (6, "5 0 0 0")),
                           "line 5: expected 'index re im'"),
    # read as triples, these six tokens are the distinct indices 4 and 5
    "balanced-misshapen-realigned": (_edit((5, "4 0"), (6, "0 5 0 0")),
                                     "line 5: expected 'index re im'"),
    "missing-index": (_edit((8, None)), "dump holds 11 amplitudes, layout needs 12"),
    "extra-index": (_edit() + "12 0 0\n", "line 13: index 12 out of range"),
    "duplicate-index": (_edit() + TABLE_LINES[3] + "\n", "line 13: duplicate index 3"),
    # the copy comes first in file order, so the original is the second occurrence
    "duplicate-before-original": (_edit((2, TABLE_LINES[9])) + TABLE_LINES[1] + "\n",
                                  "line 10: duplicate index 9"),
    "empty-body": ("", "dump holds 0 amplitudes, layout needs 12"),
    "misshapen-before-non-finite": (_edit((3, "2 0"), (6, "5 nan 0")),
                                    "line 3: expected 'index re im'"),
    "non-finite-before-misshapen": (_edit((3, "2 nan 0"), (6, "5 0")),
                                    "line 3: non-finite"),
    "out-of-range-before-unparseable": (_edit((2, "12 0 0"), (4, "x 0 0")),
                                        "line 2: index 12 out of range"),
    "unparseable-before-out-of-range": (_edit((2, "0x1 0 0"), (4, "-3 0 0")),
                                        "line 2: unparseable"),
    "duplicate-before-unparseable": (_edit((3, TABLE_LINES[0]), (6, "5 zero 0")),
                                     "line 3: duplicate index 0"),
    "out-of-range-before-duplicate": (_edit((3, "99 0 0"), (6, TABLE_LINES[0])),
                                      "line 3: index 99 out of range"),
}


@pytest.mark.parametrize("text, refusal", PARSE_TABLE.values(), ids=PARSE_TABLE.keys())
def test_parse_accepts_and_refuses_exactly_the_format(text, refusal):
    if refusal is None:
        back = parse_amplitudes(text, exp_layout(12))
        assert back.amplitudes.tobytes() == TABLE_STATE.amplitudes.tobytes()
    else:
        with pytest.raises(ArtifactMismatch) as info:
            parse_amplitudes(text, exp_layout(12))
        assert str(info.value).startswith(refusal)
