"""Register layouts, amplitudes, measurement, and the dump format."""

import numpy as np
import pytest

from chi_dlog.errors import (
    ArtifactMismatch,
    BadLabel,
    CapExceeded,
    DegenerateNorm,
    LayoutMismatch,
    NotAProductState,
    NotBijective,
    NotUnitary,
)
from chi_dlog.group import validate_group
from chi_dlog.qstate import (
    DIM_CAP_ENV,
    READOUT_BLOCK,
    BasisPermutation,
    ExponentRegister,
    GroupRegister,
    QState,
    RegisterLayout,
    apply_basis_permutation,
    apply_register_unitary,
    basis_state,
    collapse,
    dump_amplitudes,
    factor_out,
    fidelity,
    marginal_distribution,
    measure,
    parse_amplitudes,
    sample_index,
    tensor,
)

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


def random_unitary(dim, seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def test_layout_dims_and_cap():
    lay = RegisterLayout((ExponentRegister(2), GroupRegister(Z5)))
    assert lay.total_dim == 8
    assert (lay.dim(0), lay.dim(1)) == (2, 4)
    with pytest.raises(LayoutMismatch):
        RegisterLayout(())
    with pytest.raises(LayoutMismatch):
        RegisterLayout((ExponentRegister(2),) * 3)


def test_dim_cap_env(monkeypatch):
    monkeypatch.setenv(DIM_CAP_ENV, "7")
    with pytest.raises(CapExceeded):
        RegisterLayout((ExponentRegister(8),))
    monkeypatch.setenv(DIM_CAP_ENV, "8")
    RegisterLayout((ExponentRegister(8),))


def test_label_index_maps():
    lay = RegisterLayout((ExponentRegister(3), GroupRegister(Z5)))
    assert lay.label_to_index(0, 2) == 2
    assert lay.label_to_index(1, 3) == 2  # elements of Z5* are (1, 2, 3, 4)
    assert lay.index_to_label(1, 2) == 3
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
    assert np.allclose(
        apply_register_unitary(basis_state(exp_layout(2), (0,)), 0, F2).amplitudes,
        np.array([1, 1]) / np.sqrt(2),
    )
    assert np.allclose(
        apply_register_unitary(basis_state(exp_layout(4), (1,)), 0, F4).amplitudes,
        np.array([0.5, 0.5j, -0.5, -0.5j]),
    )


@pytest.mark.parametrize("register_index", [0, 1])
def test_unitary_on_joint_state_matches_kron(register_index):
    lay = RegisterLayout((ExponentRegister(3), GroupRegister(Z5)))
    state = random_state(lay, 11)
    u = random_unitary(lay.dim(register_index), 5)
    if register_index == 0:
        full = np.kron(np.eye(lay.dim(1)), u)
    else:
        full = np.kron(u, np.eye(lay.dim(0)))
    got = apply_register_unitary(state, register_index, u)
    assert np.allclose(got.amplitudes, full @ state.amplitudes, atol=1e-12)


def test_unitary_roundtrip_and_identity():
    lay = RegisterLayout((ExponentRegister(4), GroupRegister(Z5)))
    state = random_state(lay, 3)
    u = random_unitary(4, 8)
    back = apply_register_unitary(apply_register_unitary(state, 0, u), 0, u.conj().T)
    assert np.allclose(back.amplitudes, state.amplitudes, atol=1e-10)
    same = apply_register_unitary(state, 0, np.eye(4))
    assert np.array_equal(same.amplitudes, state.amplitudes)


def test_unitary_validation():
    state = basis_state(exp_layout(2), (1,))
    shear = np.array([[1, 1], [0, 1]], complex)
    with pytest.raises(NotUnitary):
        apply_register_unitary(state, 0, shear, check_unitary=True)
    # unchecked application is allowed to distort the norm
    skewed = apply_register_unitary(state, 0, shear, check_unitary=False)
    assert skewed.norm() != pytest.approx(1.0)
    with pytest.raises(LayoutMismatch):
        apply_register_unitary(state, 0, np.eye(3))
    with pytest.raises(LayoutMismatch):
        apply_register_unitary(state, 1, np.eye(2))


def test_permutation_shift_and_inverse():
    shift = BasisPermutation([(i + 1) % 4 for i in range(4)])
    state = basis_state(exp_layout(4), (0,))
    assert np.argmax(np.abs(apply_basis_permutation(state, shift).amplitudes)) == 1
    rand = random_state(exp_layout(4), 21)
    roundtrip = apply_basis_permutation(apply_basis_permutation(rand, shift), shift.inverse())
    assert np.array_equal(roundtrip.amplitudes, rand.amplitudes)


def test_permutation_preserves_amplitude_multiset():
    rand = random_state(exp_layout(6), 2)
    shuffled = apply_basis_permutation(rand, BasisPermutation([3, 0, 5, 1, 2, 4]))
    assert np.array_equal(np.sort(np.abs(rand.amplitudes)), np.sort(np.abs(shuffled.amplitudes)))


def test_permutation_identity_is_bitwise():
    rand = random_state(exp_layout(5), 4)
    out = apply_basis_permutation(rand, BasisPermutation(range(5)))
    assert np.array_equal(out.amplitudes, rand.amplitudes)


def test_permutation_validation():
    with pytest.raises(NotBijective):
        BasisPermutation([0, 0, 2])
    with pytest.raises(NotBijective):
        BasisPermutation([0, 1, 3])
    with pytest.raises(LayoutMismatch):
        apply_basis_permutation(random_state(exp_layout(3), 0), BasisPermutation([1, 0]))


def bell_state():
    lay = RegisterLayout((ExponentRegister(2), ExponentRegister(2)))
    return QState(lay, np.array([1, 0, 0, 1], complex) / np.sqrt(2))


def test_marginals():
    assert np.allclose(marginal_distribution(basis_state(exp_layout(4), (2,)), 0),
                       [0, 0, 1, 0])
    bell = bell_state()
    assert np.allclose(marginal_distribution(bell, 0), [0.5, 0.5])
    assert np.allclose(marginal_distribution(bell, 1), [0.5, 0.5])


# (d0, d1): a single column, one block, many blocks with a ragged last one,
# blocks that divide d1 exactly, and rows wider than a block's share
@pytest.mark.parametrize("d0,d1", [(1, 1000), (7, 3), (7, 20000), (256, 1024),
                                   (1009, 200)])
def test_blocked_marginal_matches_the_plain_sum(d0, d1):
    assert READOUT_BLOCK == 1 << 16
    state = random_state(RegisterLayout((ExponentRegister(d0), ExponentRegister(d1))), d0)
    dens = (np.abs(state.amplitudes) ** 2).reshape(d1, d0)
    assert np.array_equal(marginal_distribution(state, 0), dens.sum(axis=0))
    assert np.array_equal(marginal_distribution(state, 1), dens.sum(axis=1))


def test_one_register_marginal_is_the_density():
    state = random_state(exp_layout(1009), 4)
    assert np.array_equal(marginal_distribution(state, 0), np.abs(state.amplitudes) ** 2)


def test_collapse():
    # the measured register becomes classical: post_state is the other one
    bell = collapse(bell_state(), 0, 1)
    assert bell.probability == pytest.approx(0.5)
    assert np.allclose(bell.post_state.amplitudes, [0, 1])
    lay = RegisterLayout((ExponentRegister(3), GroupRegister(Z5)))
    state = random_state(lay, 21)
    grid = state.amplitudes.reshape(Z5.order, 3)  # [group index, exponent label]
    out = collapse(state, 0, 2)
    assert out.observed == 2
    assert out.probability == pytest.approx(np.sum(np.abs(grid[:, 2]) ** 2))
    assert out.post_state.layout == RegisterLayout((GroupRegister(Z5),))
    assert np.allclose(out.post_state.amplitudes, grid[:, 2] / np.linalg.norm(grid[:, 2]))
    assert out.post_state.norm() == pytest.approx(1.0, abs=1e-12)
    label = Z5.element(1)
    out = collapse(state, 1, label)
    assert out.observed == label
    assert out.probability == pytest.approx(np.sum(np.abs(grid[1, :]) ** 2))
    assert out.post_state.layout == exp_layout(3)
    assert np.allclose(out.post_state.amplitudes, grid[1, :] / np.linalg.norm(grid[1, :]))
    assert out.post_state.norm() == pytest.approx(1.0, abs=1e-12)
    # a one-register state collapses onto the basis state
    single = collapse(QState(exp_layout(2), np.array([0.6, 0.8j])), 0, 1)
    assert single.probability == pytest.approx(0.64)
    assert np.allclose(single.post_state.amplitudes, [0, 1j])
    with pytest.raises(DegenerateNorm):
        collapse(basis_state(bell_state().layout, (0, 0)), 0, 1)


def test_measure_basis_state_is_certain():
    lay = RegisterLayout((ExponentRegister(3), GroupRegister(Z5)))
    out = measure(basis_state(lay, (2, 4)), 0, np.random.default_rng(0))
    assert out.observed == 2
    assert out.probability == pytest.approx(1.0)


def test_measure_is_seed_deterministic():
    rand = random_state(exp_layout(7), 13)
    a = measure(rand, 0, np.random.default_rng(42))
    b = measure(rand, 0, np.random.default_rng(42))
    assert a.observed == b.observed
    assert np.array_equal(a.post_state.amplitudes, b.post_state.amplitudes)


def test_measure_empirical_frequencies():
    # two-outcome register with 0.3/0.7 weights, binomial 4 sigma band
    lay = exp_layout(2)
    state = QState(lay, np.array([np.sqrt(0.3), np.sqrt(0.7)], complex))
    rng = np.random.default_rng(7)
    draws = 20_000
    ones = sum(measure(state, 0, rng).observed for _ in range(draws))
    sigma = np.sqrt(draws * 0.3 * 0.7)
    assert abs(ones - draws * 0.7) <= 4 * sigma


def test_measure_rejects_corrupted_norm():
    lay = exp_layout(4)
    with pytest.raises(DegenerateNorm):
        measure(QState(lay, np.full(4, 1e-8, complex)), 0)


@pytest.mark.parametrize("register_index", [0, 1])
def test_measure_is_sample_index_over_the_marginal(register_index):
    lay = RegisterLayout((ExponentRegister(6), GroupRegister(Z5)))
    state = random_state(lay, 5)
    probs = marginal_distribution(state, register_index)
    for seed in range(20):
        idx = sample_index(probs, np.random.default_rng(seed))
        out = measure(state, register_index, np.random.default_rng(seed))
        assert out.observed == lay.index_to_label(register_index, idx)
    corrupted = QState(lay, state.amplitudes * 1e-4)
    with pytest.raises(DegenerateNorm):
        measure(corrupted, register_index, 0)
    with pytest.raises(DegenerateNorm):
        sample_index(marginal_distribution(corrupted, register_index), 0)


def test_fidelity():
    a = basis_state(exp_layout(3), (0,))
    b = basis_state(exp_layout(3), (1,))
    assert fidelity(a, a) == pytest.approx(1.0)
    assert fidelity(a, b) == pytest.approx(0.0)
    phased = QState(a.layout, a.amplitudes * np.exp(0.7j))
    assert fidelity(a, phased) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(LayoutMismatch):
        fidelity(a, basis_state(exp_layout(4), (0,)))


def test_tensor_layout_and_order():
    a = random_state(exp_layout(2), 1)
    b = random_state(RegisterLayout((GroupRegister(Z5),)), 2)
    joint = tensor(a, b)
    assert joint.layout.total_dim == 8
    # register 0 fastest: flat amplitudes are kron(right, left)
    assert np.array_equal(joint.amplitudes, np.kron(b.amplitudes, a.amplitudes))
    with pytest.raises(LayoutMismatch):
        tensor(joint, a)


def test_factor_out_recovers_both_registers():
    a = random_state(exp_layout(3), 5)
    b = random_state(RegisterLayout((GroupRegister(Z5),)), 6)
    joint = tensor(a, b)
    left = factor_out(joint, 1, b)
    right = factor_out(joint, 0, a)
    assert fidelity(left, a) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(right, b) == pytest.approx(1.0, abs=1e-12)


def test_factor_out_moves_global_phase_to_remainder():
    a = random_state(exp_layout(3), 9)
    b = random_state(exp_layout(4), 10)
    joint = tensor(a, b)
    phased = QState(joint.layout, joint.amplitudes * np.exp(1.3j))
    left = factor_out(phased, 1, b)
    assert fidelity(left, a) == pytest.approx(1.0, abs=1e-12)
    assert left.norm() == pytest.approx(1.0, abs=1e-12)


def test_factor_out_rejects_entanglement():
    with pytest.raises(NotAProductState):
        factor_out(bell_state(), 0, basis_state(exp_layout(2), (0,)))
    with pytest.raises(LayoutMismatch):
        factor_out(bell_state(), 0, basis_state(exp_layout(3), (0,)))


def test_factor_out_checks_every_row_block():
    # 200 rows of 1009 amplitudes make four row blocks, the last one ragged
    a, b = random_state(exp_layout(1009), 1), random_state(exp_layout(200), 2)
    for flat in (0, 1009 * 100 + 5, 1009 * 200 - 1):
        joint = tensor(a, b)
        joint.amplitudes[flat] += 1e-6
        with pytest.raises(NotAProductState):
            factor_out(joint, 1, b)
        with pytest.raises(NotAProductState):
            factor_out(joint, 0, a)


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
