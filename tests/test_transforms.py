"""The FFT and the controlled-multiply operators, against the dense Fourier
matrix and the three reference permutation tables, and those oracles against
direct recomputation."""

import numpy as np
import pytest

from chi_dlog.errors import (
    NotBijective,
    NotInGroup,
    NotUnitary,
    WrongLayout,
    WrongRegisterKind,
)
from chi_dlog.group import cyclic_group, cyclic_moduli, primitive_root, validate_group
from chi_dlog.qstate import (
    ExponentRegister,
    GroupRegister,
    QState,
    RegisterLayout,
    apply_basis_permutation,
    apply_register_unitary,
    basis_state,
)
from chi_dlog.transforms import (
    controlled_multiply,
    div_alpha_apply,
    div_alpha_permutation,
    div_x_apply,
    div_x_permutation,
    fourier_matrix,
    power_oracle_apply,
    power_oracle_permutation,
    qft_apply,
)

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
    back = qft_apply(qft_apply(state.copy(), 0), 0, inverse=True)
    assert np.allclose(back.amplitudes, state.amplitudes, atol=1e-12)


@pytest.mark.parametrize("register_index,dims", [(0, (9, 4)), (1, (3, 16))])
def test_qft_fft_path_matches_dense(register_index, dims):
    lay = RegisterLayout((ExponentRegister(dims[0]), ExponentRegister(dims[1])))
    state = random_state(lay, 23)
    for inverse in (False, True):
        dense = apply_register_unitary(
            state, register_index, fourier_matrix(dims[register_index], inverse))
        fast = qft_apply(state, register_index, inverse=inverse)
        assert np.abs(dense.amplitudes - fast.amplitudes).max() <= 1e-9


def test_qft_fft_path_single_register():
    # 1, primes (Bluestein) and composites
    for m in (1, 2, 7, 12, 25, 61, 64):
        state = random_state(RegisterLayout((ExponentRegister(m),)), m)
        for inverse in (False, True):
            dense = fourier_matrix(m, inverse) @ state.amplitudes
            fast = qft_apply(state, 0, inverse=inverse)
            assert np.abs(dense - fast.amplitudes).max() <= 1e-9


def test_qft_register_kind_guard():
    state = basis_state(run_layout(Z7), (0, 1))
    with pytest.raises(WrongRegisterKind):
        qft_apply(state, 1)
    with pytest.raises(WrongLayout):
        qft_apply(state, 2)


def joint_index(layout, labels):
    i0 = layout.label_to_index(0, labels[0])
    i1 = layout.label_to_index(1, labels[1])
    return i0 + layout.dim(0) * i1


def test_div_alpha_known_mapping():
    # alpha=1 sends |3, 6> to |3, 6 * 3^-1> = |3, 2> in the units mod 7
    lay = pair_layout(Z7)
    table = div_alpha_permutation(Z7, 1).table
    assert table[joint_index(lay, (3, 6))] == joint_index(lay, (3, 2))


def test_div_alpha_exhaustive_against_group_ops():
    for spec in (Z7, validate_group(9, 2), cyclic_group(8)):
        lay = pair_layout(spec)
        for alpha in range(spec.order):
            table = div_alpha_permutation(spec, alpha).table
            for x in spec.elements:
                for y in spec.elements:
                    target = spec.mul(y, spec.pow(x, -alpha))
                    assert table[joint_index(lay, (x, y))] == joint_index(lay, (x, target))


def test_div_alpha_zero_is_identity():
    state = random_state(pair_layout(Z7), 3)
    out = div_alpha_apply(state.copy(), 0)
    assert np.array_equal(out.amplitudes, state.amplitudes)


def test_div_alpha_tables_compose_and_invert():
    m = Z7.order
    for a in range(m):
        for b in range(m):
            composed = div_alpha_permutation(Z7, b).table[div_alpha_permutation(Z7, a).table]
            assert np.array_equal(composed, div_alpha_permutation(Z7, (a + b) % m).table)
    for a in range(m):
        undo = div_alpha_permutation(Z7, m - a).table[div_alpha_permutation(Z7, a).table]
        assert np.array_equal(undo, np.arange(m * m))


def test_div_x_known_mapping():
    # x=4 in the units mod 5: |3, 2> picks up 4^-3 = 4, landing on |3, 3>
    lay = run_layout(Z5)
    table = div_x_permutation(Z5, 4).table
    assert table[joint_index(lay, (3, 2))] == joint_index(lay, (3, 3))


def test_div_x_exhaustive_against_group_ops():
    for spec in (Z5, Z7, cyclic_group(6)):
        lay = run_layout(spec)
        for x in spec.elements:
            table = div_x_permutation(spec, x).table
            for a in range(spec.order):
                for y in spec.elements:
                    target = spec.mul(y, spec.pow(x, -a))
                    assert table[joint_index(lay, (a, y))] == joint_index(lay, (a, target))


def test_div_x_identity_element_is_identity_map():
    state = random_state(run_layout(Z7), 6)
    out = div_x_apply(state.copy(), 1)
    assert np.array_equal(out.amplitudes, state.amplitudes)


def test_power_oracle_known_mapping():
    # (n=5, g=2): |3, 2> loads 2 * 2^3 = 16 = 1, landing on |3, 1>
    lay = run_layout(Z5)
    table = power_oracle_permutation(Z5).table
    assert table[joint_index(lay, (3, 2))] == joint_index(lay, (3, 1))
    assert table[joint_index(lay, (0, 1))] == joint_index(lay, (0, 1))


def test_power_oracle_exhaustive_against_group_ops():
    for spec in (Z5, Z7, validate_group(13, 2), cyclic_group(9)):
        lay = run_layout(spec)
        table = power_oracle_permutation(spec).table
        for a in range(spec.order):
            for y in spec.elements:
                target = spec.mul(y, spec.pow(spec.generator, a))
                assert table[joint_index(lay, (a, y))] == joint_index(lay, (a, target))


def test_permutation_tables_are_bijections():
    for spec in (Z5, Z7, cyclic_group(10)):
        m = spec.order
        tables = [power_oracle_permutation(spec).table]
        tables += [div_alpha_permutation(spec, a).table for a in range(m)]
        tables += [div_x_permutation(spec, x).table for x in spec.elements]
        for table in tables:
            assert np.array_equal(np.sort(table), np.arange(m * m))


def test_division_layout_guards():
    with pytest.raises(WrongLayout):
        div_alpha_apply(basis_state(run_layout(Z7), (0, 1)), 1)
    with pytest.raises(WrongLayout):
        div_x_apply(basis_state(pair_layout(Z7), (1, 1)), 3)
    mismatched = RegisterLayout((ExponentRegister(3), GroupRegister(Z7)))
    with pytest.raises(WrongLayout):
        div_x_apply(basis_state(mismatched, (0, 1)), 3)
    with pytest.raises(WrongLayout):
        power_oracle_apply(basis_state(mismatched, (0, 1)))
    with pytest.raises(NotInGroup):
        div_x_apply(basis_state(run_layout(Z7), (0, 1)), 0)


def test_unitary_check_passes_the_dense_fourier_oracle():
    state = basis_state(RegisterLayout((ExponentRegister(5),)), (0,))
    dense = apply_register_unitary(state, 0, fourier_matrix(5), check_unitary=True)
    out = qft_apply(state, 0)
    assert out.norm() == pytest.approx(1.0, abs=1e-12)
    assert np.abs(out.amplitudes - dense.amplitudes).max() <= 1e-12
    with pytest.raises(NotUnitary):
        apply_register_unitary(state, 0, np.ones((5, 5)) / 5, check_unitary=True)


def oracle_groups(max_order=64):
    """Every cyclic unit group of order <= max_order, then the callback models."""
    units = [validate_group(n, primitive_root(n)) for n in cyclic_moduli(2 * max_order + 2)]
    return [s for s in units if s.order <= max_order] + \
        [cyclic_group(m) for m in range(1, max_order + 1)]


def assert_matches_table(got, state, perm):
    want = apply_basis_permutation(state, perm)
    assert np.array_equal(got.amplitudes, want.amplitudes)


def test_div_alpha_apply_matches_table_exhaustively():
    for spec in oracle_groups():
        state = random_state(pair_layout(spec), spec.order)
        for alpha in range(spec.order):
            assert_matches_table(div_alpha_apply(state.copy(), alpha), state,
                                 div_alpha_permutation(spec, alpha))


def test_div_x_apply_matches_table_exhaustively():
    for spec in oracle_groups():
        state = random_state(run_layout(spec), spec.order)
        for x in spec.elements:
            assert_matches_table(div_x_apply(state.copy(), x), state, div_x_permutation(spec, x))


def test_power_oracle_apply_matches_table_exhaustively():
    for spec in oracle_groups():
        state = random_state(run_layout(spec), spec.order)
        assert_matches_table(power_oracle_apply(state.copy()), state,
                             power_oracle_permutation(spec))


def test_controlled_multiply_known_mapping():
    # (n=7, g=3), order (2, 0, 1): |0, 2> is row k=1, so 2 * 3 = 6
    state = basis_state(run_layout(Z7), (0, 2))
    out = controlled_multiply(state, 3, [2, 0, 1, 3, 4, 5])
    assert out.amplitudes[joint_index(run_layout(Z7), (0, 6))] == 1.0
    # row k=0 of the order is left alone whatever the step
    state = basis_state(run_layout(Z7), (2, 5))
    out = controlled_multiply(state.copy(), 3, [2, 0, 1, 3, 4, 5])
    assert np.array_equal(out.amplitudes, state.amplitudes)


def test_controlled_multiply_guards():
    state = random_state(run_layout(Z7), 1)
    with pytest.raises(NotBijective):
        controlled_multiply(state, 3, [0, 0, 1, 2, 3, 4])
    with pytest.raises(NotBijective):
        controlled_multiply(state, 3, range(5))
    with pytest.raises(NotInGroup):
        controlled_multiply(state, 0, range(6))
    broken = validate_group(7, 3)
    broken._mul = lambda a, b: 1  # every product collapses onto one label
    with pytest.raises(NotBijective):
        controlled_multiply(random_state(run_layout(broken), 2), 3, range(6))
    with pytest.raises(WrongLayout):
        controlled_multiply(random_state(RegisterLayout((GroupRegister(Z7),)), 3),
                            3, range(6))


def test_transforms_consume_their_input():
    for layout in (RegisterLayout((ExponentRegister(6), ExponentRegister(7))),
                   RegisterLayout((ExponentRegister(9),))):
        for register_index in range(len(layout.registers)):
            state = random_state(layout, 5)
            buffer = state.amplitudes
            out = qft_apply(state, register_index, inverse=register_index == 1)
            assert out is state and np.shares_memory(out.amplitudes, buffer)
    for op, args in ((controlled_multiply, (3, [2, 0, 1, 3, 4, 5])),
                     (div_x_apply, (5,)), (power_oracle_apply, ())):
        state = random_state(run_layout(Z7), 6)
        buffer = state.amplitudes
        out = op(state, *args)
        assert out is state and np.shares_memory(out.amplitudes, buffer)
    state = random_state(pair_layout(Z7), 7)
    buffer = state.amplitudes
    assert np.shares_memory(div_alpha_apply(state, 2).amplitudes, buffer)


def test_transforms_copy_a_buffer_they_cannot_overwrite():
    # a strided view or a read-only array is copied once, then transformed
    state = random_state(run_layout(Z7), 8)
    want = qft_apply(state.copy(), 0).amplitudes
    strided = np.repeat(state.amplitudes, 2)[::2]
    assert np.array_equal(qft_apply(QState(state.layout, strided), 0).amplitudes, want)
    frozen = state.amplitudes.copy()
    frozen.setflags(write=False)
    out = qft_apply(QState(state.layout, frozen), 0)
    assert np.array_equal(out.amplitudes, want)
    assert np.array_equal(frozen, state.amplitudes)
    want = div_x_apply(state.copy(), 3).amplitudes
    assert np.array_equal(div_x_apply(QState(state.layout, frozen), 3).amplitudes, want)


def test_refused_transforms_leave_their_input_alone():
    state = random_state(run_layout(Z7), 9)
    before = state.amplitudes.copy()
    with pytest.raises(NotBijective):
        controlled_multiply(state, 3, range(5))
    with pytest.raises(WrongRegisterKind):
        qft_apply(state, 1)
    assert np.array_equal(state.amplitudes, before)
