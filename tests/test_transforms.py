"""The FFT and the controlled-product operators, against the dense Fourier
matrix and the three reference permutation tables, those oracles against
direct recomputation, and the names the package exports."""

import inspect
from dataclasses import fields

import numpy as np
import pytest

import chi_dlog
from chi_dlog import dlog, errors, qstate, transforms
from chi_dlog.errors import (
    NotBijective,
    NotInGroup,
    WrongLayout,
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
    controlled_product,
    div_alpha_apply,
    div_alpha_permutation,
    div_x_apply,
    div_x_permutation,
    fourier_matrix,
    power_oracle_apply,
    power_oracle_permutation,
    qft_apply,
)
from chi_dlog.verify import _product, _relabel

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
    out = div_alpha_apply(a, b, 0)
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
    with pytest.raises(WrongLayout):
        div_alpha_apply(exp7, grp7, 1)
    with pytest.raises(WrongLayout):
        div_x_apply(grp7, grp7, 3)
    with pytest.raises(WrongLayout):
        div_alpha_apply(grp7, basis_state(RegisterLayout((GroupRegister(Z5),)), (1,)), 1)
    short = basis_state(RegisterLayout((ExponentRegister(3),)), (0,))
    with pytest.raises(WrongLayout):
        div_x_apply(short, grp7, 3)
    with pytest.raises(WrongLayout):
        power_oracle_apply(short, grp7)
    # each input is one register; a joint state is refused
    with pytest.raises(WrongLayout):
        div_x_apply(basis_state(run_layout(Z7), (0, 1)), grp7, 3)
    with pytest.raises(NotInGroup):
        div_x_apply(exp7, grp7, 0)


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
    for spec in oracle_groups():
        layout = RegisterLayout((GroupRegister(spec),))
        for alpha in range(spec.order):
            assert_matches_table(lambda a, b: div_alpha_apply(a, b, alpha), layout, spec,
                                 div_alpha_permutation(spec, alpha))


def test_div_x_apply_matches_table_exhaustively():
    for spec in oracle_groups():
        layout = RegisterLayout((ExponentRegister(spec.order),))
        for x in spec.elements:
            assert_matches_table(lambda a, b: div_x_apply(a, b, x), layout, spec,
                                 div_x_permutation(spec, x))


def test_power_oracle_apply_matches_table_exhaustively():
    for spec in oracle_groups():
        assert_matches_table(power_oracle_apply, RegisterLayout((ExponentRegister(spec.order),)),
                             spec, power_oracle_permutation(spec))


def test_controlled_product_known_mapping():
    # (n=7, g=3), order (2, 0, 1): |0, 2> is row k=1, so 2 * 3 = 6
    control = RegisterLayout((ExponentRegister(6),))
    group = RegisterLayout((GroupRegister(Z7),))
    out = controlled_product(basis_state(control, (0,)), basis_state(group, (2,)), 3,
                             [2, 0, 1, 3, 4, 5])
    assert out.layout == run_layout(Z7)
    assert out.amplitudes[joint_index(run_layout(Z7), (0, 6))] == 1.0
    # row k=0 of the order is left alone whatever the step
    a, b = basis_state(control, (2,)), basis_state(group, (5,))
    out = controlled_product(a, b, 3, [2, 0, 1, 3, 4, 5])
    assert np.array_equal(out.amplitudes, _product(a, b).amplitudes)


def test_identity_step_builds_the_plain_product():
    # register 0 fastest: flat amplitudes are kron(right, left), for either order
    a = random_state(RegisterLayout((ExponentRegister(2),)), 1)
    b = group_state(Z5, 2)
    for order in ([0, 1], [1, 0]):
        joint = controlled_product(a, b, Z5.identity, order)
        assert joint.layout == RegisterLayout((ExponentRegister(2), GroupRegister(Z5)))
        assert np.array_equal(joint.amplitudes, np.kron(b.amplitudes, a.amplitudes))
    with pytest.raises(WrongLayout):
        controlled_product(joint, b, Z5.identity, range(8))


def test_controlled_product_guards():
    a, b = exponent_state(6, 1), group_state(Z7, 1)
    with pytest.raises(NotBijective):
        controlled_product(a, b, 3, [0, 0, 1, 2, 3, 4])
    with pytest.raises(NotBijective):
        controlled_product(a, b, 3, range(5))
    with pytest.raises(NotInGroup):
        controlled_product(a, b, 0, range(6))
    broken = validate_group(7, 3)
    broken._mul = lambda a, b: 1  # every product collapses onto one label
    with pytest.raises(NotBijective):
        controlled_product(a, group_state(broken, 2), 3, range(6))
    with pytest.raises(WrongLayout):
        controlled_product(a, exponent_state(6, 3), 3, range(6))


def test_transforms_consume_their_input():
    for layout in (RegisterLayout((ExponentRegister(6), ExponentRegister(7))),
                   RegisterLayout((ExponentRegister(9),))):
        for inverse in (False, True):
            state = random_state(layout, 5)
            buffer = state.amplitudes
            out = qft_apply(state, inverse=inverse)
            assert out is state and np.shares_memory(out.amplitudes, buffer)


def test_divisions_build_a_fresh_state_and_leave_their_inputs_alone():
    exp, grp, left = exponent_state(6, 6), group_state(Z7, 7), group_state(Z7, 8)
    for op, a, args in ((controlled_product, exp, (3, [2, 0, 1, 3, 4, 5])),
                        (div_x_apply, exp, (5,)), (power_oracle_apply, exp, ()),
                        (div_alpha_apply, left, (2,))):
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
    a, b = exponent_state(6, 9), group_state(Z7, 10)
    before = a.amplitudes.copy(), b.amplitudes.copy()
    with pytest.raises(NotBijective):
        controlled_product(a, b, 3, range(5))
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
               "controlled_multiply", "tensor")
    oracles = {"fourier_matrix", "div_alpha_permutation", "div_x_permutation",
               "power_oracle_permutation"}
    for module in (chi_dlog, qstate, errors, dlog, transforms):
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
    simulation = {"qft_apply", "controlled_product", "div_alpha_apply", "div_x_apply",
                  "power_oracle_apply"}
    assert set(transforms.__all__) == simulation | oracles
