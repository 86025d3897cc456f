"""State-vector simulator for a two-register discrete-log procedure driven by
reusable character states over finite cyclic groups, verified against exact
brute-force arithmetic."""

from .errors import (
    ArtifactMismatch,
    BadLabel,
    CapExceeded,
    ChiDlogError,
    DegenerateNorm,
    InvariantViolation,
    LayoutMismatch,
    NoInverse,
    NotAGenerator,
    NotAProductState,
    NotBijective,
    NotCoprime,
    NotInGroup,
    NotUnitary,
    RetryLimitExceeded,
    UnverifiedChi,
    WrongLayout,
    WrongRegisterKind,
)
from .group import (
    GroupSpec,
    cyclic_group,
    cyclic_moduli,
    dlog_oracle,
    gcd,
    group_from_mul,
    is_cyclic_modulus,
    mod_inverse,
    multiplicative_order,
    prime_factors,
    primitive_root,
    totient,
    validate_group,
)
from .qstate import (
    BasisPermutation,
    ExponentRegister,
    GroupRegister,
    MeasurementOutcome,
    QState,
    RegisterLayout,
    apply_basis_permutation,
    apply_register_unitary,
    basis_state,
    collapse,
    dim_cap,
    dump_amplitudes,
    factor_out,
    fidelity,
    marginal_distribution,
    measure,
    parse_amplitudes,
    sample_index,
    tensor,
)
from .transforms import (
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
from .chi import (
    ChiHandle,
    PrepStats,
    chi_power_from,
    chi_reference,
    load_chi,
    prepare_chi,
    save_chi,
)
from .dlog import (
    SHOR_EXACT_FOURIER_TRANSFORMS,
    SHOR_EXACT_REGISTERS,
    DlogResult,
    ResourceComparison,
    ResourceLedger,
    resource_report,
    result_record,
    run_dlog,
    run_dlog_repeated,
)

__version__ = "0.1.0"
