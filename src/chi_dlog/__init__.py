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
    RetryLimitExceeded,
    UnverifiedChi,
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
    ExponentRegister,
    GroupRegister,
    MeasurementOutcome,
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
from .transforms import div_x_apply, qft_apply
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
    ResourceLedger,
    resource_report,
    result_record,
    run_dlog,
    run_dlog_repeated,
)

__version__ = "0.1.0"
