"""angulab: numerical checks for angular momentum / azimuthal angle
uncertainty relations across circle, pendulum, and sphere state families."""

from .operators import (
    COS_PHI,
    LZ,
    PHI,
    SIN_PHI,
    Observable,
    UnsupportedObservable,
    apply,
    commutator_residual,
    deviation_vector,
    lift,
    lift_all,
    mean,
    qtp_energy_mean,
    sphere_variances,
    std_dev,
)
from .relations import (
    EQ8_COS,
    EQ8_SIN,
    EQ9_TRIG,
    AdjustedRelation,
    MismatchMatrix,
    RelationReport,
    adjointness_mismatch,
    adjusted_relation,
    annul_sphere_mismatch,
    boundary_bound,
    covariance_decomposition,
    csf,
    gram_det,
    rsur,
    sphere_anomaly,
    sphere_mismatch,
)
from .specfun import (
    QuadratureRule,
    gauss_hermite,
    gauss_legendre,
    theta_lm,
)
from .states import (
    OscillatorState,
    PeriodicState,
    SphereState,
    boundary_value,
    evaluate,
    from_json,
    load,
    oscillator_superposition,
    periodic_superposition,
    qtp_eigenstate,
    random_oscillator,
    random_periodic,
    random_sphere,
    save,
    scr_eigenstate,
    sphere_state,
    to_json,
)

__version__ = "0.1.0"
