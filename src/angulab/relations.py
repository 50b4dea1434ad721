"""The inequality and identity hierarchy for observable pairs.

Central objects:

* ``csf``: Delta_A Delta_B >= |(delta_A psi, delta_B psi)|, the
  Cauchy-Schwarz formula.  Valid for every state and observable pair.
* ``adjointness_mismatch``: the matrix Delta_jk = (A_j psi, A_k psi) -
  (psi, A_j A_k psi).  A nonzero entry voids the usual derivation of the
  Robertson-Schrodinger relation.
* ``rsur``: Delta_A Delta_B >= |<[A, B]>| / 2.  The commutator mean is
  taken from the real/imaginary split of (delta_A psi, delta_B psi) when
  the mismatch vanishes and by direct operator composition otherwise, so
  the relation can be exhibited exactly where it fails.
* ``boundary_bound``: the circle-family bound whose right-hand side is
  (hbar/2) |1 - 2 pi B| with B the boundary probability density
  |psi(2 pi - 0)|^2.  The identity
  Im (delta_Lz psi, delta_phi psi) = -(hbar/2) (1 - 2 pi B) makes it an
  unconditional consequence of Cauchy-Schwarz.  (With a single modulus
  instead of the density the bound is violated by every sharp-rotation
  eigenstate; the squared form is the consistent reading.)
* ``gram_det``: determinant (and minimum eigenvalue) of the deviation
  Gram matrix, nonnegative because the matrix is Hermitian PSD.
* ``adjusted_relation``: the pluggable evaluator for the literature's
  substitute relations, with trig presets.
"""

from dataclasses import dataclass, field
from math import isfinite

import numpy as np

from . import operators
from .operators import (
    COS_PHI,
    LZ,
    PHI,
    SIN_PHI,
    UnsupportedObservable,
    lift,
    resolve_observable,
)
from .states import PeriodicState, SphereState, boundary_value, sphere_state

TOL_INEQUALITY = 1e-10
TOL_IDENTITY = 1e-8
TOL_GRAM = 1e-9
TOL_COMMUTATOR = 1e-6


class NonFinite(ArithmeticError):
    """A report number that is inf or nan, at ``path`` in its report; each
    caller that places the part prefixes its own position (``within``)."""

    def __init__(self, path):
        super().__init__(f"non-finite value at {path}")
        self.path = path

    def within(self, prefix):
        return NonFinite(f"{prefix}.{self.path}")


def finite(x, key):
    """``float(x)``, or NonFinite at ``key`` when that is inf or nan."""
    x = float(x)
    if not isfinite(x):
        raise NonFinite(key)
    return x


def _cnum(z, key):
    """``z`` as {"re", "im"}, or NonFinite at the part of ``key`` that is inf or nan."""
    re, im = float(z.real), float(z.imag)
    if not isfinite(re):
        raise NonFinite(f"{key}.re")
    if not isfinite(im):
        raise NonFinite(f"{key}.im")
    return {"re": re, "im": im}


def _crows(rows, key):
    return [[_cnum(z, f"{key}[{j}][{k}]") for k, z in enumerate(row)] for j, row in enumerate(rows)]


def json_values(values, at):
    """The dict ``values`` as JSON values: complex numbers as {"re", "im"},
    complex arrays as rows of them, booleans, strings and ints as they are,
    any other number as a float; NonFinite at ``at.key`` for a number that
    is inf or nan.  Every number of a report passes through here or
    ``finite``, so a report is finite by construction."""
    out = {}
    try:
        for key, val in values.items():
            if isinstance(val, complex):
                out[key] = _cnum(val, key)
            elif isinstance(val, (bool, str, int)):
                out[key] = val
            elif isinstance(val, np.ndarray):
                out[key] = _crows(val, key)
            else:
                out[key] = finite(val, key)
    except NonFinite as exc:
        raise exc.within(at) from None
    return out


@dataclass
class RelationReport:
    relation: str
    lhs: float
    rhs: float
    slack: float
    satisfied: bool
    tolerance: float
    details: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "relation": self.relation,
            "lhs": finite(self.lhs, "lhs"),
            "rhs": finite(self.rhs, "rhs"),
            "slack": finite(self.slack, "slack"),
            "satisfied": bool(self.satisfied),
            "tolerance": finite(self.tolerance, "tolerance"),
            "details": json_values(self.details, "details"),
        }


def _inequality_report(name, lhs, rhs, tolerance, details):
    slack = lhs - rhs
    return RelationReport(
        relation=name,
        lhs=float(lhs),
        rhs=float(rhs),
        slack=float(slack),
        satisfied=bool(slack >= -tolerance),
        tolerance=tolerance,
        details=details,
    )


def identity_report(name, deviation, tolerance, details):
    """Equality checks: lhs 0, rhs |deviation|, satisfied iff within tolerance."""
    dev = abs(deviation)
    return RelationReport(
        relation=name,
        lhs=0.0,
        rhs=float(dev),
        slack=0.0 - float(dev),  # not -dev: a zero deviation gives 0.0, not -0.0
        satisfied=bool(dev <= tolerance),
        tolerance=tolerance,
        details=details,
    )


@dataclass(frozen=True)
class MismatchMatrix:
    entries: np.ndarray
    observables: list
    max_modulus: float

    def to_json(self):
        return {
            "observables": [o.tag for o in self.observables],
            "entries": _crows(self.entries, "entries"),
            "max_modulus": finite(self.max_modulus, "max_modulus"),
        }


def adjointness_mismatch(obs_a, obs_b, state):
    """Delta_jk = (A_j psi, A_k psi) - (psi, A_j A_k psi) over the pair."""
    entries, max_modulus, _, _ = lift(state).pair(obs_a, obs_b).mismatch
    obs = [resolve_observable(obs_a), resolve_observable(obs_b)]
    return MismatchMatrix(np.array(entries, dtype=complex), obs, max_modulus)


def csf(obs_a, obs_b, state):
    """Delta_A Delta_B >= |(delta_A psi, delta_B psi)| for any pair."""
    mean_a, mean_b, std_a, std_b, cross = lift(state).pair(obs_a, obs_b).moments
    details = {"std_a": std_a, "std_b": std_b, "mean_a": mean_a, "mean_b": mean_b, "cross": cross}
    return _inequality_report("csf", std_a * std_b, abs(cross), TOL_INEQUALITY, details)


def rsur(obs_a, obs_b, state):
    """Delta_A Delta_B >= |<[A, B]>| / 2, with its entitlement on record.

    An unsatisfied report is data, not an error; the mismatch norm in the
    details says whether the relation was entitled to hold.
    """
    read = lift(state).pair(obs_a, obs_b)
    _, _, std_a, std_b, cross = read.moments
    entries, mismatch_max, ab, ba = read.mismatch
    if mismatch_max < TOL_IDENTITY:
        # split of (delta_A psi, delta_B psi): the imaginary part carries
        # the commutator mean when the adjointness conditions hold
        rhs = abs(cross.imag)
        route = "deviation-split"
    else:
        rhs = 0.5 * abs(ab - ba)
        route = "direct"
    details = {
        "std_a": std_a,
        "std_b": std_b,
        "mismatch_max": mismatch_max,
        "mismatch_ab": complex(entries[0][1]),
        "commutator_route": route,
    }
    return _inequality_report("rsur", std_a * std_b, rhs, TOL_IDENTITY, details)


@dataclass
class DecompositionResult:
    symmetric: float
    antisymmetric: float
    residual: float
    applicable: bool
    mismatch_max: float


def covariance_decomposition(obs_a, obs_b, state):
    """Split (delta_A psi, delta_B psi) into real and imaginary parts.

    The real part is the symmetrized covariance, the imaginary part is
    -1/2 the mean of i[A, B]; the residual checks that reassembly.  The
    identity is only claimed when the adjointness mismatch is below
    TOL_IDENTITY; outside that the result is flagged not applicable.
    """
    read = lift(state).pair(obs_a, obs_b)
    mean_a, mean_b, _, _, cross = read.moments
    _, mismatch_max, second_ab, second_ba = read.mismatch
    # <delta_A delta_B> = <A B> - <A><B>, and the same for <delta_B delta_A>
    ab = mean_a * mean_b
    dadb = second_ab - ab
    dbda = second_ba - ab
    sym_term = 0.5 * (dadb + dbda)
    icomm_term = 1j * (dadb - dbda)  # (psi, i[A, B] psi)
    assembled = sym_term - 0.5j * icomm_term
    residual = abs(cross - assembled)
    return DecompositionResult(
        symmetric=float(cross.real),
        antisymmetric=float(cross.imag),
        residual=float(residual),
        applicable=bool(mismatch_max < TOL_IDENTITY),
        mismatch_max=mismatch_max,
    )


def boundary_bound(state):
    """Circle bound (hbar/2)|1 - 2 pi B| on both the deviation inner
    product and, through Cauchy-Schwarz, the Delta product."""
    ket = lift(state)
    if not isinstance(ket.state, PeriodicState):
        raise UnsupportedObservable("boundary_bound: circle states only")
    bval = boundary_value(ket.state)
    density = abs(bval) ** 2
    rhs = 0.5 * ket.hbar * abs(1.0 - 2.0 * np.pi * density)
    _, _, std_lz, std_phi, cross = ket.pair(LZ, PHI).moments
    lhs = abs(cross)
    product_lhs = std_lz * std_phi
    product_slack = product_lhs - rhs
    details = {
        "boundary_value": complex(bval),
        "boundary_density": float(density),
        "cross": complex(cross),
        "product_lhs": float(product_lhs),
        "product_slack": float(product_slack),
        "squared_density": True,
    }
    report = _inequality_report("boundary", lhs, rhs, TOL_IDENTITY, details)
    report.satisfied = report.satisfied and product_slack >= -TOL_IDENTITY
    return report


# -- adjusted (mimic) relations ----------------------------------------------


@dataclass(frozen=True)
class AdjustedRelation:
    """Caller-specified substitute relation.

    form "function-pair":  Delta_Lz * Delta_f >= (hbar/2) |<g>|
    form "quadratic":      (Delta_Lz)^2 + hbar^2 (Delta_u)^2 >= hbar^2 <v>^2

    The trig presets pair f = sin phi with g = cos phi (and the cosine
    mirror), the commutator right-hand side (hbar/2)|<cos phi>|; every
    observable they read is one of the paper's four, so each preset reads
    the ket's shared block.
    """

    label: str
    form: str
    f: object = None
    g: object = None
    u: object = None
    v: object = None


EQ8_SIN = AdjustedRelation("eq8-sin", "function-pair", f=SIN_PHI, g=COS_PHI)
EQ8_COS = AdjustedRelation("eq8-cos", "function-pair", f=COS_PHI, g=SIN_PHI)
EQ9_TRIG = AdjustedRelation("eq9-trig", "quadratic", u=SIN_PHI, v=COS_PHI)

ADJUSTED_PRESETS = {rel.label: rel for rel in (EQ8_SIN, EQ8_COS, EQ9_TRIG)}


def adjusted_relation(rel, state):
    if isinstance(rel, str):
        try:
            rel = ADJUSTED_PRESETS[rel]
        except KeyError:
            raise UnsupportedObservable(f"no adjusted-relation preset {rel!r}") from None
    ket = lift(state)
    hbar = ket.hbar
    if rel.form == "function-pair":
        lhs = ket.std(LZ) * ket.std(rel.f)
        rhs = 0.5 * hbar * abs(ket.mean(rel.g))
    elif rel.form == "quadratic":
        lhs = ket.std(LZ) ** 2 + hbar**2 * ket.std(rel.u) ** 2
        rhs = hbar**2 * ket.mean(rel.v) ** 2
    else:
        raise UnsupportedObservable(f"unknown adjusted-relation form {rel.form!r}")
    return _inequality_report(rel.label, lhs, rhs, TOL_IDENTITY, {"form": rel.form})


def gram_det(observables, state):
    """det[(delta_j psi, delta_k psi)] >= 0 and its minimum eigenvalue, read
    from one stacked determinant and eigenvalue call over the ket's batch."""
    if len(observables) < 2:
        raise ValueError("gram_det: need at least two observables")
    r = len(observables)
    gram, det, min_eig = lift(state).gram_linalg(observables)
    if abs(det.imag) > 1e-10 * max(1.0, abs(det.real)):
        raise ArithmeticError(f"gram_det: determinant imaginary residue {det.imag:.3e}")
    details = {"min_eigenvalue": float(min_eig), "order": r}
    for j in range(r):
        for k in range(r):
            details[f"gram_{j}{k}"] = complex(gram[j, k])
    return _inequality_report("gram", float(det.real), 0.0, TOL_GRAM, details)


# -- sphere anomaly -----------------------------------------------------------


def sphere_mismatch(state):
    """Direct (Lz psi, phi psi) - (psi, Lz phi psi) for a sphere state."""
    return lift(state).mismatch(LZ, PHI)


def sphere_anomaly(state):
    """First-principles mismatch next to the printed bracket expression.

    The bracket form i hbar {1 + 2 Im[sum c_m* c_r hbar m (Y_lm, phi Y_lr)]}
    carries an extra hbar inside the bracket; it is evaluated exactly as
    printed and reported alongside the direct value without asserting
    their equality.
    """
    ket = lift(state)
    if not isinstance(ket.state, SphereState):
        raise UnsupportedObservable("sphere_anomaly: sphere states only")
    direct = sphere_mismatch(ket)
    l, hbar = ket.l, ket.hbar
    c = np.zeros(2 * l + 1, dtype=complex)
    for m, v in ket.state.coefficients.items():
        c[m + l] = v
    mvals = np.arange(-l, l + 1, dtype=float)
    phi1 = operators._theta_overlap(l) * operators._phi_power_block(1, l)
    bracket_sum = complex(c.conj() @ ((hbar * mvals)[:, None] * phi1) @ c)
    bracket = 1j * hbar * (1.0 + 2.0 * bracket_sum.imag)
    return {
        "direct_mismatch": direct,
        "bracket_formula": complex(bracket),
        "discrepancy": float(abs(direct - bracket)),
    }


def annul_sphere_mismatch(l=1, hbar=1.0, scan_points=2001, refine_steps=60):
    """Search the one-parameter family c = (s, sqrt(1 - 2 s^2), s) for the
    coefficient vector that annuls the direct mismatch (l = 1 layout; for
    larger l the same symmetric family is scanned over the outer modes)."""

    def candidate(s):
        middle = np.sqrt(max(1.0 - 2.0 * s * s, 0.0))
        return sphere_state(l, {-l: s, 0: middle, l: s}, hbar=hbar)

    s_hi = 1.0 / np.sqrt(2.0)
    grid = np.linspace(0.0, s_hi, scan_points)
    vals = [abs(sphere_mismatch(candidate(s))) for s in grid]
    best = int(np.argmin(vals))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, scan_points - 1)]
    for _ in range(refine_steps):
        third = (hi - lo) / 3.0
        s1, s2 = lo + third, hi - third
        if abs(sphere_mismatch(candidate(s1))) < abs(sphere_mismatch(candidate(s2))):
            hi = s2
        else:
            lo = s1
    s_best = 0.5 * (lo + hi)
    return candidate(s_best)
