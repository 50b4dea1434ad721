"""Operator algebra and moments for the three state families.

The observables L_z = -i hbar d/dphi and phi (multiplication) act on
coefficient vectors.  On the circle the product phi * psi leaves the span
of e^{i m phi}, so circle (and sphere) kets are represented exactly as

    f(phi) = sum_d phi^d * sum_k u_{d k} e^{i k phi} / sqrt(2 pi),

where the power d grows by one per application of phi and the derivative
acts by the Leibniz rule.  With the range [0, 2 pi) and one-sided
derivatives at its ends, d/dphi of phi^d times a smooth periodic factor is
the plain pointwise derivative, so operator products are evaluated exactly
and the boundary anomaly of the L_z, phi pair comes out of the algebra
instead of being special-cased.  Inner products reduce to closed-form
matrix elements

    (e_a, phi^p e_b) = (2 pi)^p / (p + 1)                      (a == b)
    (e_a, phi^p e_b) = sum_{j=0}^{p-1} (-1)^j p!/(p-j)!
                       (i s)^{-(j+1)} (2 pi)^{p-j-1},  s = b - a.

On the line the Hermite-function ladder gives exact tridiagonal actions,
    xi h_n   = sqrt(n/2) h_{n-1} + sqrt((n+1)/2) h_{n+1},
    d/dxi h_n = sqrt(n/2) h_{n-1} - sqrt((n+1)/2) h_{n+1},
and multiplication by a trigonometric polynomial of phi = xi / lam uses a
Gauss-Hermite matrix that is exact to machine precision at the padded
working dimension.

Circle and sphere kets share one type with a leading row axis: one row on
the circle, one per polar function theta_lm (m = -l..l) on the sphere at
fixed l.  Each ket stores only its own band of Fourier modes, lo .. lo +
width - 1: a circle state's band runs from its lowest to its highest mode,
a sphere state's from -l to l, and multiplication by a trigonometric
polynomial widens the band by that polynomial's lowest and highest modes.
The theta factors enter only through their Gauss-Legendre overlap matrix O,
which is positive semidefinite of rank l + 1.  Lifting a sphere state
multiplies its rows once by the symmetric square root R of O (R R = O).
L_z, phi and trigonometric multiplication act on every row alike, so they
commute with R, and every inner product is a plain sum over rows with no
overlap operand: one matmul and one vdot against a cached metric whose
blocks (e_i, phi^{d+e} e_j) depend only on the depths and the mode
difference j - i, never on an absolute mode.

Every ket owns a memo dict.  ``Lifted`` is a view of a state and its ket
that fills the ket's memo with what every relation reads: A psi, means,
deviations, standard deviations and the pair products of A psi, B psi and
psi.  Every ``Lifted`` of the same ket, and so every relation called on that
ket, shares those values; ket coefficients are read-only so that the memo
cannot go stale.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import specfun
from .specfun import TWO_PI
from .states import OscillatorState, PeriodicState, SphereState

_NPAD = 48  # head-room in the Hermite band; trig tails decay superfactorially
_MEAN_IMAG_TOL = 1e-10


class UnsupportedObservable(ValueError):
    """Raised when an observable does not act on the given family."""


@dataclass(frozen=True, eq=False)
class Observable:
    """A named operator.

    ``fourier`` marks multiplication by sum_k f_k e^{i k phi}; ``action``
    is an optional custom coefficient-space action ket -> ket.  ``hermitian``
    gates the mean / standard-deviation paths.  Observables compare and hash
    by identity, so memo lookups keyed on them stay cheap.
    """

    tag: str
    hermitian: bool = True
    fourier: tuple = None
    action: object = None

    @property
    def label(self):
        return self.tag


LZ = Observable("Lz")
PHI = Observable("Phi")
PHI2 = Observable("Phi2")
SIN_PHI = Observable("SinPhi", fourier=((1, -0.5j), (-1, 0.5j)))
COS_PHI = Observable("CosPhi", fourier=((1, 0.5 + 0.0j), (-1, 0.5 + 0.0j)))
HAMILTONIAN = Observable("Hamiltonian")

_BY_TAG = {o.tag: o for o in (LZ, PHI, PHI2, SIN_PHI, COS_PHI, HAMILTONIAN)}


def trig_observable(label, coeffs):
    """Multiplication by f(phi) = sum_k f_k e^{i k phi} (k integer)."""
    items = tuple(sorted((int(k), complex(v)) for k, v in coeffs.items() if v != 0))
    if not items:
        raise ValueError("trig_observable: empty coefficient set")
    table = dict(items)
    hermitian = all(abs(table.get(-k, 0.0) - np.conj(v)) < 1e-14 for k, v in items)
    return Observable(label, hermitian=hermitian, fourier=items)


def resolve_observable(obs):
    if isinstance(obs, Observable):
        return obs
    try:
        return _BY_TAG[obs]
    except KeyError:
        raise UnsupportedObservable(f"unknown observable tag {obs!r}") from None


# -- circle matrix elements ---------------------------------------------------


def _phi_power_entries(power, s):
    """(e_a, phi^power e_b) over an integer array ``s`` of differences b - a."""
    out = np.zeros(s.shape, dtype=complex)
    diag = s == 0
    out[diag] = TWO_PI**power / (power + 1.0)
    if power >= 1:
        ss = s[~diag].astype(float)
        inv_is = 1.0 / (1j * ss)
        acc = np.zeros(ss.shape, dtype=complex)
        coef = 1.0
        for j in range(power):
            if j > 0:
                coef *= power - j + 1
            acc += (-1.0) ** j * coef * inv_is ** (j + 1) * TWO_PI ** (power - j - 1)
        out[~diag] = acc
    return out


@lru_cache(maxsize=None)
def _phi_power_block(power, kmax):
    """(e_a, phi^power e_b) for a, b in [-kmax, kmax]; exactly Hermitian."""
    k = np.arange(-kmax, kmax + 1)
    out = _phi_power_entries(power, k[None, :] - k[:, None])
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _metric(da, wa, db, wb, shift):
    """Gram matrix of a depth-da, width-wa band against a depth-db, width-wb one.

    Entry [(d, i), (e, j)] is (e_i, phi^(d+e) e_{j+shift}): the second band
    starts ``shift`` modes above the first.  Each block depends on the mode
    difference j + shift - i only, so no absolute mode enters the key.
    """
    s = np.arange(shift - wa + 1, shift + wb)  # every difference j + shift - i
    table = np.stack([_phi_power_entries(p, s) for p in range(da + db - 1)])
    diff = np.arange(wb)[None, :] - np.arange(wa)[:, None] + wa - 1  # index into s
    power = np.arange(da)[:, None] + np.arange(db)[None, :]
    out = table[power[:, None, :, None], diff[None, :, None, :]].reshape(da * wa, db * wb)
    out.setflags(write=False)
    return out


def phi_matrix(truncation):
    """Matrix of phi on the circle basis, indices m in [-truncation, truncation]."""
    return _phi_power_block(1, truncation).copy()


def phi2_matrix(truncation):
    """Matrix of phi^2 on the circle basis."""
    return _phi_power_block(2, truncation).copy()


@lru_cache(maxsize=None)
def _theta_overlap(l):
    """O_{m r} = integral(theta_lm theta_lr sin(theta) d theta), real symmetric."""
    rule = specfun.gauss_legendre(max(64, 2 * l + 4))
    theta = np.arccos(rule.nodes)
    table = specfun.theta_lm_table(l, theta)
    out = (table * rule.weights) @ table.T
    out.setflags(write=False)
    return out


# -- kets ---------------------------------------------------------------------


@lru_cache(maxsize=None)
def _theta_overlap_root(l):
    """Symmetric square root of _theta_overlap(l).

    The overlap is PSD of rank l + 1 (theta_lm = theta_l,-m up to sign), so
    Cholesky fails on it.  eigh gives its null eigenvalues at rounding level
    with either sign; they are clipped to zero, so the root has no entries
    of order sqrt(eps) and its square is the overlap to rounding.
    """
    vals, vecs = np.linalg.eigh(_theta_overlap(l))
    vals[vals < vals.size * np.finfo(float).eps * vals[-1]] = 0.0
    out = (vecs * np.sqrt(vals)) @ vecs.T
    out.setflags(write=False)
    return out


class FourierKet:
    """Exact representation sum_d phi^d * sum_k u_{d k} e^{i k phi} on [0, 2 pi), per row.

    ``coeffs[r, d, i]`` is u_{d k} of row r at mode k = lo + i: each ket
    holds only its own band of modes lo .. lo + width - 1.  A circle ket has
    one row; a sphere ket at fixed ``l`` has 2l+1 rows, already multiplied
    by the root of the theta overlap, so the inner product is a plain sum
    over rows.  No operator mixes rows.
    """

    __slots__ = ("coeffs", "lo", "hbar", "l", "memo")

    def __init__(self, coeffs, lo, hbar, l=None):
        coeffs.setflags(write=False)
        self.coeffs = coeffs  # shape (rows, depth, width), complex
        self.lo = lo
        self.hbar = hbar
        self.l = l
        self.memo = {}  # filled by Lifted

    @property
    def family(self):
        return "periodic" if self.l is None else "sphere"

    def _like(self, coeffs, lo):
        return FourierKet(coeffs, lo, self.hbar, self.l)

    def scaled(self, z):
        return self._like(z * self.coeffs, self.lo)

    def plus(self, other):
        _check_space(self, other)
        a, b = self.coeffs, other.coeffs
        lo = min(self.lo, other.lo)
        width = max(self.lo + a.shape[2], other.lo + b.shape[2]) - lo
        out = np.zeros((a.shape[0], max(a.shape[1], b.shape[1]), width), dtype=complex)
        for ket, c in ((self, a), (other, b)):
            off = ket.lo - lo
            out[:, : c.shape[1], off : off + c.shape[2]] += c
        return self._like(out, lo)

    def lz(self):
        c = self.coeffs
        k = self.lo + np.arange(c.shape[2])
        out = (self.hbar * k) * c.astype(complex)
        depth = c.shape[1]
        if depth > 1:
            d = np.arange(1, depth)[:, None]
            out[:, :-1] += -1j * self.hbar * d * c[:, 1:]
        return self._like(out, self.lo)

    def mul_phi(self):
        rows, depth, width = self.coeffs.shape
        out = np.zeros((rows, depth + 1, width), dtype=complex)
        out[:, 1:] = self.coeffs
        return self._like(out, self.lo)

    def mul_trig(self, fourier):
        low = min(k for k, _ in fourier)
        high = max(k for k, _ in fourier)
        rows, depth, width = self.coeffs.shape
        out = np.zeros((rows, depth, width + high - low), dtype=complex)
        for k, coef in fourier:
            out[:, :, k - low : k - low + width] += coef * self.coeffs
        return self._like(out, self.lo + low)

    def inner(self, other):
        _check_space(self, other)
        a, b = self.coeffs, other.coeffs
        rows, da, wa = a.shape
        _, db, wb = b.shape
        metric = _metric(da, wa, db, wb, other.lo - self.lo)
        return complex(np.vdot(a, b.reshape(rows, db * wb) @ metric.T))

    def norm(self):
        return float(np.sqrt(max(self.inner(self).real, 0.0)))


def _space_error(x, y):
    return ValueError(
        f"kets from different spaces: {x.family} (l={getattr(x, 'l', None)}) "
        f"and {y.family} (l={getattr(y, 'l', None)})"
    )


def _check_space(x, y):
    if type(y) is not FourierKet or x.l != y.l:
        raise _space_error(x, y)


class LineKet:
    """Hermite-band vector with the pendulum's scale parameters attached."""

    __slots__ = ("coeffs", "lam", "hbar", "inertia", "frequency", "memo")

    def __init__(self, coeffs, lam, hbar, inertia, frequency):
        coeffs.setflags(write=False)
        self.coeffs = coeffs  # shape (K,), complex
        self.lam = lam
        self.hbar = hbar
        self.inertia = inertia
        self.frequency = frequency
        self.memo = {}  # filled by Lifted

    @property
    def family(self):
        return "oscillator"

    def _like(self, coeffs):
        return LineKet(coeffs, self.lam, self.hbar, self.inertia, self.frequency)

    def scaled(self, z):
        return self._like(z * self.coeffs)

    def plus(self, other):
        a, b = _align_line(self, other)
        return self._like(a + b)

    def _ladder(self, sign):
        # (result)_n = sqrt(n/2) c_{n-1} + sign * sqrt((n+1)/2) c_{n+1}
        c = self.coeffs
        n = np.arange(c.size)
        out = np.zeros_like(c)
        out[1:] += np.sqrt(n[1:] / 2.0) * c[:-1]
        out[:-1] += sign * np.sqrt((n[:-1] + 1) / 2.0) * c[1:]
        return out

    def lz(self):
        # -i hbar lam d/dxi; the derivative matrix is minus the odd ladder
        return self._like(1j * self.hbar * self.lam * self._ladder(-1.0))

    def mul_phi(self):
        return self._like(self._ladder(+1.0) / self.lam)

    def mul_trig(self, fourier):
        mat = _line_mult_matrix(self.coeffs.size, float(self.lam), fourier)
        return self._like(mat @ self.coeffs)

    def hamiltonian(self):
        kin = self.lz().lz().scaled(1.0 / (2.0 * self.inertia))
        pot = self.mul_phi().mul_phi().scaled(0.5 * self.inertia * self.frequency**2)
        return kin.plus(pot)

    def inner(self, other):
        a, b = _align_line(self, other)
        return complex(np.vdot(a, b))

    def norm(self):
        return float(np.linalg.norm(self.coeffs))


def _align_line(x, y):
    if type(y) is not LineKet:
        raise _space_error(x, y)
    a, b = x.coeffs, y.coeffs
    size = max(a.size, b.size)
    if a.size < size:
        a = np.concatenate([a, np.zeros(size - a.size, dtype=complex)])
    if b.size < size:
        b = np.concatenate([b, np.zeros(size - b.size, dtype=complex)])
    return a, b


@lru_cache(maxsize=128)
def _line_mult_matrix(dim, lam, fourier):
    """Matrix of f(phi) = sum_k f_k e^{i k phi} on h_0..h_{dim-1}, phi = xi/lam.

    Gauss-Hermite with dim + 48 nodes; exact for the polynomial part and
    converged to machine precision for the entire trigonometric factor.
    """
    rule = specfun.gauss_hermite(dim + 48)
    x, w = rule.nodes, rule.weights
    wt = w * np.exp(x * x)  # plain-dxi weights against h_n h_k
    table = specfun.hermite_function_table(dim - 1, x)
    fvals = np.zeros(x.shape, dtype=complex)
    for k, coef in fourier:
        fvals += coef * np.exp(1j * k * x / lam)
    mat = (table * (wt * fvals)) @ table.T
    mat.setflags(write=False)
    return mat


# -- lifting and operator dispatch -------------------------------------------


def lift(state):
    """Coefficient-space ket for a state; kets pass through unchanged."""
    if isinstance(state, (FourierKet, LineKet)):
        return state
    if isinstance(state, PeriodicState):
        lo = min(state.coefficients)
        coeffs = np.zeros((1, 1, max(state.coefficients) - lo + 1), dtype=complex)
        for m, a in state.coefficients.items():
            coeffs[0, 0, m - lo] = a
        return FourierKet(coeffs, lo, state.hbar)
    if isinstance(state, OscillatorState):
        dim = max(state.coefficients) + 1 + _NPAD
        coeffs = np.zeros(dim, dtype=complex)
        for n, b in state.coefficients.items():
            coeffs[n] = b
        return LineKet(coeffs, state.scale, state.hbar, state.inertia, state.frequency)
    if isinstance(state, SphereState):
        l = state.l
        c = np.zeros(2 * l + 1, dtype=complex)
        for m, v in state.coefficients.items():
            c[m + l] = v
        # row r holds sum_m root[r, m] c_m e^{i m phi}, on the band -l..l
        coeffs = (_theta_overlap_root(l) * c)[:, None, :]
        return FourierKet(coeffs, -l, state.hbar, l)
    raise TypeError(f"lift: unsupported state type {type(state)!r}")


def apply(obs, state):
    """Act with an observable on a state or ket, returning a ket."""
    obs = resolve_observable(obs)
    ket = lift(state)
    if obs.action is not None:
        return obs.action(ket)
    if obs.fourier is not None:
        return ket.mul_trig(obs.fourier)
    if obs.tag == "Lz":
        return ket.lz()
    if obs.tag == "Phi":
        return ket.mul_phi()
    if obs.tag == "Phi2":
        return ket.mul_phi().mul_phi()
    if obs.tag == "Hamiltonian":
        if not isinstance(ket, LineKet):
            raise UnsupportedObservable("Hamiltonian acts on the oscillator family only")
        return ket.hamiltonian()
    raise UnsupportedObservable(f"observable {obs.tag!r} has no action")


def apply_lz(state):
    return apply(LZ, state)


def apply_phi(state):
    return apply(PHI, state)


def inner_product(x, y):
    """(x, y), conjugate-linear in the first slot."""
    return lift(x).inner(lift(y))


class Lifted:
    """A view of one state and its ket ``psi``.

    Each value below is computed on first use and memoized per observable
    (object or tag) or pair in ``psi.memo``, the ket's own dict, so every
    ``Lifted`` of the same ket reads the values any of them computed.
    """

    __slots__ = ("state", "psi", "_memo")

    def __init__(self, state):
        self.state = state
        self.psi = lift(state)
        self._memo = self.psi.memo

    def acted(self, a):
        """A psi."""
        val = self._memo.get(("A", a))
        if val is None:
            val = self._memo["A", a] = apply(a, self.psi)
        return val

    def mean(self, a):
        """<A> = (psi, A psi); rejects non-Hermitian observables."""
        val = self._memo.get(("mean", a))
        if val is None:
            val = self._memo["mean", a] = self._mean(resolve_observable(a))
        return val

    def _mean(self, obs):
        if not obs.hermitian:
            raise UnsupportedObservable(
                f"mean: observable {obs.label!r} is not Hermitian; expectation undefined"
            )
        val = self.psi.inner(self.acted(obs))
        if abs(val.imag) > _MEAN_IMAG_TOL * max(1.0, abs(val.real)):
            raise ArithmeticError(
                f"mean of {obs.label}: imaginary residue {val.imag:.3e} exceeds {_MEAN_IMAG_TOL}"
            )
        return float(val.real)

    def deviation(self, a):
        """The deviation ket dA psi = A psi - <A> psi."""
        val = self._memo.get(("dA", a))
        if val is None:
            val = self._memo["dA", a] = self.acted(a).plus(self.psi.scaled(-self.mean(a)))
        return val

    def std(self, a):
        """Standard deviation, the norm of the deviation ket."""
        val = self._memo.get(("std", a))
        if val is None:
            val = self._memo["std", a] = self.deviation(a).norm()
        return val

    def cross(self, a, b):
        """(dA psi, dB psi)."""
        val = self._memo.get(("dA,dB", a, b))
        if val is None:
            val = self._memo["dA,dB", a, b] = self.deviation(a).inner(self.deviation(b))
        return val

    def expect2(self, a, b):
        """(psi, A B psi)."""
        val = self._memo.get(("AB", a, b))
        if val is None:
            val = self._memo["AB", a, b] = self.psi.inner(apply(a, self.acted(b)))
        return val

    def mismatch(self, a, b):
        """(A psi, B psi) - (psi, A B psi): one adjointness mismatch entry."""
        val = self._memo.get(("A,B", a, b))
        if val is None:
            val = self._memo["A,B", a, b] = self.acted(a).inner(self.acted(b)) - self.expect2(a, b)
        return val


def lifted(state):
    """``state`` itself if it is a ``Lifted``, else a new ``Lifted`` of it."""
    return state if isinstance(state, Lifted) else Lifted(state)


def mean(obs, state):
    """Expected value (psi, A psi); rejects non-Hermitian observables."""
    return lifted(state).mean(obs)


def deviation_vector(obs, state):
    """The deviation ket delta_A psi = A psi - <A> psi."""
    return lifted(state).deviation(obs)


def std_dev(obs, state):
    """Standard deviation, the norm of the deviation vector."""
    return lifted(state).std(obs)


def sphere_variances(state):
    """Closed-form variances for a fixed-l sphere state.

    var_Lz comes from the diagonal m sums; var_phi from the double sums
    over (Y_lm, phi Y_lr) and (Y_lm, phi^2 Y_lr), each of which factors
    into a theta overlap times a circle matrix element.
    """
    if not isinstance(state, SphereState):
        raise TypeError("sphere_variances: need a SphereState")
    l = state.l
    c = np.zeros(2 * l + 1, dtype=complex)
    for m, v in state.coefficients.items():
        c[m + l] = v
    mvals = np.arange(-l, l + 1)
    w = np.abs(c) ** 2
    mean_lz = state.hbar * float(w @ mvals)
    var_lz = state.hbar**2 * float(w @ mvals**2) - mean_lz**2
    overlap = _theta_overlap(l)
    phi1 = overlap * _phi_power_block(1, l)
    phi2 = overlap * _phi_power_block(2, l)
    mean_phi = (c.conj() @ phi1 @ c).real
    mean_phi2 = (c.conj() @ phi2 @ c).real
    return {"var_Lz": var_lz, "var_phi": float(mean_phi2 - mean_phi**2)}


def qtp_energy_mean(state):
    """<H> for the torsion pendulum; hbar omega (n + 1/2) on eigenstates."""
    if not isinstance(state, (OscillatorState, LineKet)):
        raise TypeError("qtp_energy_mean: need an oscillator state")
    return mean(HAMILTONIAN, state)


def commutator_residual(state, resolution=1024):
    """max interior |[L_z, phi] psi + i hbar psi| on a sampling grid.

    Evaluated with the grid oracle's differencing (one-sided stencils at
    the extremities, never wrap-around), so it is an independent check of
    the canonical commutator on the half-open range.
    """
    from . import oracle  # local import keeps module dependencies one-way

    if isinstance(state, PeriodicState):
        grid = oracle.circle_grid(resolution)
    elif isinstance(state, OscillatorState):
        grid = oracle.line_grid_for(state, n=resolution, half_width_floor=9.0, margin=5.0)
    else:
        raise TypeError("commutator_residual: circle or line families only")
    psi = oracle.sample(state, grid)
    phi = grid.points
    dpsi = oracle.numeric_derivative(psi, grid)
    dphipsi = oracle.numeric_derivative(phi * psi, grid)
    residual = state.hbar * np.abs(dphipsi - phi * dpsi - psi)
    return float(np.max(residual[2:-2]))
