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
and multiplication by e^{i k phi}, phi = xi / lam, is the displacement
D(i k / (lam sqrt 2)), whose matrix elements come from a stable Laguerre
recurrence (``specfun.displacement_matrix``).  A line ket holds the band
``states.line_band`` sizes from its top index and lam, so that the images
under sin phi and cos phi lose less than eps outside it.

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

Kets may carry leading axes that stack several kets on one band; every
operator acts on each alike.  ``lift`` records the state a ket came from in
its ``state`` slot, and the ket answers every relation's reads from one
stacked block per set of observables, kept in its memo dict: psi and A psi
for each observable on their common band, then A B psi for every ordered
pair, each filled by one action of the ket's class on the whole stack, and
three contractions against the metric (a plain conj . x on the line) for the
Gram matrix P = (A psi, B psi), the deviation Gram G = (dA psi, dB psi) from
explicit deviation kets, and E = (psi, A B psi).  A Fourier ket acts through
a band map: the images of its band's basis kets under every observable of
the block, on their common band, built once per (depth, width, lo,
observables) from ``apply`` itself and cached within a byte budget.  Its L_z
slots are built at hbar = 1 and scaled in place, so no hbar enters the key,
and one matmul acts on every row of a sphere ket.  A line ket's band never
grows, so each action writes in place into one preallocated stack.  A
relation reads its entries in one lookup: a pair read kept on the block
holds the means, standard deviations and cross term, and apart from them the
mismatches, their largest modulus and the second-order products.  Reads
among L_z, phi, sin phi and cos phi share one block; any other read gets a
block of its own observables, in order of tag, so every value depends on the
ket and the observables read only.  A psi is a row of the block's stack and
the pendulum energy comes from its second-order products, so the paper's
relations need no other block.  Ket coefficients are read-only so that the
memo cannot go stale.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import specfun
from .specfun import TWO_PI
from .states import OscillatorState, PeriodicState, SphereState, line_band

_MEAN_IMAG_TOL = 1e-10


class UnsupportedObservable(ValueError):
    """Raised when an observable does not act on the given family."""


@dataclass(frozen=True, eq=False)
class Observable:
    """A named operator.

    ``fourier`` marks multiplication by sum_k f_k e^{i k phi}.  ``hermitian``
    gates the mean / standard-deviation paths.  Observables compare and hash
    by identity, so memo lookups keyed on them stay cheap.
    """

    tag: str
    hermitian: bool = True
    fourier: tuple = None


LZ = Observable("Lz")
PHI = Observable("Phi")
PHI2 = Observable("Phi2")
SIN_PHI = Observable("SinPhi", fourier=((1, -0.5j), (-1, 0.5j)))
COS_PHI = Observable("CosPhi", fourier=((1, 0.5 + 0.0j), (-1, 0.5 + 0.0j)))

_BY_TAG = {o.tag: o for o in (LZ, PHI, PHI2, SIN_PHI, COS_PHI)}


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


class Ket:
    """The reads shared by both ket classes.

    Every read goes through a block memoized in ``memo``, the ket's own
    dict; the coefficients are read-only, so the memo cannot go stale.
    Reads among the paper's four observables share one block; a read of any
    other observable uses a block of the observables it names, so no value
    depends on what was read before.  ``pair`` gives a relation all its
    entries at once; the other reads give one entry each.  ``state`` is the
    state ``lift`` made the ket from, or None on a ket an operation returned.
    """

    __slots__ = ("coeffs", "memo", "state")

    def __init__(self, coeffs):
        coeffs.setflags(write=False)
        self.coeffs = coeffs
        self.memo = {}
        self.state = None

    def acted(self, a):
        """A psi, a row of the block's stack."""
        block, (i,) = self._block(a)
        return block.ket(block.stack[i + 1])

    def _block(self, *obs):
        """The block for a read of ``obs`` and the index of each of them in it."""
        key, index = _block_key(obs)
        block = self.memo.get(key)
        if block is None:
            block = self.memo[key] = _BLOCKS[type(self)](self, key)
        return block, index

    def pair(self, a, b):
        """The ``_Pair`` read of observables a and b, built once per block."""
        block, (i, j) = self._block(a, b)
        return block.pairs.get((i, j)) or block.pairs.setdefault((i, j), _Pair(block, i, j))

    def mean(self, a):
        """<A> = (psi, A psi); rejects non-Hermitian observables."""
        block, (i,) = self._block(a)
        return block.means[i]

    def deviation(self, a):
        """The deviation ket dA psi = A psi - <A> psi."""
        block, (i,) = self._block(a)
        return block.ket(block.deviations[i])

    def std(self, a):
        """Standard deviation, the norm of the deviation ket."""
        block, (i,) = self._block(a)
        return block.stds[i]

    def cross(self, a, b):
        """(dA psi, dB psi)."""
        block, (i, j) = self._block(a, b)
        return block.gram[i][j]

    def expect2(self, a, b):
        """(psi, A B psi)."""
        block, (i, j) = self._block(a, b)
        return block.second[0][i][j]

    def mismatch(self, a, b):
        """(A psi, B psi) - (psi, A B psi): one adjointness mismatch entry."""
        block, (i, j) = self._block(a, b)
        return block.second[1][i][j]


class FourierKet(Ket):
    """Exact representation sum_d phi^d * sum_k u_{d k} e^{i k phi} on [0, 2 pi), per row.

    ``coeffs[..., r, d, i]`` is u_{d k} of row r at mode k = lo + i: each ket
    holds only its own band of modes lo .. lo + width - 1.  A circle ket has
    one row; a sphere ket at fixed ``l`` has 2l+1 rows, already multiplied
    by the root of the theta overlap, so the inner product is a plain sum
    over rows.  No operator mixes rows.  Leading axes, if any, stack kets on
    one band; L_z, phi and trigonometric multiplication act on each alike.
    """

    __slots__ = ("lo", "hbar", "l")

    def __init__(self, coeffs, lo, hbar, l=None):
        super().__init__(coeffs)  # shape (..., rows, depth, width), complex
        self.lo = lo
        self.hbar = hbar
        self.l = l

    @property
    def family(self):
        return "periodic" if self.l is None else "sphere"

    def _like(self, coeffs, lo=None):
        return FourierKet(coeffs, self.lo if lo is None else lo, self.hbar, self.l)

    def scaled(self, z):
        return self._like(z * self.coeffs)

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
        k = self.lo + np.arange(c.shape[-1])
        out = (self.hbar * k) * c
        depth = c.shape[-2]
        if depth > 1:
            d = np.arange(1, depth)[:, None]
            out[..., :-1, :] += -1j * self.hbar * d * c[..., 1:, :]
        return self._like(out)

    def mul_phi(self):
        c = self.coeffs
        out = np.zeros(c.shape[:-2] + (c.shape[-2] + 1, c.shape[-1]), dtype=complex)
        out[..., 1:, :] = c
        return self._like(out)

    def mul_trig(self, fourier):
        low = min(k for k, _ in fourier)
        high = max(k for k, _ in fourier)
        c = self.coeffs
        width = c.shape[-1]
        out = np.zeros(c.shape[:-1] + (width + high - low,), dtype=complex)
        for k, coef in fourier:
            out[..., k - low : k - low + width] += coef * c
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


class LineKet(Ket):
    """Hermite-band vector with the pendulum's scale parameters attached.

    Leading axes, if any, stack kets of one band, as for ``FourierKet``.
    """

    __slots__ = ("lam", "hbar", "inertia", "frequency")

    def __init__(self, coeffs, lam, hbar, inertia, frequency):
        super().__init__(coeffs)  # shape (..., K), complex
        self.lam = lam
        self.hbar = hbar
        self.inertia = inertia
        self.frequency = frequency

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

    def fill(self, obs, c, out):
        """Write A c into ``out`` for coefficients ``c`` on this ket's band.

        L_z, phi and trigonometric multiplication write in place; any other
        observable acts through ``apply``.  The band never grows, so ``c``
        may be any stack of kets and ``out`` any array of its shape.
        """
        if obs.fourier is not None:
            mat = _line_mult_matrix(c.shape[-1], float(self.lam), obs.fourier)
            np.matmul(c, mat.T, out=out)
        elif obs.tag == "Lz":
            # -i hbar lam d/dxi; the derivative matrix is minus the odd ladder
            _ladder(c, -1.0, out)
            out *= 1j * self.hbar * self.lam
        elif obs.tag == "Phi":
            _ladder(c, +1.0, out)
            out /= self.lam
        else:
            out[...] = apply(obs, self._like(c)).coeffs
        return out

    def lz(self):
        return self._like(self.fill(LZ, self.coeffs, np.empty_like(self.coeffs)))

    def mul_phi(self):
        return self._like(self.fill(PHI, self.coeffs, np.empty_like(self.coeffs)))

    def mul_trig(self, fourier):
        mat = _line_mult_matrix(self.coeffs.shape[-1], float(self.lam), fourier)
        return self._like(self.coeffs @ mat.T)

    def inner(self, other):
        a, b = _align_line(self, other)
        return complex(np.vdot(a, b))

    def norm(self):
        return float(np.linalg.norm(self.coeffs))


@lru_cache(maxsize=None)
def _ladder_roots(dim):
    """sqrt(n/2) for n = 1 .. dim - 1, the weights of both Hermite ladders."""
    out = np.sqrt(np.arange(1, dim) / 2.0)
    out.setflags(write=False)
    return out


def _ladder(c, sign, out):
    """out_n = sqrt(n/2) c_{n-1} + sign * sqrt((n+1)/2) c_{n+1}, in place."""
    roots = _ladder_roots(c.shape[-1])
    out[..., 0] = 0.0
    np.multiply(roots, c[..., :-1], out=out[..., 1:])
    out[..., :-1] += sign * roots * c[..., 1:]


def _align_line(x, y):
    if type(y) is not LineKet:
        raise _space_error(x, y)
    a, b = x.coeffs, y.coeffs
    size = max(a.shape[-1], b.shape[-1])
    return _pad_line(a, size), _pad_line(b, size)


def _pad_line(c, size):
    if c.shape[-1] == size:
        return c
    out = np.zeros(c.shape[:-1] + (size,), dtype=complex)
    out[..., : c.shape[-1]] = c
    return out


def _trig_matrix(dim, lam, fourier):
    """Matrix of f(phi) = sum_k f_k e^{i k phi} on h_0..h_{dim-1}, phi = xi/lam:
    e^{i k xi / lam} is the displacement D(i k / (lam sqrt 2))."""
    out = np.zeros((dim, dim), dtype=complex)
    for k, coef in fourier:
        out += coef * specfun.displacement_matrix(1j * k / (lam * math.sqrt(2.0)), dim)
    out.setflags(write=False)
    return out


# One matrix per (dim, lam, fourier); 64 MiB holds sin and cos at the band cap.
_line_mult_matrix = specfun.BytesLRU(_trig_matrix, budget=2**26)


# -- lifting and operator dispatch -------------------------------------------


def lift(state):
    """Coefficient-space ket for a state, with the state recorded in its
    ``state`` slot; kets pass through unchanged."""
    if isinstance(state, Ket):
        return state
    if isinstance(state, PeriodicState):
        lo = min(state.coefficients)
        coeffs = np.zeros((1, 1, max(state.coefficients) - lo + 1), dtype=complex)
        for m, a in state.coefficients.items():
            coeffs[0, 0, m - lo] = a
        ket = FourierKet(coeffs, lo, state.hbar)
    elif isinstance(state, OscillatorState):
        coeffs = np.zeros(line_band(max(state.coefficients), state.scale), dtype=complex)
        for n, b in state.coefficients.items():
            coeffs[n] = b
        ket = LineKet(coeffs, state.scale, state.hbar, state.inertia, state.frequency)
    elif isinstance(state, SphereState):
        l = state.l
        c = np.array([state.coefficients.get(m, 0.0) for m in range(-l, l + 1)], dtype=complex)
        # row r holds sum_m root[r, m] c_m e^{i m phi}, on the band -l..l
        coeffs = (_theta_overlap_root(l) * c)[:, None, :]
        ket = FourierKet(coeffs, -l, state.hbar, l)
    else:
        raise TypeError(f"lift: unsupported state type {type(state)!r}")
    ket.state = state
    return ket


def apply(obs, state):
    """Act with an observable on a state or ket, returning a ket."""
    obs = resolve_observable(obs)
    ket = lift(state)
    if obs.fourier is not None:
        return ket.mul_trig(obs.fourier)
    if obs.tag == "Lz":
        return ket.lz()
    if obs.tag == "Phi":
        return ket.mul_phi()
    if obs.tag == "Phi2":
        return ket.mul_phi().mul_phi()
    raise UnsupportedObservable(f"observable {obs.tag!r} has no action")


# The observables whose reads share one block: the four of the paper.  A read
# that involves any other observable gets a block of its own observables.
_PAPER = (LZ, PHI, SIN_PHI, COS_PHI)


class _BandMap:
    """The images of one band's basis kets under a tuple of slots, on their
    common band: ``matrix[s, b, (d, i)]`` is coefficient (d, i) of slot s
    acting on basis ket b.  A slot is an observable, or psi itself (the
    identity) when the map leads with it.  L_z slots are built at hbar = 1
    and scaled in place by ``act``, so no hbar enters the key."""

    __slots__ = ("matrix", "lo", "depth", "width", "_lz", "nbytes")

    def __init__(self, depth, width, lo, obs, with_psi):
        size = depth * width
        basis = FourierKet(np.eye(size, dtype=complex).reshape(size, 1, depth, width), lo, 1.0)
        images = ([basis] if with_psi else []) + [apply(a, basis) for a in obs]
        self.lo = min(ket.lo for ket in images)
        self.width = max(ket.lo + ket.coeffs.shape[-1] for ket in images) - self.lo
        self.depth = max(ket.coeffs.shape[-2] for ket in images)
        out = np.zeros((len(images), size, self.depth, self.width), dtype=complex)
        for slot, ket in zip(out, images):
            c = ket.coeffs[:, 0]  # (basis ket, depth, width)
            off = ket.lo - self.lo
            slot[:, : c.shape[1], off : off + c.shape[2]] = c
        self.matrix = out.reshape(len(images), size, -1)
        self.matrix.setflags(write=False)
        self.nbytes = self.matrix.nbytes
        first = len(images) - len(obs)
        self._lz = [s for s, a in enumerate(obs, first) if a.fourier is None and a.tag == "Lz"]

    def act(self, x, hbar):
        """The images ``[slot, ket, band]`` of the kets ``x[ket, band]`` at ``hbar``."""
        out = np.matmul(x, self.matrix)
        for s in self._lz:
            out[s] *= hbar
        return out


# One map per (depth, width, lo, observables, with_psi); 16 MiB holds both
# maps of an l = 64 sphere block (9.4 MB).
_band_map = specfun.BytesLRU(_BandMap, budget=2**24)


class _Block:
    """psi and A psi for the observables ``obs`` of one ket, on one band.

    ``stack`` holds psi, then A psi for each observable in order, filled by
    one action of the ket's class on the whole stack, and ``p`` their Gram
    matrix (X psi, Y psi).  The rest is computed on first use, as nested
    lists read by index: the checked means, the deviation Gram (dA psi, dB
    psi) from explicit deviation kets and its standard deviations, and the
    second-order products (psi, A B psi), from one more action of the class
    on the stack of A psi, with the mismatches; ``pairs`` keeps the
    ``_Pair`` reads.  Every entry depends on the ket and ``obs`` only.  Each
    ket class has a subclass that supplies the stack (``_fill``), the
    contraction on its band (``_gram``), the second-order products
    (``_second``) and a row of a stack as a ket (``ket``).
    """

    def __init__(self, psi, obs):
        self.psi, self.obs = psi, obs
        self.stack = self._fill()
        self.p = self._gram(self.stack, self.stack)
        self.pairs = {}

    @cached_property
    def means(self):
        """<A> = (psi, A psi) per observable; rejects non-Hermitian observables."""
        out = []
        for a, val in zip(self.obs, self.p[0, 1:].tolist()):
            if not a.hermitian:
                raise UnsupportedObservable(
                    f"mean: observable {a.tag!r} is not Hermitian; expectation undefined"
                )
            out.append(_real_mean(a.tag, val))
        return out

    @cached_property
    def deviations(self):
        """The stack of dA psi = A psi - <A> psi, one per observable."""
        s = self.stack
        means = np.array(self.means).reshape((-1,) + (1,) * (s.ndim - 1))
        return s[1:] - means * s[0]

    @cached_property
    def gram(self):
        """(dA psi, dB psi) per pair of observables."""
        return self._gram(self.deviations, self.deviations).tolist()

    @cached_property
    def stds(self):
        """The norm of each deviation ket."""
        return [math.sqrt(max(row[i].real, 0.0)) for i, row in enumerate(self.gram)]

    @cached_property
    def second(self):
        """(psi, A B psi), the mismatch (A psi, B psi) - (psi, A B psi), and
        the largest modulus of the 2 x 2 mismatches over (A, B), from one
        ``np.abs``, per pair of observables."""
        products = self._second()
        entries = self.p[1:, 1:] - products
        mod = np.abs(entries)
        top = np.maximum(np.maximum(mod, mod.T), np.maximum.outer(mod.diagonal(), mod.diagonal()))
        return products.tolist(), entries.tolist(), top.tolist()


def _real_mean(tag, val):
    """The real part of the mean ``val`` of ``tag``; ArithmeticError when its
    imaginary residue exceeds _MEAN_IMAG_TOL relative to it."""
    if abs(val.imag) > _MEAN_IMAG_TOL * max(1.0, abs(val.real)):
        raise ArithmeticError(
            f"mean of {tag}: imaginary residue {val.imag:.3e} exceeds {_MEAN_IMAG_TOL}"
        )
    return val.real


class _Pair:
    """A relation's entries for A = obs[i], B = obs[j] of a block, each part
    read on first use; the mismatch part never reads the means, so it also
    serves observables that are not Hermitian."""

    __slots__ = ("block", "i", "j", "_moments", "_mismatch")

    def __init__(self, block, i, j):
        self.block, self.i, self.j, self._moments, self._mismatch = block, i, j, None, None

    @property
    def moments(self):
        """(<A>, <B>, Delta A, Delta B, (dA psi, dB psi))."""
        if self._moments is None:
            b, i, j = self.block, self.i, self.j
            self._moments = b.means[i], b.means[j], b.stds[i], b.stds[j], b.gram[i][j]
        return self._moments

    @property
    def mismatch(self):
        """(the 2 x 2 mismatches over (A, B), their largest modulus, (psi, A B
        psi), (psi, B A psi))."""
        if self._mismatch is None:
            (s, e, top), i, j = self.block.second, self.i, self.j
            self._mismatch = [[e[i][i], e[i][j]], [e[j][i], e[j][j]]], top[i][j], s[i][j], s[j][i]
        return self._mismatch


class _FourierBlock(_Block):
    """A circle or sphere block: the stack is ``(slot, rows, depth * width)``,
    filled through cached band maps, each one matmul over every row."""

    def _fill(self):
        psi = self.psi
        depth, width = psi.coeffs.shape[-2:]
        self._x = psi.coeffs.reshape(-1, depth * width)  # (rows, band)
        self._map = _band_map(depth, width, psi.lo, self.obs, True)
        return self._map.act(self._x, psi.hbar)

    def _gram(self, x, y):
        """(x_i, y_j) over the block's band: one metric matmul, one contraction."""
        band = self._map
        metric = _metric(band.depth, band.width, band.depth, band.width, 0)
        my = y.reshape(-1, metric.shape[0]) @ metric.T
        return x.reshape(len(x), -1).conj() @ my.reshape(len(y), -1).T

    def _second(self):
        band, psi = self._map, self.psi
        top = _band_map(band.depth, band.width, band.lo, self.obs, False)
        acted = self.stack[1:].reshape(-1, band.depth * band.width)
        twice = top.act(acted, psi.hbar)  # [k, (j, rows), band]: A_k A_j psi
        depth, width = psi.coeffs.shape[-2:]
        metric = _metric(depth, width, top.depth, top.width, top.lo - psi.lo)
        n = len(self.obs)
        return twice.reshape(n, n, -1) @ (self._x.conj() @ metric).reshape(-1)

    def ket(self, row):
        band, psi = self._map, self.psi
        return FourierKet(row.reshape(-1, band.depth, band.width), band.lo, psi.hbar, psi.l)


class _LineBlock(_Block):
    """An oscillator block: the Hermite band never grows, so each action
    writes in place into one preallocated stack."""

    def _fill(self):
        c = self.psi.coeffs
        out = np.empty((len(self.obs) + 1,) + c.shape, dtype=complex)
        out[0] = c
        for a, row in zip(self.obs, out[1:]):
            self.psi.fill(a, c, row)
        return out

    def _gram(self, x, y):
        return x.conj() @ y.T

    def _second(self):
        acted = self.stack[1:]
        out = np.empty((len(self.obs),) + acted.shape, dtype=complex)
        for a, part in zip(self.obs, out):
            self.psi.fill(a, acted, part)  # part[j] = A_k A_j psi
        return out @ self.psi.coeffs.conj()

    def ket(self, row):
        return self.psi._like(row)


_BLOCKS = {FourierKet: _FourierBlock, LineKet: _LineBlock}


@lru_cache(maxsize=256)
def _block_key(obs):
    """The observables (objects or tags) ``obs`` of a read resolved into the
    observables of the block that serves it, and the index of each in it.
    Any read among the paper's four gets their block; the observables of any
    other read are put in order of tag, so the reads (A, B) and (B, A) share
    a block."""
    obs = tuple(map(resolve_observable, obs))
    key = tuple(dict.fromkeys(obs))
    key = _PAPER if all(a in _PAPER for a in key) else tuple(sorted(key, key=lambda a: a.tag))
    return key, tuple(map(key.index, obs))


def mean(obs, state):
    """Expected value (psi, A psi); rejects non-Hermitian observables."""
    return lift(state).mean(obs)


def deviation_vector(obs, state):
    """The deviation ket delta_A psi = A psi - <A> psi."""
    return lift(state).deviation(obs)


def std_dev(obs, state):
    """Standard deviation, the norm of the deviation vector."""
    return lift(state).std(obs)


def sphere_variances(state):
    """Closed-form variances for a fixed-l sphere state.

    var_Lz comes from the diagonal m sums; var_phi from the double sums
    over (Y_lm, phi Y_lr) and (Y_lm, phi^2 Y_lr), each of which factors
    into a theta overlap times a circle matrix element.
    """
    if not isinstance(state, SphereState):
        raise TypeError("sphere_variances: need a SphereState")
    l = state.l
    c = np.array([state.coefficients.get(m, 0.0) for m in range(-l, l + 1)], dtype=complex)
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
    """<H> = <L_z^2> / 2J + J omega^2 <phi^2> / 2 for the torsion pendulum,
    from the second-order products of its (L_z, phi) block; hbar omega (n +
    1/2) on eigenstates."""
    ket = lift(state)
    if not isinstance(ket, LineKet):
        raise TypeError("qtp_energy_mean: need an oscillator state")
    block, (i, j) = ket._block(LZ, PHI)
    s = block.second[0]  # (psi, A B psi)
    energy = s[i][i] / (2.0 * ket.inertia) + 0.5 * ket.inertia * ket.frequency**2 * s[j][j]
    return _real_mean("Hamiltonian", energy)


def commutator_residual(state, resolution=1024):
    """max interior |[L_z, phi] psi + i hbar psi| on a grid of ``resolution``
    nodes: the grid oracle's commutator value, differenced with one-sided
    stencils at the extremities and never wrapped, so an independent check
    of the canonical commutator on the half-open range."""
    from . import oracle  # local import keeps module dependencies one-way

    if isinstance(state, PeriodicState):
        grid = oracle.circle_grid(resolution)
    elif isinstance(state, OscillatorState):
        grid = oracle.line_grid_for(state, n=resolution, half_width_floor=9.0, margin=5.0)
    else:
        raise TypeError("commutator_residual: circle or line families only")
    return oracle.relation_values(oracle.Sampled(state, grid), "commutator")["residual"]
