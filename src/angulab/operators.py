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
under sin phi and cos phi lose less than eps outside it; a multiplier mode
beyond +-1 would lose more, so ``LineKet.mul_trig`` raises on one.

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
its ``state`` slot, and the ket answers every relation's reads from its
position in one stacked block.  The block holds the paper's four
observables, L_z, phi, sin phi and cos phi (``_PAPER``), in fixed slots,
and ``resolve_observable`` refuses any other, so every value depends on
the ket and the observables read only.  One block class serves both ket
classes.  Its stack holds psi and A psi on their common band, from one
matmul through a band map, the images of the band's basis kets under the
four, cached per ket class and band: built by ``apply`` on a Fourier band,
and the observables' matrices on a line band, which never grows.  P = (A
psi, B psi) and G = (dA psi, dB psi) are contractions against the band's
metric (the identity on the line).  E = (psi, A B psi) needs no A B psi:
psi's bra is pulled back through A by a form F_A, (x, A y) = x^* F_A y, the
metric times the transposed map of the second images (a view of the
block's own map on the line), and contracted with the stack of B psi.
Maps and forms hold L_z at hbar = 1, and hbar scales its slot and row after
each product, so no hbar enters a key.  A relation reads its entries in one
lookup: a pair read gives the means, standard deviations and cross
term, and apart from them the mismatches, their largest modulus and the
second-order products.  The same block gives the pendulum energy.
Ket coefficients are read-only.

A block serves a batch of kets.  ``lift_all`` stacks the kets of a sweep
that share a class, band and parameters (lo, depth, width, l and hbar on
the circle and sphere; band size, lam, hbar, J and omega on the line) on a
leading state axis, and the first read of any of them builds the block for
all.  Every array of the block leads with the batch's axes: one state axis
for a batch, none for a ket read alone, which is a batch of one and runs the
same code.  Each contraction is a stacked ``np.matmul`` (or a stacked
``np.linalg`` call for the Gram determinant and least eigenvalue) that
keeps the gemm shape of a ket alone and sums over no state, so a ket's
entries are the same bits in any batch; ``einsum`` and contractions across
states are not used, as they reorder sums.  The means a block computes are
checked per ket, when that ket reads an entry that depends on them.  Kets
and blocks form no reference cycle, so a block is freed with the last ket
that reads it.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import specfun
from .specfun import TWO_PI
from .states import OscillatorState, PeriodicState, SphereState, line_band

_MEAN_IMAG_TOL = 1e-10


class _lazy:
    """An attribute computed on first read and kept in the instance dict:
    ``functools.cached_property`` without the lock it takes on every first
    read before Python 3.12, about 1 us, which every block and ket pays per
    state."""

    def __init__(self, func):
        self.func, self.__doc__ = func, func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class UnsupportedObservable(ValueError):
    """Raised for an observable outside the paper's four or a read a family lacks."""


@dataclass(frozen=True, eq=False)
class Observable:
    """A named operator.

    ``fourier`` marks multiplication by sum_k f_k e^{i k phi}.  Observables
    compare and hash by identity, so lookups keyed on them stay cheap.
    """

    tag: str
    fourier: tuple = None


LZ = Observable("Lz")
PHI = Observable("Phi")
SIN_PHI = Observable("SinPhi", fourier=((1, -0.5j), (-1, 0.5j)))
COS_PHI = Observable("CosPhi", fourier=((1, 0.5 + 0.0j), (-1, 0.5 + 0.0j)))

# The paper's four observables, in the order of their slots in every block.
_PAPER = (LZ, PHI, SIN_PHI, COS_PHI)
_RESOLVE = {key: a for a in _PAPER for key in (a, a.tag)}


def resolve_observable(obs):
    """One of the paper's four observables, given as itself or by tag;
    UnsupportedObservable for any other observable or tag."""
    try:
        return _RESOLVE[obs]
    except KeyError:
        tag = getattr(obs, "tag", obs)
        raise UnsupportedObservable(f"observable {tag!r}: not Lz, Phi, SinPhi or CosPhi") from None


@lru_cache(maxsize=256)
def _slots(obs):
    """The block slot of each of the observables (objects or tags) ``obs``."""
    return tuple(_PAPER.index(resolve_observable(a)) for a in obs)


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

    A ket reads its entries at its position in its batch's block, as nested
    lists kept on first read (``_lazy``); the coefficients are read-only,
    so no entry can go stale.  The block holds the paper's four observables,
    so no value depends on what was read before.  ``pair`` gives a relation
    all its entries at once; the other reads give one entry each.  Every
    deviation entry waits for this ket's means, which are checked here.
    ``state`` is the state ``lift`` made the ket from, or None on a ket an
    operation returned.  ``batch`` is the ``_Batch`` the ket is stacked in
    and its position there: ``lift_all`` sets it, and the first read of a
    ket without one makes it a batch of one, with no state axis.  Only the
    subclasses have slots, their parameters (``_batch_key``).
    """

    def __init__(self, coeffs):
        coeffs.setflags(write=False)
        self.coeffs = coeffs
        self.state = None
        self.batch = None

    def _batch_key(self):
        """What kets must share to be stacked in one batch: class, shape and
        every parameter."""
        return (type(self), self.coeffs.shape) + tuple(getattr(self, k) for k in self.__slots__)

    def scaled(self, z):
        return self._like(z * self.coeffs)

    def _block(self, *obs):
        """The slot of each of ``obs`` in this ket's block; any other
        observable raises before the block is built."""
        index = _slots(obs)
        if self.batch is None:  # alone: a batch of one, with no state axis
            self.batch = _Batch(self.coeffs, self._like(self.coeffs)), ()
        return index

    def _at(self):
        """This ket's block and its position ``k`` (a tuple) on the batch's axes."""
        batch, k = self.batch
        return batch.block, k

    def _checked(self):
        """``_at``, once this ket's means pass their checks: every deviation
        entry depends on them."""
        self.means
        return self._at()

    @_lazy
    def means(self):
        """<A> = (psi, A psi) per observable."""
        block, k = self._at()
        vals = block.p[k][0, 1:].tolist()
        return [_real_mean(a.tag, val) for a, val in zip(_PAPER, vals)]

    @_lazy
    def gram(self):
        """(dA psi, dB psi) per pair of observables, as nested lists."""
        block, k = self._checked()
        return block.gram[k].tolist()

    @_lazy
    def stds(self):
        """The norm of each deviation ket."""
        return [math.sqrt(max(row[i].real, 0.0)) for i, row in enumerate(self.gram)]

    @_lazy
    def second(self):
        """(psi, A B psi), the mismatches and their largest 2 x 2 moduli."""
        block, k = self._at()
        products, entries, top = block.second
        return products[k].tolist(), entries[k].tolist(), top[k].tolist()

    def acted(self, a):
        """A psi, a row of the block's stack, as a ket."""
        (i,) = self._block(a)
        block, k = self._at()
        return block.ket(block.stack[k][i + 1])

    def deviation(self, a):
        """The deviation ket dA psi = A psi - <A> psi."""
        (i,) = self._block(a)
        block, k = self._checked()
        return block.ket(block.deviations[k][i])

    def gram_linalg(self, observables):
        """The Gram matrix of ``observables``, its determinant and least
        eigenvalue: this ket's part of ``_Block.gram_linalg``."""
        index = self._block(*observables)
        block, k = self._checked()
        gram, det, min_eig = block.gram_linalg(index)
        return gram[k], det[k], min_eig[k]

    def pair(self, a, b):
        """The ``_Pair`` read of observables a and b."""
        i, j = self._block(a, b)
        return _Pair(self, i, j)

    def mean(self, a):
        """<A> = (psi, A psi)."""
        (i,) = self._block(a)
        return self.means[i]

    def std(self, a):
        """Standard deviation, the norm of the deviation ket."""
        (i,) = self._block(a)
        return self.stds[i]

    def cross(self, a, b):
        """(dA psi, dB psi)."""
        i, j = self._block(a, b)
        return self.gram[i][j]

    def expect2(self, a, b):
        """(psi, A B psi)."""
        i, j = self._block(a, b)
        return self.second[0][i][j]

    def mismatch(self, a, b):
        """(A psi, B psi) - (psi, A B psi): one adjointness mismatch entry."""
        i, j = self._block(a, b)
        return self.second[1][i][j]


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

    @property
    def band(self):
        """(depth, width, lo), what this ket's band map depends on."""
        return self.coeffs.shape[-2:] + (self.lo,)

    @staticmethod
    def images(band):
        """The common band of ``band`` and its basis kets' images under the
        four observables at hbar = 1, one ``apply`` each, the positions of
        the basis kets on it, and the images on it, [observable, basis ket,
        (d, i)]."""
        depth, width, lo = band
        size = depth * width
        basis = FourierKet(np.eye(size, dtype=complex).reshape(size, 1, depth, width), lo, 1.0)
        images = [basis] + [apply(a, basis) for a in _PAPER]
        lo = min(ket.lo for ket in images)
        width = max(ket.lo + ket.coeffs.shape[-1] for ket in images) - lo
        depth = max(ket.coeffs.shape[-2] for ket in images)
        out = np.zeros((len(images), size, depth, width), dtype=complex)
        for slot, ket in zip(out, images):
            c = ket.coeffs[:, 0]  # (basis ket, depth, width)
            off = ket.lo - lo
            slot[:, : c.shape[1], off : off + c.shape[2]] = c
        psi = np.flatnonzero(out[0].any(0))  # where the basis kets sit
        return (depth, width, lo), psi, out[1:].reshape(len(_PAPER), size, -1)

    @staticmethod
    def metric(band, other):
        """The Gram matrix of ``band``'s basis kets against ``other``'s."""
        return _metric(*band[:2], *other[:2], other[2] - band[2])

    def from_row(self, row, band):
        """A ket with this ket's parameters from coefficients on ``band``."""
        return self._like(row.reshape((-1,) + band[:2]), band[2])


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

    def plus(self, other):
        a, b = _align_line(self, other)
        return self._like(a + b)

    def lz(self):
        # hbar last, as the band map scales its L_z slot
        return self._like(self.hbar * _ladder(self.coeffs, "Lz", float(self.lam)))

    def mul_phi(self):
        return self._like(_ladder(self.coeffs, "Phi", float(self.lam)))

    def mul_trig(self, fourier):
        mat = _line_mult_matrix(self.coeffs.shape[-1], float(self.lam), fourier)
        return self._like(self.coeffs @ mat.T)

    def inner(self, other):
        a, b = _align_line(self, other)
        return complex(np.vdot(a, b))

    def norm(self):
        return float(np.linalg.norm(self.coeffs))

    @property
    def band(self):
        """(dim, lam), what this ket's band map depends on."""
        return self.coeffs.shape[-1], float(self.lam)

    @staticmethod
    def images(band):
        """``band``, which never grows, the positions of its basis kets (all),
        and their images under the four observables at hbar = 1, with no
        product: the two diagonals of L_z and phi, and the multipliers'
        transposed matrices."""
        dim, lam = band
        out = np.zeros((len(_PAPER), dim, dim), dtype=complex)
        i = np.arange(dim - 1)
        for mat, a in zip(out, _PAPER):
            if a.fourier is None:
                mat[i, i + 1], mat[i + 1, i] = _ladder_diagonals(dim, a.tag, lam)
            else:
                mat[...] = _line_mult_matrix(dim, lam, a.fourier).T
        return band, slice(None), out

    metric = staticmethod(lambda band, other: None)  # the Hermite functions are orthonormal

    def from_row(self, row, band):
        return self._like(row.reshape(-1))


def _ladder_diagonals(dim, tag, lam):
    """The diagonals below and above the main one of L_z at hbar = 1 (tag
    "Lz") or phi on h_0..h_{dim-1}: i lam times sqrt(n/2) and -sqrt(n/2),
    as -i lam d/dxi, the derivative matrix being minus the odd ladder; or
    sqrt(n/2) over lam on both."""
    roots = np.sqrt(np.arange(1, dim) / 2.0) + 0j
    if tag == "Lz":
        return roots * (1j * lam), roots * (-1j * lam)
    return roots / lam, roots / lam


def _ladder(c, tag, lam):
    """L_z at hbar = 1 or phi on line coefficients ``c``, from the two
    diagonals: out_n = below_{n-1} c_{n-1} + above_n c_{n+1}."""
    below, above = _ladder_diagonals(c.shape[-1], tag, lam)
    out = np.empty(c.shape, dtype=complex)
    out[..., 0] = 0.0
    np.multiply(below, c[..., :-1], out=out[..., 1:])
    out[..., :-1] += above * c[..., 1:]
    return out


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
    e^{i k xi / lam} is the displacement D(i k / (lam sqrt 2)).  A line band
    holds the images of modes -1..1 only; any other raises."""
    out = np.zeros((dim, dim), dtype=complex)
    for k, coef in fourier:
        if abs(k) > 1:
            raise UnsupportedObservable(f"multiplier mode {k}: a line band holds modes -1..1 only")
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


# A batch holds at most this many bytes of ket coefficients, so that its
# block's arrays stay within a few MiB; a wide sphere ket reads alone.
_BATCH_BYTES = 2**16


def lift_all(states):
    """``lift`` of each of ``states``, in their order.  Kets of one class,
    band and set of parameters (``_batch_key``) are stacked in batches, and
    the first read of any ket of a batch builds its block for all of them;
    each ket's entries are the bits it gives when read alone.  A ket already
    in a batch keeps it."""
    kets = [lift(state) for state in states]
    groups = {}
    for ket in kets:
        if ket.batch is None:
            groups.setdefault(ket._batch_key(), []).append(ket)
    for group in groups.values():
        size = max(1, _BATCH_BYTES // group[0].coeffs.nbytes)
        for start in range(0, len(group), size):
            chunk = group[start : start + size]
            if len(chunk) > 1:  # a ket on its own reads alone
                like = chunk[0]._like(chunk[0].coeffs)
                batch = _Batch(np.array([ket.coeffs for ket in chunk]), like)
                for k, ket in enumerate(chunk):
                    ket.batch = batch, (k,)
    return kets


def apply(obs, state):
    """Act with an observable on a state or ket, returning a ket."""
    obs = resolve_observable(obs)
    ket = lift(state)
    if obs.fourier is not None:
        return ket.mul_trig(obs.fourier)
    return ket.lz() if obs is LZ else ket.mul_phi()


class _BandMap:
    """The images of one band's basis kets under the four observables, for
    either ket class: ``matrix[k, b, :]`` is observable k acting on basis
    ket b on the common band ``band``, where the basis kets sit at ``psi``,
    as the class's ``images`` writes it.  L_z, in slot 1 of ``act``'s
    output, is built at hbar = 1 and scaled in place by ``act``, so no hbar
    enters the key."""

    __slots__ = ("matrix", "band", "psi", "nbytes")

    def __init__(self, cls, band):
        self.band, self.psi, self.matrix = cls.images(band)
        self.matrix.setflags(write=False)
        self.nbytes = self.matrix.nbytes

    def act(self, x, hbar):
        """The kets ``x[..., ket, band]`` and their images at ``hbar``, as
        ``[..., slot, ket, common band]``: slot 0 is x placed on the common
        band, then one matmul per leading index and observable, each of the
        gemm shape of ``x[..., ket, band]`` alone."""
        slots = 1 + len(self.matrix), x.shape[-2], self.matrix.shape[-1]
        out = np.zeros(x.shape[:-2] + slots, dtype=complex)
        psi = out[..., 0, :, :]
        psi[..., self.psi] = x
        np.matmul(x[..., None, :, :], self.matrix, out=out[..., 1:, :, :])
        out[..., 1, :, :] *= hbar
        return out


# One map per (ket class, band): a block's own.  64 MiB holds a line block's
# map at the 1,024-row band cap (four observables of 16 MiB) or many of an
# l = 64 sphere block (2.2 MB).
_band_map = specfun.BytesLRU(_BandMap, budget=2**26)


def _forms(cls, band):
    """The forms F_k of the four observables on ``band`` of ket class ``cls``
    at hbar = 1, (x, A_k y) = x^* F_k y for x on that band and y on the band
    of its A psi rows: the metric of the two bands times the transposed map
    of A_k onto the second images.  Where the band does not grow, that map
    is the block's own one, else it is built here and not kept; with no
    metric (the line), F_k is a view of it."""
    first = _band_map(cls, band)
    second = first if first.band == band else _BandMap(cls, first.band)
    forms = second.matrix.swapaxes(-1, -2)
    metric = cls.metric(band, second.band)
    if metric is None:
        return forms
    out = metric @ forms  # (k, band, common band)
    out.setflags(write=False)
    return out


# The forms with a metric, per (ket class, band): none of the line's.  16 MiB
# holds many of an l = 64 sphere block (2.2 MB).
_bra_form = specfun.BytesLRU(_forms, budget=2**24)


class _Batch:
    """Kets of one class, band and set of parameters: ``coeffs`` stacks their
    coefficients on the batch's leading axes, one state axis for a batch
    from ``lift_all`` and none for a ket read alone.  ``block`` is the one
    ``_Block`` over all of them, built on the first read of any; ``like`` is
    a ket with their parameters and no reads of its own, so a ket and its
    batch form no reference cycle."""

    def __init__(self, coeffs, like):
        self.coeffs, self.like = coeffs, like

    @_lazy
    def block(self):
        return _Block(self.coeffs, self.like)


class _Block:
    """psi and A psi for the four observables of a batch of kets of either
    class on one band; every array leads with the batch's axes.

    ``stack[..., s, r, :]`` holds row r of psi (slot 0), then of A psi for
    L_z, phi, sin phi and cos phi (slots 1 to 4), from the kets' band map,
    and ``p`` their Gram matrices (X psi, Y psi).  The rest is computed on
    first use for every state at once: the deviation kets dA psi, explicit,
    from the unchecked real parts of the means, their Gram matrices, and
    the second-order products (psi, A B psi) with the mismatches.  Each
    contraction is a stacked ``np.matmul`` or linalg call that keeps the
    gemm shape of a ket alone and sums over no state, so a state's entries
    are the bits it gives alone.  A ket reads its own entries at its
    position and checks its means.  The ket class supplies its ``band``, the
    ``images`` of the band's basis kets, its ``metric`` and coefficients on
    the common band as a ket (``from_row``).
    """

    def __init__(self, coeffs, like):
        self.like = like
        self._map = _band_map(type(like), like.band)
        lead = coeffs.shape[: coeffs.ndim - like.coeffs.ndim]
        self._x = coeffs.reshape(lead + (-1, self._map.matrix.shape[1]))  # (..., rows, band)
        self.stack = self._map.act(self._x, like.hbar)
        self._metric = like.metric(self._map.band, self._map.band)
        self.p = self._gram(self.stack, self.stack)
        self.linalg = {}

    def _gram(self, x, y):
        """(x_i, y_j) per state over the block's common band: one metric
        matmul (none on the line), one contraction."""
        lead, metric = y.shape[:-2], self._metric
        if metric is not None:
            y = y.reshape(y.shape[:-3] + (-1, metric.shape[0])) @ metric.T
        return x.reshape(x.shape[:-2] + (-1,)).conj() @ y.reshape(lead + (-1,)).swapaxes(-1, -2)

    def ket(self, row):
        return self.like.from_row(row, self._map.band)

    @_lazy
    def deviations(self):
        """dA psi = A psi - <A> psi per state and observable."""
        s = self.stack
        return s[..., 1:, :, :] - self.p[..., 0, 1:].real[..., None, None] * s[..., :1, :, :]

    @_lazy
    def gram(self):
        """(dA psi, dB psi) per state and pair of observables."""
        return self._gram(self.deviations, self.deviations)

    @_lazy
    def second(self):
        """(psi, A B psi), the mismatch (A psi, B psi) - (psi, A B psi), and
        the largest modulus of the 2 x 2 mismatches over (A, B), from one
        ``np.abs``, per state and pair of observables.  (psi, A_k A_j psi)
        = (psi^* F_k) . A_j psi, with psi's bra pulled back through A_k by
        the form F_k of ``_forms`` at hbar = 1: one stacked product for the
        bras, one for their contraction with the stack of A psi, and hbar
        on the L_z row (0) after it.  A form with a metric is cached in
        ``_bra_form``; a line form is a view of the block's own map."""
        acted = self.stack[..., 1:, :, :]
        forms = (_forms if self._metric is None else _bra_form)(type(self.like), self.like.band)
        bras = self._x.conj()[..., None, :, :] @ forms  # [..., k, row, band]
        acted = acted.reshape(acted.shape[:-2] + (-1,))
        products = bras.reshape(bras.shape[:-2] + (-1,)) @ acted.swapaxes(-1, -2)
        products[..., 0, :] *= self.like.hbar
        entries = self.p[..., 1:, 1:] - products
        mod = np.abs(entries)
        diag = mod.diagonal(axis1=-2, axis2=-1)
        both = np.maximum(mod, mod.swapaxes(-1, -2))
        return products, entries, np.maximum(both, np.maximum(diag[..., :, None], diag[..., None, :]))

    def gram_linalg(self, index):
        """The Gram matrices of the observables at ``index``, their
        determinants and least eigenvalues, each from one stacked call over
        every state."""
        out = self.linalg.get(index)
        if out is None:
            g = self.gram.take(index, -2).take(index, -1)
            herm = 0.5 * (g + g.conj().swapaxes(-1, -2))
            out = self.linalg[index] = g, np.linalg.det(g), np.linalg.eigvalsh(herm)[..., 0]
        return out


def _real_mean(tag, val):
    """The real part of the mean ``val`` of ``tag``; ArithmeticError when its
    imaginary residue exceeds _MEAN_IMAG_TOL relative to it."""
    if abs(val.imag) > _MEAN_IMAG_TOL * max(1.0, abs(val.real)):
        raise ArithmeticError(
            f"mean of {tag}: imaginary residue {val.imag:.3e} exceeds {_MEAN_IMAG_TOL}"
        )
    return val.real


class _Pair:
    """A relation's entries for the observables in slots i and j of a ket,
    read from the ket on each access; the mismatch part never reads the
    means."""

    __slots__ = ("ket", "i", "j")

    def __init__(self, ket, i, j):
        self.ket, self.i, self.j = ket, i, j

    @property
    def moments(self):
        """(<A>, <B>, Delta A, Delta B, (dA psi, dB psi))."""
        ket, i, j = self.ket, self.i, self.j
        means, stds = ket.means, ket.stds
        return means[i], means[j], stds[i], stds[j], ket.gram[i][j]

    @property
    def mismatch(self):
        """(the 2 x 2 mismatches over (A, B), their largest modulus, (psi, A B
        psi), (psi, B A psi))."""
        (s, e, top), i, j = self.ket.second, self.i, self.j
        return [[e[i][i], e[i][j]], [e[j][i], e[j][j]]], top[i][j], s[i][j], s[j][i]


def mean(obs, state):
    """Expected value (psi, A psi)."""
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
    i, j = ket._block(LZ, PHI)
    s = ket.second[0]  # (psi, A B psi)
    energy = s[i][i] / (2.0 * ket.inertia) + 0.5 * ket.inertia * ket.frequency**2 * s[j][j]
    return _real_mean("Hamiltonian", energy)

