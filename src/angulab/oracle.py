"""Brute-force grid oracle: every inner product, moment, and mismatch
recomputed from samples of the wave function, never from the spectral
matrices.

Derivatives use fourth-order central differences in the interior and
one-sided stencils at the extremities of the range; the circle is treated
as the half-open interval [0, 2 pi), never wrapped, which matches the
one-sided-derivative reading of the commutation relation there.

Quadrature is the uniform midpoint rule on the circle (and in the sphere's
azimuthal direction), the plain uniform rule on a truncated line where
the integrands have Gaussian tails, and Gauss-Legendre in cos(theta).
Every observable acts along phi alone, so a sphere state
sum_m theta_lm(theta) c_m e^{i m phi} / sqrt(2 pi) is kept as its phi
factor, and theta is integrated through the Gram matrix G of the sampled
theta_lm under the oracle's own Gauss-Legendre rule (``theta_gram``).
Row -m of the theta table is (-1)^m times row m, so G has rank l + 1 and a
real factor F, (2l + 1) x (l + 1), with F F^T = G (``theta_factor``).
``sample`` gives the l + 1 rows F^T psi of the phi rows
psi_m = c_m e^{i m phi} / sqrt(2 pi), each a combination of 1, cos m phi
and sin m phi, so the 2l + 1 rows are never formed; every action,
deviation and inner product runs on them: (f, G g) = (F^T f, F^T g).

The phases come from two byte-bounded caches of read-only arrays, keyed
on the grid object (a ``Grid1D`` hashes by identity) and least recently
used out first: ``phase_rows`` keeps the row e^{i m x} per (grid, m >= 1)
of any ``Grid1D``, and ``phase_tables`` the sphere's (n, 2l + 1) table per
(phi grid, l), copied from those rows.  A negative m takes the conjugate
of its positive row, which equals the direct exponential bit for bit,
and m = 0 adds its coefficient as a scalar.  Circle states sum their
modes in coefficient order, each product of a scalar and a grid array
array-first as numpy orders ``arr * a`` at every size, so they equal
``states.evaluate`` exactly; line states are still sampled by it.  sin
phi and cos phi are the imaginary and real parts of the row e^{i phi},
not sums of the ket algebra's Fourier coefficients.

The kernels write in place: ``act`` and ``numeric_derivative`` fill an
``out`` array and overwrite a ``scratch`` one when given them.
``numeric_derivative`` adds the four stencil terms in the order of the
plain expression and scales by 1 / h.  numpy divides a complex x + i y by
a real h as ((x + 0 y) (1 / h), (y - 0 x) (1 / h)), so multiplying both
parts by 1 / h gives the same bits in a fraction of the time, except that
an exact zero may keep a sign the division flips.  ``quad_inner`` is one
BLAS dot (``np.vdot``) per inner product on every grid.  A sphere
sample is one real gemm of the table by the float view of the complex
coefficients (a complex gemm would cast the table and cost about three
times as much), into the (n, l + 1) transpose that one copy lays out as
rows (l + 1 two-column gemms into the rows' float view took 1.5 times as
long).  A deviation ket A psi - <A> psi is built in the buffer of <A> psi.
``circle_grid`` and ``line_grid`` are memoized with read-only points, so a
grid from ``default_grid`` finds its cached rows.  Only the
inner products' round-off differs from sum conj(f) g: OpenBLAS splits a
long dot across its threads, so the last bits of an oracle value follow
the BLAS thread count (about 1e-14 relative between 1 and 2 threads at
32768 nodes), and runs at one thread count print the same bytes.

A ``Sampled`` acts into one work block, allocated with ``np.empty`` on
its first action: a row of the samples' shape for each first-order
action, one for a second-order product and one scratch row (3 MiB at
32768 nodes); the last two also hold the first two deviation kets of a
reduction.  The block is there for glibc's malloc, which maps any
allocation above its mmap threshold fresh, faulting it in page by page,
and raises that threshold to the size of a mapping when it is freed,
with the heap's trim threshold at twice that.  Separate 512 KiB arrays
held them near 512 KiB and 1 MiB, so the heap top went back to the
kernel after every state and came back as minor page faults: about 700
per circle op and 340-530 per sphere op.  Once one block has been freed,
the next block and every smaller array come from a heap that stays
mapped, and a warm op takes no fault.

``relation_values`` reads a registry relation, looked up by name in
``RELATION_VALUES``, from a ``Sampled``: one state sampled once, keeping
the samples, the work block and scalars only; every registry
relation has an entry.  Observable tags resolve through
``operators.resolve_observable``, and each action is chosen by tag;
nothing comes from ``relations``.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import operators, specfun, states
from .specfun import TWO_PI

DEFAULT_CIRCLE_N = 32768
DEFAULT_LINE_N = 4096
DEFAULT_SPHERE_THETA = 128
DEFAULT_SPHERE_PHI = 4096


@dataclass(frozen=True, eq=False)
class Grid1D:
    """Nodes of a 1D grid; it hashes by identity, the key of its phase rows."""

    points: np.ndarray  # strictly increasing; excludes 2 pi on the circle
    spacing: float
    domain: str  # "circle" | "line"


@dataclass(frozen=True)
class Grid2D:
    theta_rule: specfun.QuadratureRule  # Gauss-Legendre in cos(theta)
    phi_grid: Grid1D


@lru_cache(maxsize=4)
def circle_grid(n=DEFAULT_CIRCLE_N):
    """Midpoint nodes (i + 1/2) h on [0, 2 pi), h = 2 pi / n; the last four
    sizes are memoized and shared, so the points are read-only."""
    if n < 8:
        raise ValueError("circle_grid: need n >= 8")
    h = TWO_PI / n
    points = (np.arange(n) + 0.5) * h
    points.flags.writeable = False
    return Grid1D(points=points, spacing=h, domain="circle")


@lru_cache(maxsize=4)
def line_grid(half_width, n=DEFAULT_LINE_N):
    """n uniform nodes on [-half_width, half_width], both ends included; the
    last four are memoized and shared, so the points are read-only."""
    if n < 8:
        raise ValueError("line_grid: need n >= 8")
    pts, h = np.linspace(-half_width, half_width, n, retstep=True)
    pts.flags.writeable = False
    return Grid1D(points=pts, spacing=float(h), domain="line")


def line_grid_for(state, n=DEFAULT_LINE_N, half_width_floor=12.0, margin=8.0):
    """Grid wide enough that the state's Gaussian tail mass is negligible.

    Hermite-function support grows like sqrt(2 n + 1); the floor keeps the
    default window at 12 / lam for low quantum numbers.
    """
    nmax = max(state.coefficients)
    half = max(half_width_floor, np.sqrt(2.0 * nmax + 1.0) + margin) / state.scale
    return line_grid(float(half), n)


def sphere_grid(n_theta=DEFAULT_SPHERE_THETA, n_phi=DEFAULT_SPHERE_PHI):
    return Grid2D(theta_rule=specfun.gauss_legendre(n_theta), phi_grid=circle_grid(n_phi))


@lru_cache(maxsize=16)
def theta_gram(l, n_theta):
    """G[m, m'] = sum_i w_i theta_lm(theta_i) theta_lm'(theta_i) over the
    n_theta-node Gauss-Legendre rule in cos(theta), rows m = -l..l;
    memoized per (l, n_theta) and shared, so it is read-only."""
    rule = specfun.gauss_legendre(n_theta)
    table = specfun.theta_lm_table(l, np.arccos(rule.nodes))
    gram = (table * rule.weights) @ table.T
    gram.flags.writeable = False
    return gram


@lru_cache(maxsize=16)
def theta_factor(l, n_theta):
    """F, (2l + 1) x (l + 1), with F F^T = ``theta_gram(l, n_theta)``.  Row -m
    of the theta table is (-1)^m times row m, so row -m of F is (-1)^m times
    row m, and rows m = 0..l are the Cholesky factor of the Gram's m >= 0
    block, which is positive definite once there are l + 1 nodes; memoized
    per (l, n_theta) and shared, so it is read-only."""
    if n_theta <= l:
        raise ValueError(f"theta_factor: l = {l} needs at least l + 1 theta nodes, got {n_theta}")
    m = np.arange(-l, l + 1)
    chol = np.linalg.cholesky(theta_gram(l, n_theta)[l:, l:])
    factor = (-1.0) ** np.minimum(m, 0)[:, None] * chol[np.abs(m)]
    factor.flags.writeable = False
    return factor


def _phase_row(grid, m):
    """The read-only row e^{i m x_j}, m >= 1, over the nodes of the Grid1D ``grid``."""
    row = np.exp(1j * m * grid.points)
    row.flags.writeable = False
    return row


def _phase_table(grid, l):
    """The read-only (n, 2l + 1) table 1, cos phi, sin phi, ..., cos l phi,
    sin l phi on the n nodes of ``grid``, each pair the parts of a cached row."""
    table = np.empty((grid.points.size, 2 * l + 1))
    table[:, 0] = 1.0
    if l:  # whole complex columns: pair by pair the copy took 2-3 times as long
        table[:, 1:] = np.stack([phase_rows(grid, m) for m in range(1, l + 1)], axis=1).view(float)
    table.flags.writeable = False
    return table


# Rows per (grid, m) and sphere tables per (phi grid, l) within byte budgets,
# least recently used out first; a value over its budget is computed for the
# call and dropped, and a key's grid is not counted.  Rows: |m| = 1..8 at 32768
# nodes (4 MiB) and at 4096 (0.5 MiB); tables: l = 1..3 at 4096 phi nodes.
phase_rows = specfun.BytesLRU(_phase_row, budget=9 * 2**19)
phase_tables = specfun.BytesLRU(_phase_table, budget=2**19)


def _series(terms, grid, out, scratch):
    """sum a e^{i m phi} over (m, a) in ``terms`` into ``out`` on ``grid``, in
    the order ``states.evaluate`` adds a circle state's modes: each phase a
    cached row (its conjugate for m < 0), each ``row * a`` formed in ``scratch``."""
    out.fill(0.0)
    for m, a in terms:
        if m == 0:
            out += a
            continue
        wave = phase_rows(grid, m) if m > 0 else np.conjugate(phase_rows(grid, -m), out=scratch)
        out += np.multiply(wave, a, out=scratch)
    return out


def sample(state, grid):
    """Wave-function samples on the grid.  On the sphere, the (l + 1, n_phi)
    rows F^T psi, F = ``theta_factor(l, n_theta)``: the phase table of the
    phi nodes times each column's coefficient.  Circle states on a circle
    grid sum cached rows; every other 1D case uses ``states.evaluate``."""
    if isinstance(grid, Grid1D):
        if not (isinstance(state, states.PeriodicState) and grid.domain == "circle"):
            return states.evaluate(state, grid.points)
        pts = grid.points
        if pts.size and (pts[0] < 0.0 or pts[-1] >= TWO_PI):  # nodes increase: ends suffice
            raise ValueError("sample: circle states live on phi in [0, 2 pi)")
        psi = np.empty(pts.size, dtype=complex)
        _series(state.coefficients.items(), grid, psi, np.empty_like(psi))
        psi /= np.sqrt(TWO_PI)
        return psi
    l, table = state.l, phase_tables(grid.phi_grid, state.l)
    c = np.array([state.coefficients.get(m, 0.0) for m in range(-l, l + 1)], dtype=complex)
    # row m of a: the coefficients of e^{i m phi} in the l + 1 rows; a pair
    # a e^{i m phi} + b e^{-i m phi} is (a + b) cos m phi + i (a - b) sin m phi
    a = theta_factor(l, grid.theta_rule.nodes.size) * c[:, None] / np.sqrt(TWO_PI)
    pos, neg = a[l + 1 :], a[:l][::-1]
    coeffs = np.empty((2 * l + 1, l + 1), dtype=complex)
    coeffs[0], coeffs[1::2], coeffs[2::2] = a[l], pos + neg, 1j * (pos - neg)
    # the real table times the coefficients' float view: one gemm over both parts
    return np.ascontiguousarray((table @ coeffs.view(float)).view(complex).T)


def quad_inner(f, g, grid):
    """(f, g) = h sum conj(f) g over the nodes of a Grid1D, or of the phi
    grid for rows as ``sample`` gives them on the sphere, whose theta
    factor already holds the Gauss-Legendre weights."""
    f = np.asarray(f)
    g = np.asarray(g)
    line, rows = (grid, ()) if isinstance(grid, Grid1D) else (grid.phi_grid, f.shape[:1])
    if f.shape != g.shape or f.shape != rows + line.points.shape:
        raise ValueError("quad_inner: samples must share the grid's shape, in rows on the sphere")
    return complex(line.spacing * np.vdot(f, g))


_FD_INTERIOR = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_FD_FORWARD = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
_FD_OFFSET = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0


def numeric_derivative(samples, grid, out=None, scratch=None):
    """Fourth-order differences along the last axis, on the spacing of the
    Grid1D ``grid``; one-sided at the ends, no wrap-around.  The result is
    written to ``out`` and ``scratch`` is overwritten, each an array of the
    samples' shape, allocated when not given."""
    arr = np.asarray(samples)
    if arr.shape[-1] < 5:
        raise ValueError("numeric_derivative: need at least 5 samples")
    if out is None:
        out = np.empty_like(arr, dtype=complex if np.iscomplexobj(arr) else float)
    # c0 a0 + c1 a1 + c3 a3 + c4 a4 in that order, as the plain expression sums
    # it (so the bits match), with one scratch array for the products
    interior, n = out[..., 2:-2], arr.shape[-1]
    np.multiply(_FD_INTERIOR[0], arr[..., :-4], out=interior)
    term = np.empty_like(interior) if scratch is None else scratch[..., 2:-2]
    for k in (1, 3, 4):
        interior += np.multiply(_FD_INTERIOR[k], arr[..., k : n - 4 + k], out=term)
    head = arr[..., :5]
    tail = arr[..., -5:]
    out[..., 0] = head @ _FD_FORWARD
    out[..., 1] = head @ _FD_OFFSET
    out[..., -1] = -(tail[..., ::-1] @ _FD_FORWARD)
    out[..., -2] = -(tail[..., ::-1] @ _FD_OFFSET)
    if np.iscomplexobj(out):
        parts = out.view(float)  # numpy divides by a real h as (x + y 0) (1 / h)
        parts *= 1.0 / grid.spacing
    else:
        out /= grid.spacing
    return out


def boundary_density(samples, grid):
    """|psi(2 pi - 0)|^2 extrapolated quadratically from the last nodes."""
    x = grid.points[-3:]
    y = samples[..., -3:]
    target = TWO_PI
    val = 0.0
    for i in range(3):
        li = np.prod([(target - x[j]) / (x[i] - x[j]) for j in range(3) if j != i])
        val = val + y[..., i] * li
    return float(np.abs(val) ** 2)


# -- pointwise observable actions ---------------------------------------------


def act(obs, psi, state, grid, out=None, scratch=None):
    """Apply an observable (or its tag) to samples: derivatives by
    differencing, multiplications pointwise.  The result is written to
    ``out`` and L_z overwrites ``scratch``, each a contiguous array of the
    samples' shape, allocated when not given."""
    obs = operators.resolve_observable(obs)
    line = grid if isinstance(grid, Grid1D) else grid.phi_grid  # the sphere's phi axis is last
    if out is None:
        out = np.empty(np.shape(psi), dtype=complex)
    if obs.tag == "Lz":
        return np.multiply(numeric_derivative(psi, line, out, scratch), -1j * state.hbar, out=out)
    if obs.tag == "Phi":
        return np.multiply(line.points, psi, out=out)
    wave = phase_rows(line, 1)  # e^{i phi} = cos phi + i sin phi
    return np.multiply(wave.imag if obs.tag == "SinPhi" else wave.real, psi, out=out)


def default_grid(state, resolution=None):
    fam = state.family
    if fam == "periodic":
        return circle_grid(resolution or DEFAULT_CIRCLE_N)
    if fam == "oscillator":
        return line_grid_for(state, n=resolution or DEFAULT_LINE_N)
    if fam == "sphere":
        return sphere_grid(n_phi=resolution or DEFAULT_SPHERE_PHI)
    raise ValueError(f"default_grid: unknown family {fam!r}")


# Rows of a Sampled's work block: the first-order actions by tag, then one
# second-order product and one scratch row
_ACTED_ROW = {tag: row for row, tag in enumerate(("Lz", "Phi", "SinPhi", "CosPhi"))}
_SECOND_ROW = len(_ACTED_ROW)
_SCRATCH_ROW = _SECOND_ROW + 1


class Sampled:
    """One state sampled once on one grid, shared by every relation on it.

    Keeps ``psi``, its norm and one work block, allocated on the first
    action, with a row of ``psi``'s shape for each first-order action
    ``A psi`` (Lz, Phi, SinPhi, CosPhi), one for a second-order product
    ``A B psi`` and one scratch row.  Means, ``(dA psi, dB psi)`` with
    ``dA = A - <A>``, ``(A psi, B psi)`` and ``(psi, A B psi)`` are memoized
    as scalars; each second-order product overwrites the last, and the
    deviation arrays of one reduction take the second-order and scratch
    rows first.  Observables are named by tag, and nothing is sampled
    until a value is asked for.
    """

    def __init__(self, state, grid=None):
        self.state = state
        self.grid = default_grid(state) if grid is None else grid
        self._psi, self._work, self._acted, self._scalars = None, None, {}, {}

    @property
    def psi(self):
        if self._psi is None:
            self._psi = sample(self.state, self.grid)
        return self._psi

    @property
    def norm2(self):
        return self._inner(("norm",), lambda: (self.psi, self.psi)).real

    def _act(self, tag, psi, row):
        """act(tag, psi) written to row ``row`` of the work block."""
        if self._work is None:
            self._work = np.empty((_SCRATCH_ROW + 1,) + self.psi.shape, dtype=complex)
        return act(tag, psi, self.state, self.grid, self._work[row], self._work[_SCRATCH_ROW])

    def acted(self, tag):
        if tag not in self._acted:
            self._acted[tag] = self._act(tag, self.psi, _ACTED_ROW[tag])
        return self._acted[tag]

    def _inner(self, key, arrays):
        """quad_inner of the two arrays ``arrays()`` builds, memoized under ``key``."""
        if key not in self._scalars:
            self._scalars[key] = quad_inner(*arrays(), self.grid)
        return self._scalars[key]

    def mean(self, tag):
        """<A> as a complex number, before its real part is taken."""
        return self._inner(("mean", tag), lambda: (self.psi, self.acted(tag))) / self.norm2

    def expect2(self, a, b):
        """(psi, A B psi), unnormalized."""
        return self._inner(
            ("AB", a, b), lambda: (self.psi, self._act(a, self.acted(b), _SECOND_ROW))
        )

    def mismatch(self, a, b):
        """((A psi, B psi) - (psi, A B psi)) / |psi|^2: one adjointness mismatch entry."""
        lhs = self._inner(("A,B", a, b), lambda: (self.acted(a), self.acted(b)))
        return (lhs - self.expect2(a, b)) / self.norm2

    def dev_inners(self, pairs):
        """(dA psi, dB psi) per (A, B) in ``pairs``, unnormalized; each
        deviation array is built once per call, the first two in the work
        block's second-order and scratch rows, the rest as new arrays."""
        todo = [pair for pair in pairs if ("dA,dB", *pair) not in self._scalars]
        tags = list(dict.fromkeys(t for p in todo for t in p))
        for tag in tags:  # act first: an action overwrites the rows the deviations take
            self.mean(tag)
        rows = [self._work[_SECOND_ROW], self._work[_SCRATCH_ROW]] if tags else []
        devs = {t: self._deviation(t, rows.pop() if rows else None) for t in tags}
        for a, b in todo:
            self._scalars["dA,dB", a, b] = quad_inner(devs[a], devs[b], self.grid)
        return [self._scalars["dA,dB", a, b] for a, b in pairs]

    def _deviation(self, tag, out=None):
        """A psi - <A> psi, built in ``out`` (a new array if None) through <A> psi."""
        dev = np.multiply(self.mean(tag), self.psi, out=out)
        return np.subtract(self.acted(tag), dev, out=dev)

    def std(self, tag):
        (var,) = self.dev_inners([(tag, tag)])
        return float(np.sqrt(max(var.real / self.norm2, 0.0)))

    def cross(self, a, b):
        """(dA psi, dB psi) / |psi|^2, from the arrays that also give both std devs."""
        return self.dev_inners([(a, a), (b, b), (a, b)])[2] / self.norm2


# -- registry relations ----------------------------------------------------------


def _csf(s):
    cross = s.cross("Lz", "Phi")
    return {"lhs": float(s.std("Lz") * s.std("Phi")), "rhs": float(abs(cross)), "cross": cross}


def _rsur(s):
    ab, ba = s.expect2("Lz", "Phi"), s.expect2("Phi", "Lz")
    return {"lhs": float(s.std("Lz") * s.std("Phi")), "rhs": float(0.5 * abs(ab - ba) / s.norm2)}


def _boundary(s):
    dens = boundary_density(s.psi, s.grid)
    rhs = 0.5 * s.state.hbar * abs(1.0 - TWO_PI * dens)
    cross = s.cross("Lz", "Phi")
    return {"lhs": float(abs(cross)), "rhs": float(rhs), "boundary_density": float(dens)}


def _gram(s):
    tags = ("Lz", "Phi", "SinPhi", "CosPhi")
    inners = s.dev_inners([(a, b) for a in tags for b in tags])
    gram = np.array([v / s.norm2 for v in inners]).reshape(len(tags), len(tags))
    det = np.linalg.det(gram).real
    min_eig = float(np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))[0])
    return {"lhs": float(det), "rhs": 0.0, "min_eigenvalue": min_eig}


def _moments(s):
    out = {}
    for tag in ("Lz", "Phi"):
        out[f"mean_{tag}"], out[f"std_{tag}"] = float(s.mean(tag).real), s.std(tag)
    if s.state.family == "oscillator":  # <H> from scalars condition19 also reads
        j, w = s.state.inertia, s.state.frequency
        energy = s.expect2("Lz", "Lz") / (2.0 * j) + 0.5 * j * w**2 * s.expect2("Phi", "Phi")
        out["mean_energy"] = float((energy / s.norm2).real)
    return out


def _function_pair(f, g):
    """eq8: Delta_Lz Delta_f >= (hbar/2) |<g>|."""

    def values(s):
        lhs = s.std("Lz") * s.std(f)
        return {"lhs": float(lhs), "rhs": float(0.5 * s.state.hbar * abs(float(s.mean(g).real)))}

    return values


def _quadratic(s):
    """eq9: Delta_Lz^2 + hbar^2 Delta_sin^2 >= hbar^2 <cos>^2."""
    hbar, s_lz, s_u, m_v = s.state.hbar, s.std("Lz"), s.std("SinPhi"), float(s.mean("CosPhi").real)
    return {"lhs": float(s_lz**2 + hbar**2 * s_u**2), "rhs": float(hbar**2 * m_v**2)}


def _condition19(s):
    mm = np.array([[s.mismatch(a, b) for b in ("Lz", "Phi")] for a in ("Lz", "Phi")])
    ab = complex(mm[0, 1])
    return {"entries": mm, "max_modulus": float(np.max(np.abs(mm))), "mismatch_ab": ab}


def _decomposition(s):
    cross = s.cross("Lz", "Phi")
    return {"symmetric": float(cross.real), "antisymmetric": float(cross.imag)}


def _mismatch_target(target):
    """eq22 (target i hbar) and eq23 (target 0): the (Lz, Phi) mismatch entry."""

    def values(s):
        ab = s.mismatch("Lz", "Phi")
        return {"mismatch_ab": ab, "deviation": float(abs(ab - target * s.state.hbar))}

    return values


def _commutator(s):
    """max |[L_z, phi] psi + i hbar psi| over the nodes of central stencils,
    formed in the work block's second-order and scratch rows."""
    comm = s._act("Lz", s.acted("Phi"), _SECOND_ROW)
    term = s._act("Phi", s.acted("Lz"), _SCRATCH_ROW)
    comm -= term
    comm += np.multiply(1j * s.state.hbar, s.psi, out=term)
    return {"residual": float(np.max(np.abs(comm[..., 2:-2])))}


# The grid derivation of every registry relation, by name: Sampled -> values.
RELATION_VALUES = {
    "csf": _csf,
    "rsur": _rsur,
    "condition19": _condition19,
    "decomposition": _decomposition,
    "boundary": _boundary,
    "gram": _gram,
    "eq8-sin": _function_pair("SinPhi", "CosPhi"),
    "eq8-cos": _function_pair("CosPhi", "SinPhi"),
    "eq9-trig": _quadratic,
    "eq22": _mismatch_target(1j),
    "eq23": _mismatch_target(0.0),
    "eq24": lambda s: {"direct_mismatch": s.mismatch("Lz", "Phi")},
    "moments": _moments,
    "commutator": _commutator,
}


def relation_values(sampled, relation):
    """Oracle-side numbers for one registry relation on a ``Sampled`` state."""
    try:
        values = RELATION_VALUES[relation]
    except KeyError:
        raise ValueError(f"relation_values: no grid oracle for relation {relation!r}") from None
    return values(sampled)


def commutator_residual(state, resolution=1024):
    """max interior |[L_z, phi] psi + i hbar psi| on a grid of ``resolution``
    nodes: the commutator value of ``relation_values``, differenced with
    one-sided stencils at the extremities and never wrapped, so an
    independent check of the canonical commutator on the half-open range."""
    if isinstance(state, states.PeriodicState):
        grid = circle_grid(resolution)
    elif isinstance(state, states.OscillatorState):
        grid = line_grid_for(state, n=resolution, half_width_floor=9.0, margin=5.0)
    else:
        raise TypeError("commutator_residual: circle or line families only")
    return relation_values(Sampled(state, grid), "commutator")["residual"]
