"""Brute-force grid oracle: every inner product, moment, and mismatch
recomputed from dense samples, never from the spectral matrices.

Derivatives use fourth-order central differences in the interior and
one-sided stencils at the extremities of the range; the circle is treated
as the half-open interval [0, 2 pi), never wrapped, which matches the
one-sided-derivative reading of the commutation relation there.

Quadrature is the uniform midpoint rule on the circle (and in the sphere's
azimuthal direction), the plain uniform rule on a truncated line where
the integrands have Gaussian tails, and Gauss-Legendre in cos(theta).

``relation_values`` looks a registry relation up by name in
``RELATION_VALUES``.  The commutator has no entry: its spectral residual
is itself computed on an oracle grid, so a comparison would read 0 by
construction.  Observable tags resolve through
``operators.resolve_observable``, which also gives the Fourier
coefficients of the trigonometric multipliers; nothing comes from
``relations``.
"""

from dataclasses import dataclass

import numpy as np

from . import operators, specfun, states
from .specfun import TWO_PI

DEFAULT_CIRCLE_N = 32768
DEFAULT_LINE_N = 4096
DEFAULT_SPHERE_THETA = 128
DEFAULT_SPHERE_PHI = 4096


@dataclass(frozen=True)
class Grid1D:
    points: np.ndarray  # strictly increasing; excludes 2 pi on the circle
    spacing: float
    domain: str  # "circle" | "line"


@dataclass(frozen=True)
class Grid2D:
    theta_rule: specfun.QuadratureRule  # Gauss-Legendre in cos(theta)
    phi_grid: Grid1D


def circle_grid(n=DEFAULT_CIRCLE_N):
    """Midpoint nodes (i + 1/2) h on [0, 2 pi), h = 2 pi / n."""
    if n < 8:
        raise ValueError("circle_grid: need n >= 8")
    h = TWO_PI / n
    return Grid1D(points=(np.arange(n) + 0.5) * h, spacing=h, domain="circle")


def line_grid(half_width, n=DEFAULT_LINE_N):
    if n < 8:
        raise ValueError("line_grid: need n >= 8")
    pts, h = np.linspace(-half_width, half_width, n, retstep=True)
    return Grid1D(points=pts, spacing=float(h), domain="line")


def line_grid_for(state, n=DEFAULT_LINE_N, half_width_floor=12.0, margin=8.0):
    """Grid wide enough that the state's Gaussian tail mass is negligible.

    Hermite-function support grows like sqrt(2 n + 1); the floor keeps the
    default window at 12 / lam for low quantum numbers.
    """
    nmax = max(state.coefficients)
    half = max(half_width_floor, np.sqrt(2.0 * nmax + 1.0) + margin) / state.scale
    return line_grid(half, n=n)


def sphere_grid(n_theta=DEFAULT_SPHERE_THETA, n_phi=DEFAULT_SPHERE_PHI):
    return Grid2D(theta_rule=specfun.gauss_legendre(n_theta), phi_grid=circle_grid(n_phi))


def total_weight(grid):
    if isinstance(grid, Grid1D):
        return grid.spacing * grid.points.size
    return float(np.sum(grid.theta_rule.weights) * grid.phi_grid.spacing * grid.phi_grid.points.size)


def sample(state, grid):
    """Wave-function samples on the grid (2D array for the sphere)."""
    if isinstance(grid, Grid1D):
        return states.evaluate(state, grid.points)
    theta = np.arccos(grid.theta_rule.nodes)
    table = specfun.theta_lm_table(state.l, theta)
    phases = np.exp(
        1j * np.arange(-state.l, state.l + 1)[:, None] * grid.phi_grid.points[None, :]
    )
    c = np.zeros(2 * state.l + 1, dtype=complex)
    for m, v in state.coefficients.items():
        c[m + state.l] = v
    return np.einsum("m,mi,mj->ij", c, table, phases) / np.sqrt(TWO_PI)


def quad_inner(f, g, grid):
    """(f, g) = sum w conj(f) g over the grid."""
    f = np.asarray(f)
    g = np.asarray(g)
    if f.shape != g.shape:
        raise ValueError("quad_inner: sample arrays must share the grid shape")
    if isinstance(grid, Grid1D):
        if f.shape != grid.points.shape:
            raise ValueError("quad_inner: sample length does not match the grid")
        return complex(grid.spacing * np.sum(np.conj(f) * g))
    w_theta = grid.theta_rule.weights
    return complex(grid.phi_grid.spacing * np.sum(w_theta @ (np.conj(f) * g)))


_FD_INTERIOR = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_FD_FORWARD = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
_FD_OFFSET = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0


def numeric_derivative(samples, grid, axis=-1):
    """Fourth-order differences; one-sided at the ends, no wrap-around."""
    samples = np.asarray(samples)
    spacing = grid.spacing if isinstance(grid, Grid1D) else grid
    n = samples.shape[axis]
    if n < 5:
        raise ValueError("numeric_derivative: need at least 5 samples")
    arr = np.moveaxis(samples, axis, -1)
    out = np.zeros_like(arr, dtype=complex if np.iscomplexobj(arr) else float)
    out[..., 2:-2] = (
        _FD_INTERIOR[0] * arr[..., :-4]
        + _FD_INTERIOR[1] * arr[..., 1:-3]
        + _FD_INTERIOR[3] * arr[..., 3:-1]
        + _FD_INTERIOR[4] * arr[..., 4:]
    )
    head = arr[..., :5]
    tail = arr[..., -5:]
    out[..., 0] = head @ _FD_FORWARD
    out[..., 1] = head @ _FD_OFFSET
    out[..., -1] = -(tail[..., ::-1] @ _FD_FORWARD)
    out[..., -2] = -(tail[..., ::-1] @ _FD_OFFSET)
    out = out / spacing
    return np.moveaxis(out, -1, axis)


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


def _phi_values(grid):
    if isinstance(grid, Grid1D):
        return grid.points
    return grid.phi_grid.points[None, :]


def act(obs, psi, state, grid):
    """Apply an observable (or its tag) to samples: derivatives by
    differencing, multiplications pointwise."""
    obs = operators.resolve_observable(obs)
    hbar = state.hbar
    if obs.tag == "Lz":
        if isinstance(grid, Grid1D):
            return -1j * hbar * numeric_derivative(psi, grid)
        return -1j * hbar * numeric_derivative(psi, grid.phi_grid.spacing, axis=-1)
    phi = _phi_values(grid)
    if obs.tag == "Phi":
        return phi * psi
    if obs.tag == "Phi2":
        return phi * phi * psi
    if obs.tag == "Hamiltonian":
        if getattr(state, "family", None) != "oscillator":
            raise ValueError("oracle act: Hamiltonian is line-family only")
        lz1 = -1j * hbar * numeric_derivative(psi, grid)
        lz2 = -1j * hbar * numeric_derivative(lz1, grid)
        return lz2 / (2.0 * state.inertia) + 0.5 * state.inertia * state.frequency**2 * (
            phi * phi * psi
        )
    if obs.fourier is not None:
        fvals = np.zeros(np.shape(phi), dtype=complex)
        for k, coef in obs.fourier:
            fvals = fvals + coef * np.exp(1j * k * phi)
        return fvals * psi
    raise ValueError(f"oracle act: unsupported observable {obs.tag!r}")


def default_grid(state, resolution=None):
    fam = state.family
    if fam == "periodic":
        return circle_grid(resolution or DEFAULT_CIRCLE_N)
    if fam == "oscillator":
        return line_grid_for(state, n=resolution or DEFAULT_LINE_N)
    if fam == "sphere":
        return sphere_grid(n_phi=resolution or DEFAULT_SPHERE_PHI)
    raise ValueError(f"default_grid: unknown family {fam!r}")


def moment_table(state, observables, grid=None):
    """(mean, std) per observable, sampling the state only once."""
    grid = default_grid(state) if grid is None else grid
    psi = sample(state, grid)
    norm2 = quad_inner(psi, psi, grid).real
    out = {}
    for obs in observables:
        acted = act(obs, psi, state, grid)
        mu = quad_inner(psi, acted, grid) / norm2
        dev = acted - mu * psi
        var = quad_inner(dev, dev, grid).real / norm2
        tag = obs if isinstance(obs, str) else obs.tag
        out[tag] = (float(mu.real), float(np.sqrt(max(var, 0.0))))
    return out


def deviation_samples(state, obs, psi, grid):
    norm2 = quad_inner(psi, psi, grid).real
    acted = act(obs, psi, state, grid)
    mu = quad_inner(psi, acted, grid) / norm2
    return acted - mu * psi, complex(mu)


def mismatch_entries(state, obs_a, obs_b, grid=None):
    """The 2x2 adjointness mismatch, purely from samples."""
    grid = default_grid(state) if grid is None else grid
    psi = sample(state, grid)
    norm2 = quad_inner(psi, psi, grid).real
    obs = [obs_a, obs_b]
    acted = [act(o, psi, state, grid) for o in obs]
    out = np.zeros((2, 2), dtype=complex)
    for j in range(2):
        for k in range(2):
            lhs = quad_inner(acted[j], acted[k], grid)
            rhs = quad_inner(psi, act(obs[j], acted[k], state, grid), grid)
            out[j, k] = (lhs - rhs) / norm2
    return out


def csf_sides(state, obs_a, obs_b, grid=None):
    grid = default_grid(state) if grid is None else grid
    psi = sample(state, grid)
    norm2 = quad_inner(psi, psi, grid).real
    da, _ = deviation_samples(state, obs_a, psi, grid)
    db, _ = deviation_samples(state, obs_b, psi, grid)
    sa = np.sqrt(max(quad_inner(da, da, grid).real / norm2, 0.0))
    sb = np.sqrt(max(quad_inner(db, db, grid).real / norm2, 0.0))
    cross = quad_inner(da, db, grid) / norm2
    return {"lhs": float(sa * sb), "rhs": float(abs(cross)), "cross": complex(cross)}


def rsur_sides(state, obs_a, obs_b, grid=None):
    grid = default_grid(state) if grid is None else grid
    psi = sample(state, grid)
    norm2 = quad_inner(psi, psi, grid).real
    da, _ = deviation_samples(state, obs_a, psi, grid)
    db, _ = deviation_samples(state, obs_b, psi, grid)
    sa = np.sqrt(max(quad_inner(da, da, grid).real / norm2, 0.0))
    sb = np.sqrt(max(quad_inner(db, db, grid).real / norm2, 0.0))
    ab = quad_inner(psi, act(obs_a, act(obs_b, psi, state, grid), state, grid), grid)
    ba = quad_inner(psi, act(obs_b, act(obs_a, psi, state, grid), state, grid), grid)
    return {"lhs": float(sa * sb), "rhs": float(0.5 * abs(ab - ba) / norm2)}


def boundary_sides(state, grid=None, squared_density=True):
    grid = default_grid(state) if grid is None else grid
    psi = sample(state, grid)
    norm2 = quad_inner(psi, psi, grid).real
    da, _ = deviation_samples(state, "Lz", psi, grid)
    db, _ = deviation_samples(state, "Phi", psi, grid)
    cross = quad_inner(da, db, grid) / norm2
    dens = boundary_density(psi, grid)
    if not squared_density:
        dens = np.sqrt(dens)
    rhs = 0.5 * state.hbar * abs(1.0 - TWO_PI * dens)
    return {"lhs": float(abs(cross)), "rhs": float(rhs), "boundary_density": float(dens)}


def gram_sides(state, observables, grid=None):
    grid = default_grid(state) if grid is None else grid
    psi = sample(state, grid)
    norm2 = quad_inner(psi, psi, grid).real
    devs = [deviation_samples(state, o, psi, grid)[0] for o in observables]
    r = len(devs)
    gram = np.zeros((r, r), dtype=complex)
    for j in range(r):
        for k in range(r):
            gram[j, k] = quad_inner(devs[j], devs[k], grid) / norm2
    det = np.linalg.det(gram).real
    min_eig = float(np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))[0])
    return {"lhs": float(det), "rhs": 0.0, "min_eigenvalue": min_eig}


# -- registry relations ----------------------------------------------------------


def _moments(state, grid):
    tags = ("Lz", "Phi", "Hamiltonian") if state.family == "oscillator" else ("Lz", "Phi")
    table = moment_table(state, tags, grid)
    out = {}
    for tag in ("Lz", "Phi"):
        out[f"mean_{tag}"], out[f"std_{tag}"] = table[tag]
    if "Hamiltonian" in table:
        out["mean_energy"] = table["Hamiltonian"][0]
    return out


def _function_pair(f, g):
    """eq8: Delta_Lz Delta_f >= (hbar/2) |<g>|."""

    def values(state, grid):
        table = moment_table(state, ("Lz", f, g), grid)
        lhs = table["Lz"][1] * table[f][1]
        return {"lhs": float(lhs), "rhs": float(0.5 * state.hbar * abs(table[g][0]))}

    return values


def _quadratic(state, grid):
    """eq9: Delta_Lz^2 + hbar^2 Delta_sin^2 >= hbar^2 <cos>^2."""
    table = moment_table(state, ("Lz", "SinPhi", "CosPhi"), grid)
    hbar, s_lz, s_u, m_v = state.hbar, table["Lz"][1], table["SinPhi"][1], table["CosPhi"][0]
    return {"lhs": float(s_lz**2 + hbar**2 * s_u**2), "rhs": float(hbar**2 * m_v**2)}


def _condition19(state, grid):
    mm = mismatch_entries(state, "Lz", "Phi", grid)
    ab = complex(mm[0, 1])
    return {"entries": mm, "max_modulus": float(np.max(np.abs(mm))), "mismatch_ab": ab}


def _decomposition(state, grid):
    cross = csf_sides(state, "Lz", "Phi", grid)["cross"]
    return {"symmetric": float(cross.real), "antisymmetric": float(cross.imag)}


def _mismatch_target(target):
    """eq22 (target i hbar) and eq23 (target 0): the (Lz, Phi) mismatch entry."""

    def values(state, grid):
        ab = mismatch_entries(state, "Lz", "Phi", grid)[0, 1]
        return {"mismatch_ab": complex(ab), "deviation": float(abs(ab - target * state.hbar))}

    return values


def _eq24(state, grid):
    return {"direct_mismatch": complex(mismatch_entries(state, "Lz", "Phi", grid)[0, 1])}


# The registry relations with a grid derivation, by name: (state, grid) -> values.
# The commutator has none: its residual is already computed on an oracle grid.
RELATION_VALUES = {
    "csf": lambda state, grid: csf_sides(state, "Lz", "Phi", grid),
    "rsur": lambda state, grid: rsur_sides(state, "Lz", "Phi", grid),
    "condition19": _condition19,
    "decomposition": _decomposition,
    "boundary": lambda state, grid: boundary_sides(state, grid),
    "gram": lambda state, grid: gram_sides(state, ("Lz", "Phi", "SinPhi", "CosPhi"), grid),
    "eq8-sin": _function_pair("SinPhi", "CosPhi"),
    "eq8-cos": _function_pair("CosPhi", "SinPhi"),
    "eq9-trig": _quadratic,
    "eq22": _mismatch_target(1j),
    "eq23": _mismatch_target(0.0),
    "eq24": _eq24,
    "moments": _moments,
}


def relation_values(state, relation, resolution=None):
    """Oracle-side numbers for one registry relation, as a plain dict."""
    try:
        values = RELATION_VALUES[relation]
    except KeyError:
        raise ValueError(f"relation_values: no grid oracle for relation {relation!r}") from None
    return values(state, default_grid(state, resolution))
