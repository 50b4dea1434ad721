"""Special-function and quadrature kernels used by every basis.

Conventions
-----------
* Hermite functions h_n(xi) = (2^n n! sqrt(pi))^(-1/2) exp(-xi^2/2) H_n(xi),
  with H_n the physicists' Hermite polynomials, form an orthonormal set on
  the real line.  They are generated by the normalized recurrence
      h_0 = pi^(-1/4) exp(-xi^2/2),
      h_n = xi sqrt(2/n) h_{n-1} - sqrt((n-1)/n) h_{n-2},
  which keeps every intermediate O(1), so no factorial ever overflows.
* theta_lm is the polar factor of the spherical harmonic,
  Y_lm(theta, phi) = theta_lm(theta) * exp(i m phi) / sqrt(2 pi),
  normalized so that integral over [0, pi] of theta_lm^2 sin(theta) equals 1.
  The Condon-Shortley phase is included; all moduli and inequalities are
  insensitive to that choice, consistency is what matters.
"""

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss

TWO_PI = 2.0 * np.pi

# the Hermite-function recurrence stays O(1); the cap just bounds work
_HERMITE_FUNC_MAX = 600
_THETA_MAX_L = 64

CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


class BytesLRU:
    """``make(*key)`` memoized while the kept values fit in ``budget`` bytes.

    Each value counts its ``nbytes``.  A new value evicts the least recently
    used ones until it fits; a value larger than the whole budget is
    returned and never kept.
    """

    def __init__(self, make, budget):
        self.make, self.budget, self.nbytes, self._items = make, budget, 0, {}
        self.hits = self.misses = 0

    def __call__(self, *key):
        items = self._items
        value = items.pop(key, None)
        if value is not None:
            items[key] = value  # now the most recent
            self.hits += 1
            return value
        self.misses += 1
        value = self.make(*key)
        if value.nbytes <= self.budget:
            self.nbytes += value.nbytes
            while self.nbytes > self.budget:
                self.nbytes -= items.pop(next(iter(items))).nbytes
            items[key] = value
        return value

    def keys(self):
        return self._items.keys()

    def cache_info(self):
        """(hits, misses, maxsize, currsize), as ``functools.lru_cache`` reports."""
        return CacheInfo(self.hits, self.misses, None, len(self._items))

    def cache_clear(self):
        self._items.clear()
        self.nbytes = self.hits = self.misses = 0


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a quadrature rule."""

    nodes: np.ndarray
    weights: np.ndarray


def hermite_function_table(nmax, xi):
    """Array of h_0..h_nmax evaluated at xi, shape (nmax+1,) + shape(xi)."""
    if nmax < 0:
        raise ValueError("hermite_function_table: nmax must be nonnegative")
    if nmax > _HERMITE_FUNC_MAX:
        raise ValueError(f"hermite_function_table: nmax={nmax} outside supported range")
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    out = np.zeros((nmax + 1,) + xi.shape)
    out[0] = np.pi ** (-0.25) * np.exp(-0.5 * xi * xi)
    if nmax >= 1:
        out[1] = xi * np.sqrt(2.0) * out[0]
    for k in range(2, nmax + 1):
        out[k] = xi * np.sqrt(2.0 / k) * out[k - 1] - np.sqrt((k - 1.0) / k) * out[k - 2]
    return out


def displacement_diagonals(x, count, size):
    """g[n, d] = sqrt(n!/(n+d)!) x^(d/2) exp(-x/2) L_n^(d)(x) for n < count,
    d < size: the moduli of the displacement matrix elements <n+d|D|n> and
    <n|D|n+d> at |alpha|^2 = x > 0 (see ``displacement_matrix``).

    Each diagonal d is stepped in n by the normalized Laguerre recurrence
        g_(n+1) = [(2n+1+d-x) g_n - sqrt(n(n+d)) g_(n-1)] / sqrt((n+1)(n+1+d)),
    which stays stable where the two-term recurrence in n from
    a D = D (a + alpha) loses every digit at large x.  The pair it carries
    is rescaled whenever it leaves [1e-150, 1e150], with the scale kept as a
    logarithm, so exp(-x/2) cannot underflow before the Laguerre factor
    grows; values below about 1e-170 come out as zero.
    """
    d = np.arange(size, dtype=float)
    log_fact = np.array([math.lgamma(v + 1.0) for v in d])
    scale = 0.5 * d * math.log(x) - 0.5 * x - 0.5 * log_fact  # log g_0
    prev, cur = np.zeros(size), np.ones(size)
    g = np.empty((count, size))
    for k in range(count):
        g[k] = cur * np.exp(scale)
        step = (2 * k + 1 + d - x) * cur - np.sqrt(k * (k + d)) * prev
        prev, cur = cur, step / np.sqrt((k + 1) * (k + 1 + d))
        norm = np.maximum(np.abs(prev), np.abs(cur))
        far = (norm > 1e150) | (norm < 1e-150)
        if far.any():
            norm = np.where(far, norm, 1.0)
            prev, cur, scale = prev / norm, cur / norm, scale + np.log(norm)
    return g


def displacement_matrix(alpha, rows, cols=None):
    """<h_m| D(alpha) |h_n> for m < rows and n < cols (default rows), where
    D(alpha) = exp(alpha a^+ - conj(alpha) a) is the oscillator displacement.

    Closed form (Cahill & Glauber, Phys. Rev. 177, 1857 (1969)), for d >= 0:
        <n+d|D|n> = (alpha/|alpha|)^d g_n,   <n|D|n+d> = (-conj(alpha)/|alpha|)^d g_n,
    with g from ``displacement_diagonals``.
    """
    cols = rows if cols is None else cols
    m, n = np.indices((rows, cols))
    if alpha == 0:
        return (m == n).astype(complex)
    g = displacement_diagonals(abs(alpha) ** 2, min(rows, cols), max(rows, cols))
    steps = np.ones((2, g.shape[1]), dtype=complex)
    steps[:, 1:] = [[alpha / abs(alpha)], [-np.conj(alpha) / abs(alpha)]]
    below, above = np.cumprod(steps, axis=1)  # powers, exact for alpha on an axis
    diag = np.abs(m - n)
    return np.where(m >= n, below[diag], above[diag]) * g[np.minimum(m, n), diag]


def legendre_polynomial(n, x):
    """Legendre polynomial P_n(x) (helper for the Gauss-Legendre solver)."""
    x = np.asarray(x, dtype=float)
    p_prev = np.ones_like(x)
    if n == 0:
        return p_prev if p_prev.ndim else float(p_prev)
    p_cur = x.copy()
    for k in range(1, n):
        p_prev, p_cur = p_cur, ((2 * k + 1) * x * p_cur - k * p_prev) / (k + 1)
    return p_cur if p_cur.ndim else float(p_cur)


@lru_cache(maxsize=16)
def gauss_legendre(n):
    """Gauss-Legendre rule on [-1, 1], nodes by Newton iteration on P_n;
    memoized per n and shared, so its arrays are read-only."""
    if n < 2:
        raise ValueError("gauss_legendre: need n >= 2")
    # initial guesses, then Newton with P'_n from the standard identity
    i = np.arange(1, n + 1)
    x = np.cos(np.pi * (i - 0.25) / (n + 0.5))
    for _ in range(100):
        p = legendre_polynomial(n, x)
        p1 = legendre_polynomial(n - 1, x)
        dp = n * (x * p - p1) / (x * x - 1.0)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) < 1e-14:
            break
    p1 = legendre_polynomial(n - 1, x)
    dp = n * (x * legendre_polynomial(n, x) - p1) / (x * x - 1.0)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    order = np.argsort(x)
    nodes, weights = x[order], w[order]
    nodes.flags.writeable = weights.flags.writeable = False
    return QuadratureRule(nodes=nodes, weights=weights)


def gauss_hermite(n):
    """Gauss-Hermite rule for integral(exp(-x^2) f(x) dx) over the line."""
    if n < 2:
        raise ValueError("gauss_hermite: need n >= 2")
    x, w = hermgauss(n)
    return QuadratureRule(nodes=x, weights=w)


def _theta_rows(l, x, sx):
    """theta_lm rows for m = 0..l at x = cos(theta), sx = sin(theta) >= 0."""
    rows = np.zeros((l + 1,) + x.shape)
    diag = np.full(x.shape, 1.0 / np.sqrt(2.0))  # theta_00
    for m in range(l + 1):
        if m > 0:
            diag = -np.sqrt((2.0 * m + 1.0) / (2.0 * m)) * sx * diag
        if m == l:
            rows[m] = diag
            break
        prev = diag
        cur = np.sqrt(2.0 * m + 3.0) * x * diag
        for ll in range(m + 2, l + 1):
            a = np.sqrt((4.0 * ll * ll - 1.0) / (ll * ll - m * m))
            b = np.sqrt(((ll - 1.0) ** 2 - m * m) / (4.0 * (ll - 1.0) ** 2 - 1.0))
            prev, cur = cur, a * (x * cur - b * prev)
        rows[m] = cur
    return rows


def theta_lm(l, m, theta):
    """Polar factor of Y_lm, unit-normalized against sin(theta) d(theta):
    row m + l of ``theta_lm_table``."""
    if abs(m) > l:
        raise ValueError(f"theta_lm: |m|={abs(m)} exceeds l={l}")
    theta = np.asarray(theta, dtype=float)
    val = theta_lm_table(l, theta)[m + l]
    return float(val[0]) if theta.ndim == 0 else val


def theta_lm_table(l, theta):
    """theta_lm for all m in [-l, l]; row index i corresponds to m = i - l."""
    if l < 0 or l > _THETA_MAX_L:
        raise ValueError(f"theta_lm_table: l={l} outside supported range")
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    rows = _theta_rows(l, np.cos(theta), np.sin(theta))
    out = np.zeros((2 * l + 1,) + theta.shape)
    for m in range(-l, l + 1):
        sign = -1.0 if (m < 0 and (-m) % 2 == 1) else 1.0
        out[m + l] = sign * rows[abs(m)]
    return out

