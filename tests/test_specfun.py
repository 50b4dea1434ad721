import math

import numpy as np
import pytest

from angulab import specfun
from angulab.oracle import circle_grid
from angulab.specfun import gauss_hermite, gauss_legendre, theta_lm
from angulab.states import evaluate, sphere_state


def hermite_by_series(n, x):
    """Independent oracle: explicit coefficient sum for H_n."""
    total = 0.0
    for k in range(n // 2 + 1):
        total += (
            (-1) ** k
            / (math.factorial(k) * math.factorial(n - 2 * k))
            * (2.0 * x) ** (n - 2 * k)
        )
    return math.factorial(n) * total


def hermite_from_table(n, x):
    """H_n(x) read back from row n of ``hermite_function_table``:
    h_n(x) sqrt(2^n n! sqrt(pi)) exp(x^2 / 2)."""
    h = specfun.hermite_function_table(n, x)[n, 0]
    scale = math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi)) * math.exp(0.5 * x * x)
    return float(h * scale)


class TestHermitePolynomial:
    """The physicists' H_n inside the Hermite-function table rows."""

    def test_low_orders(self):
        assert hermite_from_table(0, 0.7) == pytest.approx(1.0, rel=1e-14)
        assert hermite_from_table(1, 0.5) == pytest.approx(1.0, rel=1e-14)
        # H_3(x) = 8 x^3 - 12 x
        assert hermite_from_table(3, 1.0) == pytest.approx(-4.0, abs=1e-12)

    @pytest.mark.parametrize("n", range(11))
    def test_recurrence_matches_series(self, n):
        for x in np.linspace(-5.0, 5.0, 21):
            ref = hermite_by_series(n, x)
            got = hermite_from_table(n, x)
            assert got == pytest.approx(ref, rel=1e-9, abs=1e-9)

    def test_supports_n_50(self):
        val = hermite_from_table(50, 1.3)
        assert val == pytest.approx(hermite_by_series(50, 1.3), rel=1e-9)

    def test_range_error(self):
        with pytest.raises(ValueError):
            specfun.hermite_function_table(1000, 0.1)
        with pytest.raises(ValueError):
            specfun.hermite_function_table(-1, 0.1)


class TestHermiteFunction:
    def test_ground_state_origin(self):
        # normalization integral of exp(-xi^2) is sqrt(pi)
        h0 = specfun.hermite_function_table(0, 0.0)[0, 0]
        assert h0 == pytest.approx(np.pi ** -0.25, abs=1e-12)

    def test_odd_function_origin(self):
        table = specfun.hermite_function_table(9, 0.0)
        assert np.all(table[1::2, 0] == 0.0)

    def test_orthonormal_gram(self):
        rule = gauss_hermite(64)
        wt = rule.weights * np.exp(rule.nodes**2)
        table = specfun.hermite_function_table(8, rule.nodes)
        gram = (table * wt) @ table.T
        assert np.max(np.abs(gram - np.eye(9))) < 1e-9

    def test_large_n_stays_finite(self):
        table = specfun.hermite_function_table(120, [0.0, 3.0, 15.0])
        assert np.all(np.isfinite(table))
        assert abs(table[120, 1]) > 0.0


class TestTheta:
    def test_theta_00(self):
        for theta in (0.1, 1.0, 2.5):
            assert theta_lm(0, 0, theta) == pytest.approx(1 / np.sqrt(2), abs=1e-14)

    def test_theta_10_node(self):
        assert theta_lm(1, 0, np.pi / 2) == pytest.approx(0.0, abs=1e-14)

    def test_closed_forms(self):
        th = 0.83
        assert theta_lm(1, 1, th) == pytest.approx(-np.sqrt(3.0) / 2 * np.sin(th), rel=1e-12)
        assert theta_lm(2, 1, th) == pytest.approx(
            -np.sqrt(15.0) / 2 * np.sin(th) * np.cos(th), rel=1e-12
        )

    def test_negative_m_sign(self):
        th = 1.2
        assert theta_lm(1, -1, th) == pytest.approx(-theta_lm(1, 1, th), rel=1e-12)
        assert theta_lm(2, -2, th) == pytest.approx(theta_lm(2, 2, th), rel=1e-12)

    def test_normalization_quadrature(self):
        rule = gauss_legendre(64)
        theta = np.arccos(rule.nodes)
        val = np.sum(rule.weights * theta_lm(2, 1, theta) ** 2)
        assert val == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("l", [0, 1, 2, 3, 4])
    def test_orthonormal_gram_fixed_l(self, l):
        rule = gauss_legendre(64)
        theta = np.arccos(rule.nodes)
        table = specfun.theta_lm_table(l, theta)
        gram = (table * rule.weights) @ table.T
        # theta factors with m of equal sign-structure overlap off the
        # diagonal only through +-m pairs; same-|m| entries must be +-1
        for i in range(2 * l + 1):
            assert gram[i, i] == pytest.approx(1.0, abs=1e-9)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            theta_lm(1, 2, 0.3)


class TestSphericalHarmonic:
    """Y_lm(theta, phi) = theta_lm(theta) e^{i m phi} / sqrt(2 pi) as
    ``states.evaluate`` gives it for a one-mode sphere state."""

    def test_y00(self):
        assert evaluate(sphere_state(0, {0: 1}), (0.4, 1.1)) == pytest.approx(
            1 / np.sqrt(4 * np.pi), abs=1e-12
        )

    def test_azimuthal_phase(self):
        y11 = sphere_state(1, {1: 1})
        a = evaluate(y11, (np.pi / 2, 0.0))
        b = evaluate(y11, (np.pi / 2, np.pi))
        assert b == pytest.approx(-a, rel=1e-12)

    def test_unit_norm_y21(self):
        theta_rule = gauss_legendre(64)
        phi_grid = circle_grid(256)
        theta = np.arccos(theta_rule.nodes)
        vals = evaluate(sphere_state(2, {1: 1}), (theta[:, None], phi_grid.points[None, :]))
        total = phi_grid.spacing * np.sum(theta_rule.weights[:, None] * np.abs(vals) ** 2)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_fourier_orthonormality(self):
        grid = circle_grid(256)
        modes = np.exp(1j * np.arange(-8, 9)[:, None] * grid.points[None, :]) / np.sqrt(
            2 * np.pi
        )
        gram = (modes * grid.spacing) @ modes.conj().T
        assert np.max(np.abs(gram - np.eye(17))) < 1e-9


class TestQuadratureRules:
    def test_gauss_legendre_2(self):
        rule = gauss_legendre(2)
        assert rule.nodes == pytest.approx([-1 / np.sqrt(3), 1 / np.sqrt(3)], abs=1e-14)
        assert rule.weights == pytest.approx([1.0, 1.0], abs=1e-14)
        assert np.sum(rule.weights * rule.nodes**2) == pytest.approx(2 / 3, abs=1e-14)

    def test_gauss_legendre_weight_sum(self):
        for n in (2, 5, 16, 64):
            rule = gauss_legendre(n)
            assert len(rule.nodes) == len(rule.weights) == n
            assert np.all(rule.weights > 0)
            assert np.sum(rule.weights) == pytest.approx(2.0, rel=1e-12)

    def test_gauss_hermite_moment(self):
        rule = gauss_hermite(40)
        val = np.sum(rule.weights * rule.nodes**2)
        assert val == pytest.approx(np.sqrt(np.pi) / 2, abs=1e-12)

    def test_gauss_legendre_cached_read_only(self):
        rule = gauss_legendre(128)
        fresh = gauss_legendre.__wrapped__(128)
        assert gauss_legendre(128) is rule
        assert rule.nodes.tobytes() == fresh.nodes.tobytes()
        assert rule.weights.tobytes() == fresh.weights.tobytes()
        for arr in (rule.nodes, rule.weights):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_degenerate_rejected(self):
        for ctor in (gauss_legendre, gauss_hermite):
            with pytest.raises(ValueError):
                ctor(1)

    def test_convergence_until_small(self):
        # smooth integrand on [-1, 1]; doubling n shrinks the error
        # monotonically until it is quadrature-exact
        target = np.sin(1.0) - np.sin(-1.0)
        errors = []
        for n in (2, 4, 8, 16, 32):
            rule = gauss_legendre(n)
            errors.append(abs(np.sum(rule.weights * np.cos(rule.nodes)) - target))
        for a, b in zip(errors, errors[1:]):
            assert b <= a or b < 1e-10
        assert errors[-1] < 1e-10


class TestDisplacementMatrix:
    """<h_m|D(alpha)|h_n> from the diagonal Laguerre recurrence, against the
    closed form evaluated in mpmath at 60 digits."""

    @staticmethod
    def closed_form(m, n, alpha):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            a = mpmath.mpc(alpha.real, alpha.imag)
            x = abs(a) ** 2
            lo, hi = min(m, n), max(m, n)
            step = a if m >= n else -mpmath.conj(a)
            val = (
                mpmath.sqrt(mpmath.factorial(lo) / mpmath.factorial(hi))
                * step ** (hi - lo)
                * mpmath.exp(-x / 2)
                * mpmath.laguerre(lo, hi - lo, x)
            )
            return complex(val)

    # (rows, lam): from a wide band at lam 1.3 to the line band cap at lam 0.029
    @pytest.mark.parametrize(
        "dim, lam", [(60, 1.3), (200, 0.1), (400, 0.05), (601, 0.03), (1024, 0.029)]
    )
    def test_entries_match_closed_form(self, dim, lam):
        rng = np.random.default_rng(dim)
        for k in (1, -1, 2):
            alpha = 1j * k / (lam * math.sqrt(2.0))
            mat = specfun.displacement_matrix(alpha, dim)
            picks = rng.integers(0, dim, size=(12, 2)).tolist()
            picks += [[0, 0], [dim - 1, 0], [0, dim - 1]]
            for m, n in picks:
                assert abs(mat[m, n] - self.closed_form(m, n, alpha)) < 2e-14, (k, m, n)

    def test_unitary_where_the_band_holds_the_image(self):
        """Columns n whose image lies inside the rows have unit norm, and a
        rectangular block equals the leading part of the square one."""
        alpha = 0.3 - 1.1j
        mat = specfun.displacement_matrix(alpha, 80)
        assert np.allclose(np.linalg.norm(mat[:, :20], axis=0), 1.0, atol=1e-14)
        assert np.allclose(mat.conj().T @ mat[:, :20], np.eye(80)[:, :20], atol=1e-14)
        assert np.array_equal(specfun.displacement_matrix(alpha, 80, 20), mat[:, :20])
        assert np.array_equal(specfun.displacement_matrix(0.0, 3), np.eye(3))
