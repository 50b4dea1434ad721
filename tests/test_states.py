import numpy as np
import pytest

from angulab import oracle, states
from angulab.states import (
    boundary_value,
    evaluate,
    from_json,
    oscillator_superposition,
    periodic_superposition,
    qtp_eigenstate,
    random_oscillator,
    random_periodic,
    random_sphere,
    scr_eigenstate,
    sphere_state,
    to_json,
)

TWO_PI = 2 * np.pi


class TestScrEigenstate:
    def test_m0_constant(self):
        s = scr_eigenstate(0)
        for phi in (0.0, 1.0, 5.0):
            assert evaluate(s, phi) == pytest.approx((TWO_PI) ** -0.5, abs=1e-14)

    def test_unimodular_density(self):
        s = scr_eigenstate(3)
        phis = np.linspace(0, TWO_PI, 17, endpoint=False)
        dens = np.abs(evaluate(s, phis)) ** 2
        assert dens == pytest.approx(np.full(17, 1 / TWO_PI), abs=1e-14)

    def test_boundary_modulus(self):
        for m in (-4, 0, 7):
            assert abs(boundary_value(scr_eigenstate(m))) == pytest.approx(
                0.3989422804014327, abs=1e-12
            )

    def test_truncation_guard(self):
        with pytest.raises(ValueError):
            scr_eigenstate(9, truncation=4)


class TestPeriodicSuperposition:
    def test_equal_weights(self):
        s = periodic_superposition({0: 1, 1: 1})
        assert s.coefficients[0] == pytest.approx(1 / np.sqrt(2))
        assert s.coefficients[1] == pytest.approx(1 / np.sqrt(2))

    def test_phase_preserved(self):
        s = periodic_superposition({2: 3j})
        assert s.coefficients[2] == pytest.approx(1j, abs=1e-15)

    def test_random_normalized(self):
        rng = np.random.default_rng(5)
        amps = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        s = periodic_superposition(dict(zip(range(-3, 4), amps)))
        total = sum(abs(v) ** 2 for v in s.coefficients.values())
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            periodic_superposition({0: 0.0})

    def test_continuity_at_the_seam(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            s = random_periodic(rng)
            lim = evaluate(s, TWO_PI - 1e-9)
            assert abs(lim - boundary_value(s)) < 1e-6
            assert abs(boundary_value(s) - evaluate(s, 0.0)) < 1e-12


class TestQtpEigenstate:
    def test_ground_state_symmetry(self):
        q = qtp_eigenstate(0)
        grid = oracle.line_grid_for(q)
        psi = oracle.sample(q, grid)
        mean_phi = oracle.quad_inner(psi, grid.points * psi, grid).real
        assert abs(mean_phi) < 1e-12

    def test_peak_value(self):
        q = qtp_eigenstate(0, inertia=2.0, frequency=2.0)
        lam = q.scale
        assert evaluate(q, 0.0) == pytest.approx(np.sqrt(lam) * np.pi ** -0.25, rel=1e-12)

    def test_two_zeros_for_n2(self):
        # the n = 2 polynomial factor has exactly two real roots
        q = qtp_eigenstate(2)
        grid = oracle.line_grid(8.0, n=4001)
        vals = np.real(oracle.sample(q, grid))
        signs = np.sign(vals[np.abs(vals) > 1e-10])
        flips = np.sum(signs[1:] != signs[:-1])
        assert flips == 2

    def test_scale_property(self):
        q = qtp_eigenstate(1, inertia=2.0, frequency=0.5, hbar=2.0)
        assert q.scale == pytest.approx(np.sqrt(2.0 * 0.5 / 2.0))

    def test_bad_args(self):
        with pytest.raises(ValueError):
            qtp_eigenstate(-1)
        with pytest.raises(ValueError):
            qtp_eigenstate(9, truncation=4)
        with pytest.raises(ValueError):
            oscillator_superposition({-2: 1.0})


class TestSphereState:
    def test_single_harmonic(self):
        s = sphere_state(1, {0: 1})
        assert set(s.coefficients) == {0}

    def test_equal_pair(self):
        s = sphere_state(1, {-1: 1, 1: 1})
        assert s.coefficients[-1] == pytest.approx(1 / np.sqrt(2))
        assert s.coefficients[1] == pytest.approx(1 / np.sqrt(2))

    def test_random_normalized(self):
        rng = np.random.default_rng(3)
        s = random_sphere(rng, 2)
        assert sum(abs(v) ** 2 for v in s.coefficients.values()) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_bounds(self):
        with pytest.raises(ValueError):
            sphere_state(1, {2: 1.0})
        with pytest.raises(ValueError):
            sphere_state(1, {0: 0.0})


class TestEvaluate:
    def test_scr_at_pi(self):
        assert evaluate(scr_eigenstate(1), np.pi) == pytest.approx(
            -((TWO_PI) ** -0.5), abs=1e-14
        )

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            evaluate(scr_eigenstate(0), TWO_PI)
        with pytest.raises(ValueError):
            evaluate(scr_eigenstate(0), -0.1)
        with pytest.raises(ValueError):
            evaluate(sphere_state(1, {0: 1}), (4.0, 0.0))
        with pytest.raises(TypeError):
            boundary_value(qtp_eigenstate(0))

    def test_sphere_value(self):
        s = sphere_state(1, {0: 1})
        want = np.sqrt(3 / (4 * np.pi)) * np.cos(0.7)
        assert evaluate(s, (0.7, 0.3)) == pytest.approx(want, rel=1e-12)


class TestParseval:
    def test_periodic(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            s = random_periodic(rng)
            grid = oracle.circle_grid(8192)
            psi = oracle.sample(s, grid)
            assert oracle.quad_inner(psi, psi, grid).real == pytest.approx(1.0, abs=1e-8)

    def test_oscillator(self):
        rng = np.random.default_rng(22)
        for _ in range(5):
            s = random_oscillator(rng)
            grid = oracle.line_grid_for(s)
            psi = oracle.sample(s, grid)
            assert oracle.quad_inner(psi, psi, grid).real == pytest.approx(1.0, abs=1e-8)

    def test_sphere(self):
        rng = np.random.default_rng(23)
        for _ in range(3):
            s = random_sphere(rng, 2)
            grid = oracle.sphere_grid(n_phi=1024)
            psi = oracle.sample(s, grid)
            assert oracle.quad_inner(psi, psi, grid).real == pytest.approx(1.0, abs=1e-8)

    def test_eigenstate_projections(self):
        # integrating psi_n against sqrt(lam) h_k(lam phi) recovers delta_nk
        q = qtp_eigenstate(3, inertia=2.0, frequency=0.5)
        lam = q.scale
        grid = oracle.line_grid_for(q)
        psi = oracle.sample(q, grid)
        from angulab import specfun

        table = specfun.hermite_function_table(6, lam * grid.points) * np.sqrt(lam)
        for k in range(7):
            want = 1.0 if k == 3 else 0.0
            got = oracle.quad_inner(table[k].astype(complex), psi, grid).real
            assert got == pytest.approx(want, abs=1e-8)


class TestJsonRoundTrip:
    @pytest.mark.parametrize(
        "state",
        [
            scr_eigenstate(2, hbar=0.5),
            periodic_superposition({-1: 1j, 3: 2.0}),
            qtp_eigenstate(4, inertia=2.0, frequency=0.5, hbar=1.5),
            sphere_state(2, {-2: 1, 0: 1j, 1: -0.5}),
        ],
    )
    def test_round_trip(self, state):
        doc = to_json(state)
        back = from_json(doc)
        assert type(back) is type(state)
        assert back.hbar == state.hbar
        for k, v in state.coefficients.items():
            assert back.coefficients[k] == pytest.approx(v, abs=1e-15)

    def test_save_load(self, tmp_path):
        s = periodic_superposition({0: 1, 2: -1j})
        path = tmp_path / "state.json"
        states.save(s, path)
        back = states.load(path)
        assert back.coefficients == pytest.approx(s.coefficients)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            from_json({"family": "nope", "params": {}, "coefficients": [[0, 1, 0]]})

    def test_not_an_object(self):
        with pytest.raises(ValueError, match="expected a JSON object, got list"):
            from_json([[0, 1, 0]])

    @pytest.mark.parametrize("part", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_coefficient(self, part):
        doc = {"family": "periodic", "params": {}, "coefficients": [[0, part, 0], [1, 1, 0]]}
        with pytest.raises(ValueError, match="must be finite"):
            from_json(doc)
        with pytest.raises(ValueError, match="must be finite"):
            sphere_state(1, {0: complex(0, part)})

    @pytest.mark.parametrize("index", [1.5, -0.5, float("inf"), float("nan"), True, "1"])
    def test_non_integer_mode_index(self, index):
        """A mode index that ``int`` would truncate, accept or parse is
        rejected, an integral float is not."""
        doc = {"family": "sphere", "params": {"l": 1}, "coefficients": [[index, 1, 0]]}
        with pytest.raises(ValueError, match="mode index must be an integer"):
            from_json(doc)
        with pytest.raises(ValueError, match="mode index must be an integer"):
            periodic_superposition({index: 1.0})
        doc["coefficients"] = [[1.0, 1, 0]]
        assert from_json(doc).coefficients == {1: 1.0}
