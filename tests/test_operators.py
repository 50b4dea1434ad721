import re

import numpy as np
import pytest

from angulab import oracle
from angulab.operators import (
    COS_PHI,
    LZ,
    PHI,
    SIN_PHI,
    FourierKet,
    UnsupportedObservable,
    _metric,
    _phi_power_block,
    _theta_overlap,
    _theta_overlap_root,
    apply,
    deviation_vector,
    lift,
    mean,
    qtp_energy_mean,
    sphere_variances,
    std_dev,
)
from angulab.oracle import commutator_residual
from angulab.states import (
    oscillator_superposition,
    periodic_superposition,
    qtp_eigenstate,
    random_oscillator,
    random_periodic,
    random_sphere,
    scr_eigenstate,
    sphere_state,
)

PI = np.pi
ALL_OBS = (LZ, PHI, SIN_PHI, COS_PHI)


class TestPhiMatrices:
    def test_diagonals(self):
        m1 = _phi_power_block(1, 6)
        m2 = _phi_power_block(2, 6)
        assert np.allclose(np.diag(m1), PI, atol=0)
        assert np.allclose(np.diag(m2), 4 * PI**2 / 3, atol=1e-14)

    def test_off_diagonal_entries(self):
        m1 = _phi_power_block(1, 3)
        # basis row/col order is m = -3..3, so (m=0, r=1) sits at [3, 4]
        assert m1[3, 4] == pytest.approx(-1j, abs=1e-14)
        assert m1[4, 3] == pytest.approx(1j, abs=1e-14)
        m2 = _phi_power_block(2, 3)
        assert m2[3, 4] == pytest.approx(-2 * PI * 1j + 2.0, rel=1e-14)

    def test_exact_hermiticity(self):
        for mat in (_phi_power_block(1, 12), _phi_power_block(2, 12)):
            assert np.array_equal(mat, mat.conj().T)

    def test_entries_match_quadrature(self):
        # (1 / 2 pi) integral(phi e^{i k phi}) cross-checked on the grid
        grid = oracle.circle_grid(32768)
        e0 = np.exp(0j * grid.points) / np.sqrt(2 * PI)
        e1 = np.exp(1j * grid.points) / np.sqrt(2 * PI)
        val = oracle.quad_inner(e0, grid.points * e1, grid)
        assert val == pytest.approx(-1j, abs=1e-8)
        diag = oracle.quad_inner(e1, grid.points * e1, grid)
        assert diag == pytest.approx(PI, abs=1e-8)


class TestApplyLz:
    def test_scr_eigenvector(self):
        s = scr_eigenstate(2)
        ket = lift(s)
        out = apply(LZ, s)
        diff = out.plus(ket.scaled(-2.0))
        assert diff.norm() < 1e-14

    @pytest.mark.parametrize("m", range(-12, 13))
    def test_eigen_relation(self, m):
        s = scr_eigenstate(m, truncation=12)
        out = apply(LZ, s)
        diff = out.plus(lift(s).scaled(-float(m)))
        assert diff.norm() < 1e-13

    def test_qtp_ground(self):
        q = qtp_eigenstate(0, inertia=2.0, frequency=2.0)
        out = apply(LZ, q)
        lam = q.scale
        coeffs = out.coeffs
        assert abs(coeffs[1]) == pytest.approx(lam / np.sqrt(2), rel=1e-13)
        assert np.max(np.abs(np.delete(coeffs, 1))) < 1e-15

    def test_sphere_eigenvalue(self):
        s = sphere_state(1, {-1: 1.0})
        out = apply(LZ, s)
        diff = out.plus(lift(s).scaled(1.0))  # eigenvalue -hbar
        assert diff.norm() < 1e-14


class TestApplyPhi:
    def test_qtp_ground(self):
        q = qtp_eigenstate(0)
        out = apply(PHI, q)
        assert out.coeffs[1] == pytest.approx(1 / np.sqrt(2), rel=1e-13)

    def test_scr_mean(self):
        assert mean(PHI, scr_eigenstate(5)) == pytest.approx(PI, rel=1e-14)

    def test_qtp_mean(self):
        assert mean(PHI, qtp_eigenstate(0)) == pytest.approx(0.0, abs=1e-14)


class TestInnerProductAndMean:
    def test_conjugate_linear_first_slot(self):
        s = periodic_superposition({0: 1, 1: 1j})
        ket = lift(s)
        a = ket.scaled(1j).inner(ket)
        b = ket.inner(ket)
        assert a == pytest.approx(-1j * b, abs=1e-14)

    def test_deviation_orthogonality(self):
        rng = np.random.default_rng(17)
        families = [random_periodic(rng), random_oscillator(rng), random_sphere(rng, 2)]
        for state in families:
            ket = lift(state)
            for obs in ALL_OBS:
                dv = deviation_vector(obs, state)
                assert abs(ket.inner(dv)) < 1e-10

    def test_inner_product_of_states(self):
        a = scr_eigenstate(1)
        b = scr_eigenstate(2)
        assert lift(a).inner(lift(b)) == pytest.approx(0.0, abs=1e-15)
        assert lift(a).inner(lift(a)) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize(
        "x, y, names",
        [
            (sphere_state(1, {0: 1}), sphere_state(2, {0: 1}), "sphere (l=1) and sphere (l=2)"),
            (scr_eigenstate(0), sphere_state(1, {0: 1}), "periodic (l=None) and sphere (l=1)"),
            (qtp_eigenstate(0), scr_eigenstate(0), "oscillator (l=None) and periodic (l=None)"),
            (scr_eigenstate(0), qtp_eigenstate(0), "periodic (l=None) and oscillator (l=None)"),
        ],
    )
    def test_kets_from_different_spaces_rejected(self, x, y, names):
        with pytest.raises(ValueError, match=re.escape(names)):
            lift(x).inner(lift(y))
        with pytest.raises(ValueError, match=re.escape(names)):
            lift(x).plus(lift(y))


def _reference_inner(x, y):
    """The unfolded inner product: both kets on one symmetric band [-kmax,
    kmax], then per depth pair the circle block loop on one row, the
    theta-overlap einsum on sphere rows (coefficients not multiplied by the
    overlap root)."""
    kmax = max(max(abs(k.lo), abs(k.lo + k.coeffs.shape[2] - 1)) for k in (x, y))
    depth = max(x.coeffs.shape[1], y.coeffs.shape[1])
    a, b = (_reference_embed(k, depth, kmax) for k in (x, y))
    total = 0.0 + 0.0j
    for d in range(depth):
        for e in range(depth):
            block = _phi_power_block(d + e, kmax)
            if x.l is None:
                total += a[0, d].conj() @ block @ b[0, e]
            else:
                total += np.einsum(
                    "mk,mn,kl,nl->", a[:, d, :].conj(), _theta_overlap(x.l), block, b[:, e, :]
                )
    return complex(total)


def _reference_embed(ket, depth, kmax):
    rows, d0, w0 = ket.coeffs.shape
    out = np.zeros((rows, depth, 2 * kmax + 1), dtype=complex)
    off = ket.lo + kmax
    out[:, :d0, off : off + w0] = ket.coeffs
    return out


def _unfolded_sphere_ket(state):
    """Sphere ket with row m holding c_m e^{i m phi}, before the overlap root."""
    l = state.l
    coeffs = np.zeros((2 * l + 1, 1, 2 * l + 1), dtype=complex)
    for m, c in state.coefficients.items():
        coeffs[m + l, 0, m + l] = c
    return FourierKet(coeffs, -l, state.hbar, l)


class TestReadOnlyCoeffs:
    """Kets memoize what is read from them, so their coefficients are frozen."""

    @pytest.mark.parametrize(
        "state",
        [scr_eigenstate(2), qtp_eigenstate(1), sphere_state(2, {0: 1.0, 1: 1j})],
        ids=["periodic", "oscillator", "sphere"],
    )
    def test_in_place_write_raises(self, state):
        ket = lift(state)
        with pytest.raises(ValueError):
            ket.coeffs[...] = 0.0
        for obs in ALL_OBS:
            with pytest.raises(ValueError):
                apply(obs, ket).coeffs.flat[0] = 1.0


class TestFourierInnerKernel:
    CHAINS = (
        (),
        (LZ,),
        (PHI, SIN_PHI),
        (PHI, LZ, PHI, COS_PHI),
        (SIN_PHI, PHI, COS_PHI, PHI, PHI, LZ),
        (COS_PHI, COS_PHI, PHI, PHI, LZ, PHI),
    )

    @staticmethod
    def _chain(ket, chain):
        for obs in chain:
            ket = apply(obs, ket)
        return ket

    def _pairs(self, folded, unfolded):
        for ca in self.CHAINS:
            for cb in self.CHAINS:
                yield (
                    self._chain(folded, ca).inner(self._chain(folded, cb)),
                    _reference_inner(self._chain(unfolded, ca), self._chain(unfolded, cb)),
                )

    def test_circle_matches_block_loop(self):
        rng = np.random.default_rng(41)
        for _ in range(3):
            ket = lift(random_periodic(rng, band=int(rng.integers(1, 9))))
            for got, want in self._pairs(ket, ket):
                assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("l", range(5))
    def test_sphere_matches_overlap_einsum(self, l):
        rng = np.random.default_rng(50 + l)
        for _ in range(2):
            state = random_sphere(rng, l)
            for got, want in self._pairs(lift(state), _unfolded_sphere_ket(state)):
                assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize(
        "state",
        [
            scr_eigenstate(64),
            periodic_superposition({m: 1 + 0.1j * (m - 40) for m in range(40, 45)}),
        ],
        ids=["m=64", "m=40..44"],
    )
    def test_off_centre_circle_matches_block_loop(self, state):
        ket = lift(state)
        assert ket.coeffs.shape[2] == 1 + max(state.coefficients) - min(state.coefficients)
        for got, want in self._pairs(ket, ket):
            assert got == pytest.approx(want, rel=1e-12)

    def test_chains_reach_depth_three_and_grow_band(self):
        ket = self._chain(lift(sphere_state(2, {1: 1.0})), self.CHAINS[4])
        assert ket.coeffs.shape[1] == 4
        # SIN_PHI and COS_PHI each widen [-2, 2] by one mode each side
        assert (ket.lo, ket.coeffs.shape[2]) == (-4, 9)

    def test_metric_cache_holds_no_absolute_mode(self, capsys):
        from angulab import cli

        relations = "--relations=csf,rsur,condition19,moments,gram,eq9-trig,boundary"
        assert cli.main(["sweep", "scr", "--m=0..4", relations]) == 0
        size = _metric.cache_info().currsize
        assert cli.main(["sweep", "scr", "--m=55..59", relations]) == 0
        capsys.readouterr()
        assert _metric.cache_info().currsize == size

    @pytest.mark.parametrize("l", range(7))
    def test_overlap_root_squares_to_overlap(self, l):
        root = _theta_overlap_root(l)
        assert np.allclose(root, root.T, rtol=0, atol=1e-15)
        assert np.allclose(root.T @ root, _theta_overlap(l), rtol=0, atol=1e-14)
        # rank l + 1: one null direction per pair of +-m rows
        assert np.linalg.matrix_rank(root) == l + 1


class TestStdDev:
    def test_scr_moments(self):
        for m in (-3, 0, 4):
            s = scr_eigenstate(m)
            assert std_dev(LZ, s) == 0.0
            assert std_dev(PHI, s) == pytest.approx(PI / np.sqrt(3), abs=1e-13)

    @pytest.mark.parametrize("n", range(21))
    def test_qtp_closed_forms(self, n):
        q = qtp_eigenstate(n, inertia=2.0, frequency=0.5, hbar=1.0)
        want_lz = np.sqrt(1.0 * 2.0 * 0.5 * (n + 0.5))
        want_phi = np.sqrt(1.0 * (n + 0.5) / (2.0 * 0.5))
        assert std_dev(LZ, q) == pytest.approx(want_lz, abs=1e-10)
        assert std_dev(PHI, q) == pytest.approx(want_phi, abs=1e-10)

    def test_truncation_does_not_change_moments(self):
        wide = scr_eigenstate(3, truncation=64)
        narrow = scr_eigenstate(3, truncation=8)
        for obs in ALL_OBS:
            assert mean(obs, wide) == pytest.approx(mean(obs, narrow), rel=1e-14, abs=1e-14)
            assert std_dev(obs, wide) == pytest.approx(std_dev(obs, narrow), rel=1e-14, abs=1e-14)

    def test_hbar_scaling(self):
        s = scr_eigenstate(2, hbar=3.7)
        assert std_dev(LZ, s) == 0.0
        q = qtp_eigenstate(1, hbar=0.5)
        assert std_dev(LZ, q) == pytest.approx(np.sqrt(0.5 * 1.5), rel=1e-12)


class TestSphereVariances:
    def test_single_m(self):
        v = sphere_variances(sphere_state(2, {1: 1.0}))
        assert v["var_Lz"] == 0.0
        assert v["var_phi"] == pytest.approx(PI**2 / 3, abs=1e-12)

    def test_hand_sum(self):
        v = sphere_variances(sphere_state(1, {-1: 1 / np.sqrt(2), 1: 1 / np.sqrt(2)}))
        assert v["var_Lz"] == pytest.approx(1.0, abs=1e-12)

    def test_matches_generic_path(self):
        rng = np.random.default_rng(9)
        for l in (1, 2, 3):
            for _ in range(10):
                s = random_sphere(rng, l)
                v = sphere_variances(s)
                assert v["var_Lz"] == pytest.approx(std_dev(LZ, s) ** 2, abs=1e-10)
                assert v["var_phi"] == pytest.approx(std_dev(PHI, s) ** 2, abs=1e-10)


class TestSpectralVsOracle:
    @pytest.mark.parametrize("family", ["periodic", "oscillator", "sphere"])
    def test_randomized_moments(self, family):
        seeds = {"periodic": 101, "oscillator": 202, "sphere": 303}
        rng = np.random.default_rng(seeds[family])
        count = 200
        for i in range(count):
            if family == "periodic":
                state = random_periodic(rng)
                grid = oracle.circle_grid(16384)
            elif family == "oscillator":
                state = random_oscillator(rng)
                grid = oracle.line_grid_for(state)
            else:
                state = random_sphere(rng, 1 + i % 3)
                grid = oracle.sphere_grid(n_phi=2048)
            sampled = oracle.Sampled(state, grid)
            for obs in ALL_OBS:
                mu, sd = float(sampled.mean(obs.tag).real), sampled.std(obs.tag)
                scale = max(1.0, abs(mu))
                assert abs(mean(obs, state) - mu) < 2e-6 * scale
                assert abs(std_dev(obs, state) - sd) < 2e-6 * max(1.0, sd)


class TestCommutatorResidual:
    def test_scr(self):
        assert commutator_residual(scr_eigenstate(1), 512) < 1e-6

    def test_qtp(self):
        assert commutator_residual(qtp_eigenstate(0), 1024) < 1e-6

    def test_hbar_linearity(self):
        s1 = periodic_superposition({0: 1, 2: 1j}, hbar=1.0)
        s2 = periodic_superposition({0: 1, 2: 1j}, hbar=2.0)
        r1 = commutator_residual(s1, 512)
        r2 = commutator_residual(s2, 512)
        assert r2 == pytest.approx(2 * r1, rel=1e-9)

    def test_family_guard(self):
        with pytest.raises(TypeError):
            commutator_residual(sphere_state(1, {0: 1}))


class TestEnergy:
    def test_ground(self):
        assert qtp_energy_mean(qtp_eigenstate(0)) == pytest.approx(0.5, abs=1e-12)

    def test_excited_frequency(self):
        q = qtp_eigenstate(3, frequency=2.0)
        assert qtp_energy_mean(q) == pytest.approx(7.0, abs=1e-10)

    def test_superposition_average(self):
        q = oscillator_superposition({0: 1, 1: 1})
        assert qtp_energy_mean(q) == pytest.approx(1.0, abs=1e-12)

    def test_hamiltonian_family_guard(self):
        with pytest.raises(TypeError):
            qtp_energy_mean(scr_eigenstate(0))

    def test_phi2_consistency(self):
        # <phi^2> = (psi, phi phi psi) equals variance + mean^2
        rng = np.random.default_rng(2)
        s = random_periodic(rng)
        m2 = lift(s).expect2(PHI, PHI)
        assert m2 == pytest.approx(std_dev(PHI, s) ** 2 + mean(PHI, s) ** 2, abs=1e-10)


class TestLineTrig:
    """Multiplication by sin phi and cos phi on the line: displacement
    matrices sliced from one matrix per (lam, multiplier), on a band sized
    from the state."""

    def test_one_matrix_per_dim_lam_and_multiplier(self):
        from angulab import operators

        cache = operators._line_mult_matrix
        cache.cache_clear()
        lam, fourier = 0.37, SIN_PHI.fourier
        small = cache(20, lam, fourier)
        big = cache(50, lam, fourier)
        assert np.array_equal(big[:20, :20], small)  # entries do not depend on the band
        assert cache(20, lam, fourier) is small
        assert set(cache.keys()) == {(20, lam, fourier), (50, lam, fourier)}
        assert cache.cache_info()[:2] == (1, 2)  # (hits, misses)

    def test_band_holds_the_trig_images(self):
        """Outside the band every h_n, n <= nmax, leaves less than eps of its
        sin/cos image; one row fewer does not (or the ladders set the band)."""
        from angulab import specfun
        from angulab.states import line_band

        assert line_band(8, 1.0) == 27
        for nmax, lam in ((0, 1.0), (8, 1.0), (10, 0.0316), (40, 0.3), (3, 30.0)):
            dim = line_band(nmax, lam)
            alpha = 1j / (lam * np.sqrt(2.0))
            mass = np.abs(specfun.displacement_matrix(alpha, dim + 200, nmax + 1)) ** 2
            tail = mass[::-1].cumsum(axis=0)[::-1].max(axis=1)
            assert tail[dim] < np.finfo(float).eps, (nmax, lam)
            assert tail[dim - 1] >= np.finfo(float).eps or dim == nmax + 3, (nmax, lam)

    def test_band_cap_names_lam(self):
        with pytest.raises(ValueError, match=r"line band limit 1024 at lam=0\.01$"):
            qtp_eigenstate(0, inertia=1e-4)
        with pytest.raises(ValueError, match="Hermite function limit 600"):
            qtp_eigenstate(601, truncation=601)
        assert lift(qtp_eigenstate(600, truncation=600)).coeffs.size == 657

    @pytest.mark.parametrize("J", [0.01, 0.1, 1.0])
    def test_sin_squared_plus_cos_squared(self, J):
        psi = lift(qtp_eigenstate(0, inertia=J))
        total = apply(SIN_PHI, psi).norm() ** 2 + apply(COS_PHI, psi).norm() ** 2
        assert total == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("J", [0.01, 0.1, 1.0])
    def test_wide_multiplier_rejected(self, J):
        """A line band holds the sin/cos images only, so a direct
        ``mul_trig`` call with a multiplier mode beyond +-1 raises, where it
        would lose part of its image outside the band: |cos 2 phi psi|^2 +
        |sin 2 phi psi|^2 would read 1 - 4.7e-3 at J = 0.1."""
        psi = lift(qtp_eigenstate(0, inertia=J))
        for fourier in (((2, 0.5), (-2, 0.5)), ((-2, -0.5j), (2, 0.5j)), ((1, 0.5), (-3, 0.5))):
            with pytest.raises(UnsupportedObservable, match="modes -1..1 only"):
                psi.mul_trig(fourier)
        assert psi.mul_trig(((1, 0.4), (0, -0.2j))).norm() > 0


class TestKetState:
    def test_lift_records_the_state(self):
        """``lift`` keeps the state on the ket it returns and passes a ket
        through; a ket an operation returns has no state."""
        for state in (scr_eigenstate(1), qtp_eigenstate(2), sphere_state(1, {0: 1.0})):
            ket = lift(state)
            assert ket.state is state and lift(ket) is ket
            derived = (apply(LZ, ket), apply(SIN_PHI, ket), ket.plus(ket), ket.scaled(2.0))
            assert all(other.state is None for other in derived)


class TestBatch:
    """``lift_all`` stacks kets of one band in a batch that shares its
    blocks; each ket reads its own row, checked on its own."""

    @staticmethod
    def _phi_kets():
        """phi psi on one band: psi(0) = 0 keeps <L_z> real on the first and
        last, psi(0) != 0 gives the middle one an imaginary residue."""
        return [
            apply(PHI, lift(periodic_superposition(coeffs)))
            for coeffs in ({1: 1, -1: -1}, {1: 1, -1: 1}, {1: 1j, -1: -1j})
        ]

    def test_lift_all_keeps_order_and_groups_by_band(self):
        from angulab.operators import lift_all

        rng = np.random.default_rng(7)
        drawn = [random_periodic(rng), scr_eigenstate(2), random_periodic(rng), random_sphere(rng, 2)]
        kets = lift_all(drawn)
        assert [ket.state for ket in kets] == drawn
        assert kets[0].batch[0] is kets[2].batch[0]
        assert [kets[0].batch[1], kets[2].batch[1]] == [(0,), (1,)]
        assert kets[1].batch is None and kets[3].batch is None  # alone on their bands

    def test_failed_mean_raises_for_its_own_ket_only(self):
        from angulab.operators import lift_all

        alone = self._phi_kets()
        with pytest.raises(ArithmeticError) as want:
            alone[1].mean(LZ)
        kets = lift_all(self._phi_kets())
        assert len({id(ket.batch[0]) for ket in kets}) == 1
        assert kets[0].mean(LZ) == alone[0].mean(LZ)
        assert kets[0].std(PHI) == alone[0].std(PHI)
        assert kets[1].mismatch(LZ, PHI) == alone[1].mismatch(LZ, PHI)
        for read in (lambda ket: ket.mean(LZ), lambda ket: ket.std(PHI), lambda ket: ket.cross(LZ, PHI)):
            with pytest.raises(ArithmeticError) as got:
                read(kets[1])
            assert str(got.value) == str(want.value)
        assert kets[2].cross(LZ, PHI) == alone[2].cross(LZ, PHI)

    def test_block_freed_with_its_last_ket(self):
        """Kets and blocks form no reference cycle: with the cyclic collector
        off, a block is freed once the last ket that read it is dropped, for
        a ket alone and for a ``lift_all`` batch of each family."""
        import gc
        import weakref

        from angulab.operators import lift_all
        from angulab.relations import gram_det

        rng = np.random.default_rng(12)
        draws = {
            "periodic": lambda: periodic_superposition(dict(zip((-2, 0, 1), rng.normal(size=3)))),
            "oscillator": lambda: random_oscillator(rng),
            "sphere": lambda: random_sphere(rng, 2),
        }
        enabled = gc.isenabled()
        gc.disable()
        try:
            for family, draw in draws.items():
                for size in (1, 3):  # alone, and in a batch
                    kets = lift_all([draw() for _ in range(size)])
                    for ket in kets:
                        pair = ket.pair(LZ, PHI)
                        pair.moments, pair.mismatch, ket.deviation(SIN_PHI), ket.acted(COS_PHI)
                        gram_det(ALL_OBS, ket)
                    assert len({id(ket.batch[0]) for ket in kets}) == 1, family
                    block = weakref.ref(kets[0].batch[0].block)
                    del ket, pair, kets
                    assert block() is None, family
        finally:
            if enabled:
                gc.enable()
