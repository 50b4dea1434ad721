import itertools

import numpy as np
import pytest

from angulab import operators
from angulab.operators import (
    COS_PHI,
    LZ,
    PHI,
    SIN_PHI,
    LineKet,
    Observable,
    UnsupportedObservable,
    lift,
)
from angulab.relations import (
    EQ8_SIN,
    AdjustedRelation,
    adjointness_mismatch,
    adjusted_relation,
    annul_sphere_mismatch,
    boundary_bound,
    covariance_decomposition,
    csf,
    gram_det,
    identity_report,
    rsur,
    sphere_anomaly,
    sphere_mismatch,
)
from angulab.states import (
    periodic_superposition,
    qtp_eigenstate,
    random_oscillator,
    random_periodic,
    random_sphere,
    scr_eigenstate,
    sphere_state,
)

PI = np.pi


class TestCsf:
    def test_scr_trivial_equality(self):
        r = csf(LZ, PHI, scr_eigenstate(4))
        assert r.lhs == 0.0 and r.rhs == 0.0 and r.satisfied

    def test_qtp_values(self):
        r = csf(LZ, PHI, qtp_eigenstate(1))
        assert r.lhs == pytest.approx(1.5, abs=1e-12)
        assert r.rhs == pytest.approx(0.5, abs=1e-12)
        assert r.satisfied

    def test_random_sweep(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            r = csf(LZ, PHI, random_periodic(rng))
            assert r.slack >= -1e-10


class TestCondition19:
    def test_scr_anomaly(self):
        mm = adjointness_mismatch(LZ, PHI, scr_eigenstate(2))
        assert mm.entries[0, 1] == pytest.approx(1j, abs=1e-12)
        # only the (Lz, Phi) corner is anomalous
        assert abs(mm.entries[0, 0]) < 1e-12
        assert abs(mm.entries[1, 0]) < 1e-12
        assert abs(mm.entries[1, 1]) < 1e-12

    def test_qtp_clean(self):
        for n in (0, 2, 7):
            mm = adjointness_mismatch(LZ, PHI, qtp_eigenstate(n))
            assert mm.max_modulus < 1e-8

    def test_sphere_single_m(self):
        mm = adjointness_mismatch(LZ, PHI, sphere_state(1, {1: 1.0}))
        assert mm.entries[0, 1] == pytest.approx(1j, abs=1e-10)

    def test_boundary_density_formula(self):
        # on the circle the anomalous entry equals 2 pi i hbar |psi(0)|^2
        rng = np.random.default_rng(4)
        for _ in range(10):
            s = random_periodic(rng)
            mm = adjointness_mismatch(LZ, PHI, s)
            from angulab.states import boundary_value

            want = 2j * PI * abs(boundary_value(s)) ** 2
            assert mm.entries[0, 1] == pytest.approx(want, abs=1e-10)

    def test_periodic_multiplications_pass(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            s = random_periodic(rng)
            assert adjointness_mismatch(LZ, SIN_PHI, s).max_modulus < 1e-10
            assert adjointness_mismatch(PHI, COS_PHI, s).max_modulus < 1e-10


class TestRsur:
    def test_scr_failure(self):
        r = rsur(LZ, PHI, scr_eigenstate(3))
        assert r.lhs == 0.0
        assert r.rhs == pytest.approx(0.5, abs=1e-12)
        assert not r.satisfied
        assert r.details["commutator_route"] == "direct"

    def test_qtp_satisfied(self):
        for n in (0, 1, 4):
            r = rsur(LZ, PHI, qtp_eigenstate(n))
            assert r.lhs == pytest.approx(n + 0.5, abs=1e-10)
            assert r.rhs == pytest.approx(0.5, abs=1e-10)
            assert r.satisfied

    def test_lz_sin_on_periodic(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            r = rsur(LZ, SIN_PHI, random_periodic(rng))
            assert r.details["mismatch_max"] < 1e-10
            assert r.slack >= -1e-8


class TestDecomposition:
    def test_qtp_parity(self):
        res = covariance_decomposition(LZ, PHI, qtp_eigenstate(2))
        assert res.applicable
        assert res.symmetric == pytest.approx(0.0, abs=1e-12)
        assert res.antisymmetric == pytest.approx(-0.5, abs=1e-12)
        assert res.residual < 1e-10

    def test_scr_sin_pair(self):
        res = covariance_decomposition(LZ, SIN_PHI, scr_eigenstate(2))
        assert res.applicable
        assert res.antisymmetric == pytest.approx(0.0, abs=1e-12)
        assert res.residual < 1e-10

    def test_identity_when_conditions_hold(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            s = random_oscillator(rng)
            res = covariance_decomposition(LZ, PHI, s)
            assert res.applicable
            assert res.residual < 1e-8

    def test_flagged_when_conditions_fail(self):
        res = covariance_decomposition(LZ, PHI, scr_eigenstate(1))
        assert not res.applicable
        assert res.mismatch_max == pytest.approx(1.0, abs=1e-10)


class TestBoundaryBound:
    def test_scr_equality_zero(self):
        r = boundary_bound(scr_eigenstate(5))
        assert r.lhs == pytest.approx(0.0, abs=1e-12)
        assert r.rhs == pytest.approx(0.0, abs=1e-12)
        assert r.satisfied

    def test_two_mode_superposition(self):
        # psi(0) = sqrt(2 / 2 pi) so the density is 1 / pi and the bound
        # is hbar / 2; the deviation inner product hits it exactly
        s = periodic_superposition({0: 1, 1: 1})
        r = boundary_bound(s)
        assert r.rhs == pytest.approx(0.5, abs=1e-12)
        assert r.lhs == pytest.approx(0.5, abs=1e-12)
        assert r.details["product_slack"] > 0
        assert r.satisfied

    def test_random_sweep(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            r = boundary_bound(random_periodic(rng))
            assert r.slack >= -1e-8
            assert r.details["product_slack"] >= -1e-8

    def test_family_guard(self):
        with pytest.raises(UnsupportedObservable):
            boundary_bound(qtp_eigenstate(0))

    def test_ket_reads_the_state_it_records(self):
        """A lifted circle ket gives the report of its state; a ket an
        operation returned has no state to take B from, and is refused."""
        for state in (scr_eigenstate(1), periodic_superposition({0: 1, 1: 1j})):
            ket = lift(state)
            assert boundary_bound(ket).to_json() == boundary_bound(state).to_json()
            with pytest.raises(UnsupportedObservable, match="circle states only"):
                boundary_bound(ket.scaled(1.0))


class TestAdjustedRelations:
    def test_eq8_sin_scr(self):
        r = adjusted_relation("eq8-sin", scr_eigenstate(3))
        assert r.lhs == pytest.approx(0.0, abs=1e-12)
        assert r.rhs == pytest.approx(0.0, abs=1e-12)
        assert r.satisfied

    def test_eq8_sin_random(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            r = adjusted_relation(EQ8_SIN, random_periodic(rng))
            assert r.slack >= -1e-8

    def test_eq9_scr_closed_form(self):
        s = scr_eigenstate(2, hbar=1.0)
        r = adjusted_relation("eq9-trig", s)
        # <sin^2> = 1/2 on a sharp rotation state
        assert r.lhs == pytest.approx(0.5, abs=1e-8)
        assert r.rhs == pytest.approx(0.0, abs=1e-12)
        assert r.satisfied

    def test_unknown_preset(self):
        with pytest.raises(UnsupportedObservable):
            adjusted_relation("eq8-tan", scr_eigenstate(0))

    def test_unrepresentable_function_rejected(self):
        rel = AdjustedRelation("bad", "function-pair", f=Observable("NoAction"), g=COS_PHI)
        with pytest.raises(UnsupportedObservable):
            adjusted_relation(rel, scr_eigenstate(0))


class TestGramDet:
    def test_pair_reduces_to_csf(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            s = random_periodic(rng)
            g = gram_det([LZ, PHI], s)
            r = csf(LZ, PHI, s)
            assert g.lhs == pytest.approx(r.lhs**2 - r.rhs**2, abs=1e-9)

    def test_triple_sweep(self):
        rng = np.random.default_rng(18)
        for _ in range(100):
            g = gram_det([LZ, SIN_PHI, COS_PHI], random_periodic(rng))
            assert g.lhs >= -1e-9
            assert g.details["min_eigenvalue"] >= -1e-9

    def test_repeated_observable_singular(self):
        rng = np.random.default_rng(19)
        g = gram_det([LZ, PHI, LZ], random_periodic(rng))
        assert g.lhs == pytest.approx(0.0, abs=1e-10)

    def test_needs_two(self):
        with pytest.raises(ValueError):
            gram_det([LZ], scr_eigenstate(0))


class TestSphereAnomaly:
    def test_single_m(self):
        info = sphere_anomaly(sphere_state(1, {0: 1.0}))
        assert info["direct_mismatch"] == pytest.approx(1j, abs=1e-10)

    def test_ket_reads_the_state_it_records(self):
        """A lifted sphere ket gives the anomaly of its state."""
        state = sphere_state(2, {-1: 1.0, 0: 0.5j, 2: 1.0})
        assert sphere_anomaly(lift(state)) == sphere_anomaly(state)
        with pytest.raises(UnsupportedObservable, match="sphere states only"):
            sphere_anomaly(lift(scr_eigenstate(1)))

    def test_uniform_triplet(self):
        # overlap of the outer theta rows is -1, so the bracket is 1 - 2/3
        s = sphere_state(1, {-1: 1, 0: 1, 1: 1})
        assert sphere_mismatch(s) == pytest.approx(1j / 3, abs=1e-10)

    def test_annulment_search(self):
        best = annul_sphere_mismatch(l=1)
        assert abs(sphere_mismatch(best)) < 1e-6
        r = rsur(LZ, PHI, best)
        assert r.satisfied

    def test_entitlement_fails_on_single_m(self):
        s = sphere_state(1, {0: 1.0})
        assert abs(sphere_mismatch(s) - 1j) < 1e-10
        r = rsur(LZ, PHI, s)
        assert not r.satisfied
        assert r.details["mismatch_max"] > 1e-3

    def test_oracle_confirms_direct(self):
        from angulab import oracle

        s = sphere_state(1, {-1: 1, 0: 1j, 1: 0.5})
        got = oracle.mismatch_entries(s, "Lz", "Phi")[0, 1]
        assert got == pytest.approx(sphere_mismatch(s), abs=2e-6)


class TestReportConventions:
    def test_identity_report_invariant(self):
        rep = identity_report("demo", 3e-9, 1e-8, {})
        assert rep.satisfied and rep.slack >= -rep.tolerance
        rep = identity_report("demo", 3e-7, 1e-8, {})
        assert not rep.satisfied and rep.slack < -rep.tolerance

    def test_report_json_shape(self):
        r = csf(LZ, PHI, qtp_eigenstate(0)).to_json()
        assert set(r) == {"relation", "lhs", "rhs", "slack", "satisfied", "tolerance", "details"}
        assert r["details"]["cross"].keys() == {"re", "im"}

    def test_mismatch_json(self):
        mm = adjointness_mismatch(LZ, PHI, scr_eigenstate(1)).to_json()
        assert mm["max_modulus"] == pytest.approx(1.0, abs=1e-12)
        assert mm["entries"][0][1]["im"] == pytest.approx(1.0, abs=1e-12)


class TestSharedKet:
    """Every relation called on one lifted ket reads the same memo: the
    pair sweep's csf and rsur calls give exactly the reports of a fresh ket
    per call, in either pair order, and act with each operator once on psi
    and once on the stack of A psi."""

    PAIRS = tuple(itertools.combinations((LZ, PHI, SIN_PHI, COS_PHI), 2))
    LABELS = ("random periodic", "random oscillator", "random sphere l=2")

    @staticmethod
    def _states():
        rng = np.random.default_rng(808)
        return {
            "random periodic": random_periodic(rng),
            "random oscillator": random_oscillator(rng, inertia=1.3, frequency=0.8),
            "random sphere l=2": random_sphere(rng, 2),
        }

    @pytest.mark.parametrize("label", LABELS)
    def test_shared_equals_fresh(self, label):
        state = self._states()[label]
        fresh = {
            (a, b): (csf(a, b, lift(state)), rsur(a, b, lift(state))) for a, b in self.PAIRS
        }
        ket = lift(state)
        for pairs in (self.PAIRS, self.PAIRS[::-1]):
            for a, b in pairs:
                assert (csf(a, b, ket), rsur(a, b, ket)) == fresh[a, b], (label, a.tag, b.tag)

    def test_apply_calls_per_ket(self, actions):
        """The 12 pair-sweep calls on one ket act at most 8 times: A psi for
        the 4 observables, and (psi, A B psi) for all 16 ordered pairs from
        psi's bra pulled back through each A by a cached form, with no A B
        psi formed.  Every ket acts through a band map.  A circle or sphere
        map is built from one ``apply`` per observable on a stack of basis
        kets, and its forms from one more map, so it is counted on emptied
        map and form caches; a line map holds its observables' matrices and
        its forms are views of it, so a line ket does not act through
        ``apply`` at all.  Once the maps are built, a new ket on the same
        band acts zero times in every class."""
        for label, state in self._states().items():
            operators._band_map.cache_clear()
            operators._bra_form.cache_clear()
            for first in (True, False):
                ket = lift(state)
                actions.clear()
                for a, b in self.PAIRS:
                    csf(a, b, ket)
                    rsur(a, b, ket)
                if first and not isinstance(ket, LineKet):
                    assert 0 < len(actions) <= 8, (label, len(actions))
                else:
                    assert actions == [], (label, first)


class TestPairRead:
    """A relation call takes one block lookup: ``Ket.pair`` for a pair, one
    ``Ket._block`` over all its observables for gram_det."""

    CALLS = {
        "csf": lambda ket: csf(LZ, PHI, ket),
        "rsur": lambda ket: rsur(SIN_PHI, COS_PHI, ket),
        "adjointness_mismatch": lambda ket: adjointness_mismatch(PHI, SIN_PHI, ket),
        "covariance_decomposition": lambda ket: covariance_decomposition(LZ, COS_PHI, ket),
        "gram_det": lambda ket: gram_det((LZ, PHI, SIN_PHI, COS_PHI), ket),
        "boundary_bound": boundary_bound,
    }

    @staticmethod
    def _states(circle_only=False):
        rng = np.random.default_rng(44)
        out = [random_periodic(rng), random_oscillator(rng), random_sphere(rng, 2)]
        return out[:1] if circle_only else out

    @pytest.mark.parametrize("name", CALLS)
    def test_one_lookup_per_call(self, name, lookups):
        """One lookup on a fresh ket, whose block it builds, and one again
        once the block is built."""
        for state in self._states(circle_only=name == "boundary_bound"):
            ket = operators.lift(state)
            for when in ("fresh", "warm"):
                lookups.clear()
                self.CALLS[name](ket)
                assert len(lookups) == 1, (state.family, when, lookups)

    def test_read_order_shares_one_block(self):
        """mismatch(L_z, sin phi) and mismatch(sin phi, L_z) read one block
        of a ket whichever comes first, so both orders give the same bits."""
        for state in self._states():
            seen = []
            for order in ((LZ, SIN_PHI), (SIN_PHI, LZ)):
                ket = lift(state)
                values = {(a.tag, b.tag): ket.mismatch(a, b) for a, b in (order, order[::-1])}
                seen.append(values)
            assert seen[0] == seen[1], state.family

    def test_observables_outside_the_four_rejected(self):
        """A read of anything but L_z, phi, sin phi and cos phi, given as an
        observable or by tag, raises before the ket builds its block."""
        others = (Observable("raise", fourier=((1, 1.0),)), Observable("Phi2"), "Phi2")
        for state in self._states():
            ket = lift(state)
            for other in others:
                reads = (
                    lambda: operators.apply(other, ket),
                    lambda: ket.mean(other),
                    lambda: ket.mismatch(other, LZ),
                    lambda: csf(LZ, other, ket),
                    lambda: adjointness_mismatch(other, LZ, ket),
                )
                for read in reads:
                    with pytest.raises(UnsupportedObservable):
                        read()
            assert ket.row is None, state.family
