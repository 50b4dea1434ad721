"""Acceptance suite: every criterion at its stated tolerance.

Criteria 9 and 10 share one seeded sweep (1000 random states per family,
all observable pairs from {Lz, Phi, SinPhi, CosPhi}); the conftest hook
prints one pass/fail line per criterion at the end of the run.
"""

import itertools
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from angulab import oracle
from angulab.operators import (
    COS_PHI,
    LZ,
    PHI,
    SIN_PHI,
    commutator_residual,
    lift,
    lift_all,
    qtp_energy_mean,
    sphere_variances,
    std_dev,
)
from angulab.relations import (
    adjointness_mismatch,
    adjusted_relation,
    annul_sphere_mismatch,
    boundary_bound,
    csf,
    gram_det,
    rsur,
    sphere_anomaly,
    sphere_mismatch,
)
from angulab.states import (
    qtp_eigenstate,
    random_oscillator,
    random_periodic,
    random_sphere,
    scr_eigenstate,
    sphere_state,
)

PI = np.pi
PAIRS = list(itertools.combinations((LZ, PHI, SIN_PHI, COS_PHI), 2))


def test_c01_scr_moments():
    started = time.perf_counter()
    for m in range(-5, 6):
        s = scr_eigenstate(m)
        assert std_dev(LZ, s) == 0.0
        assert abs(std_dev(PHI, s) - PI / np.sqrt(3)) < 1e-10
        table = oracle.moment_table(s, ("Lz", "Phi"))
        assert abs(table["Lz"][1]) < 1e-6
        assert abs(table["Phi"][1] - PI / np.sqrt(3)) < 1e-6
    assert time.perf_counter() - started < 1.0


def test_c02_rsur_fails_while_csf_holds_on_scr():
    for m in range(-5, 6):
        for hbar in (1.0, 2.0):
            s = scr_eigenstate(m, hbar=hbar)
            r = rsur(LZ, PHI, s)
            assert r.lhs == 0.0
            assert r.rhs == pytest.approx(hbar / 2, abs=1e-12)
            assert r.satisfied is False
            c = csf(LZ, PHI, s)
            assert c.lhs == 0.0 and c.rhs == 0.0 and c.satisfied is True


def test_c03_anomaly_constant():
    for hbar in (1.0, 0.5, 3.7):
        for m in range(-20, 21):
            s = scr_eigenstate(m, hbar=hbar)
            mm = adjointness_mismatch(LZ, PHI, s)
            assert abs(mm.entries[0, 1] - 1j * hbar) < 1e-8
        # oracle cross-check on a subset keeps the loop quick
        for m in (-20, -7, 0, 13, 20):
            s = scr_eigenstate(m, hbar=hbar)
            got = oracle.mismatch_entries(s, "Lz", "Phi")[0, 1]
            assert abs(got - 1j * hbar) <= 1e-6 * hbar


def test_c04_qtp_closed_forms():
    started = time.perf_counter()
    for inertia, omega in ((1.0, 1.0), (2.0, 0.5)):
        for n in range(11):
            q = qtp_eigenstate(n, inertia=inertia, frequency=omega)
            want_lz = np.sqrt(inertia * omega * (n + 0.5))
            want_phi = np.sqrt((n + 0.5) / (inertia * omega))
            assert abs(std_dev(LZ, q) - want_lz) < 1e-8
            assert abs(std_dev(PHI, q) - want_phi) < 1e-8
            table = oracle.moment_table(q, ("Lz", "Phi"))
            assert abs(table["Lz"][1] - want_lz) < 1e-6
            assert abs(table["Phi"][1] - want_phi) < 1e-6
            product = std_dev(LZ, q) * std_dev(PHI, q)
            assert product == pytest.approx(n + 0.5, abs=1e-8)
            assert product >= 0.5 - 1e-12
            assert rsur(LZ, PHI, q).satisfied
    assert time.perf_counter() - started < 5.0


def test_c05_qtp_condition_clean():
    for n in range(11):
        mm = adjointness_mismatch(LZ, PHI, qtp_eigenstate(n))
        assert mm.max_modulus < 1e-8
    rng = np.random.default_rng(505)
    for _ in range(100):
        s = random_oscillator(rng)
        mm = adjointness_mismatch(LZ, PHI, s)
        assert abs(mm.entries[0, 1]) < 1e-8


def test_c06_energy_spectrum():
    for inertia, omega, hbar in ((1.0, 1.0, 1.0), (2.0, 0.5, 1.0), (1.0, 2.0, 0.5)):
        for n in range(11):
            q = qtp_eigenstate(n, inertia=inertia, frequency=omega, hbar=hbar)
            assert abs(qtp_energy_mean(q) - hbar * omega * (n + 0.5)) < 1e-10


def test_c07_sphere_variances():
    rng = np.random.default_rng(707)
    for i in range(100):
        l = 1 + i % 3
        s = random_sphere(rng, l)
        v = sphere_variances(s)
        assert abs(v["var_Lz"] - std_dev(LZ, s) ** 2) < 1e-10
        table = oracle.moment_table(s, ("Phi",))
        assert abs(v["var_phi"] - table["Phi"][1] ** 2) < 1e-6
    for l, m in ((1, 0), (2, -2), (3, 1)):
        v = sphere_variances(sphere_state(l, {m: 1.0}))
        assert abs(v["var_phi"] - PI**2 / 3) < 1e-8


def test_c08_sphere_mismatch_tuning():
    tuned = annul_sphere_mismatch(l=1)
    assert abs(sphere_mismatch(tuned)) < 1e-6
    r = rsur(LZ, PHI, tuned)
    assert r.satisfied is True
    info = sphere_anomaly(tuned)
    assert info["direct_mismatch"] == pytest.approx(0.0, abs=1e-6)

    anomalous = sphere_state(1, {0: 1.0})
    assert abs(sphere_mismatch(anomalous) - 1j) < 1e-10
    r2 = rsur(LZ, PHI, anomalous)
    assert r2.details["mismatch_max"] > 1e-3
    assert r2.satisfied is False


@pytest.fixture(scope="module")
def pair_sweep():
    """1000 seeded random states per family, all pairs, each family's states
    lifted as one sweep (one block per band); csf timed alone."""
    states_by_family = {}
    rng = np.random.default_rng(909)
    states_by_family["periodic"] = [random_periodic(rng) for _ in range(1000)]
    states_by_family["oscillator"] = [random_oscillator(rng, nmax=8) for _ in range(1000)]
    states_by_family["sphere"] = [random_sphere(rng, 1 + i % 3) for i in range(1000)]

    records = []
    csf_elapsed = 0.0
    for family, bunch in states_by_family.items():
        for ket in lift_all(bunch):
            for obs_a, obs_b in PAIRS:
                t0 = time.perf_counter()
                c = csf(obs_a, obs_b, ket)
                csf_elapsed += time.perf_counter() - t0
                r = rsur(obs_a, obs_b, ket)
                records.append(
                    {
                        "family": family,
                        "pair": (obs_a.tag, obs_b.tag),
                        "csf_slack": c.slack,
                        "rsur_slack": r.slack,
                        "rsur_satisfied": r.satisfied,
                        "mismatch_max": r.details["mismatch_max"],
                    }
                )
    return {"records": records, "csf_elapsed": csf_elapsed}


def test_c09_csf_universality(pair_sweep):
    records = pair_sweep["records"]
    assert len(records) >= 3 * 1000 * len(PAIRS)
    min_slack = min(rec["csf_slack"] for rec in records)
    assert min_slack >= -1e-10
    assert pair_sweep["csf_elapsed"] < 60.0


def test_c10_conditional_rsur(pair_sweep):
    records = pair_sweep["records"]
    entitled = [r for r in records if r["mismatch_max"] < 1e-8]
    assert entitled, "sweep must visit condition-passing cases"
    for rec in entitled:
        assert rec["rsur_slack"] >= -1e-8
    violations = [r for r in records if not r["rsur_satisfied"]]
    assert violations, "sweep must visit violating cases"
    for rec in violations:
        assert rec["mismatch_max"] > 1e-3


def test_c11_boundary_bound():
    rng = np.random.default_rng(111)
    for _ in range(1000):
        r = boundary_bound(random_periodic(rng))
        assert r.slack >= -1e-8
        assert r.details["product_slack"] >= -1e-8
    for m in (-3, 0, 5):
        r = boundary_bound(scr_eigenstate(m))
        assert r.lhs == pytest.approx(0.0, abs=1e-12)
        assert r.rhs == pytest.approx(0.0, abs=1e-12)
        assert r.satisfied


def test_c12_gram_generalization():
    rng = np.random.default_rng(1212)
    for _ in range(500):
        s = random_periodic(rng)
        pair = gram_det([LZ, PHI], s)
        triple = gram_det([LZ, SIN_PHI, COS_PHI], s)
        assert pair.lhs >= -1e-9
        assert triple.lhs >= -1e-9
        assert pair.details["min_eigenvalue"] >= -1e-9
        assert triple.details["min_eigenvalue"] >= -1e-9
    repeated = gram_det([LZ, PHI, LZ], random_periodic(np.random.default_rng(13)))
    assert repeated.lhs == pytest.approx(0.0, abs=1e-10)


def test_c13_mimic_presets():
    rng = np.random.default_rng(1313)
    for _ in range(200):
        for state in (random_periodic(rng), random_oscillator(rng), random_sphere(rng, 2)):
            for name in ("eq8-sin", "eq8-cos", "eq9-trig"):
                assert adjusted_relation(name, state).slack >= -1e-8
    for m in (-2, 0, 3):
        s = scr_eigenstate(m)
        r8 = adjusted_relation("eq8-sin", s)
        assert r8.lhs == pytest.approx(0.0, abs=1e-8)
        assert r8.rhs == pytest.approx(0.0, abs=1e-8)
        assert r8.satisfied
        r9 = adjusted_relation("eq9-trig", s)
        assert r9.lhs == pytest.approx(0.5, abs=1e-8)
        assert r9.rhs == pytest.approx(0.0, abs=1e-8)
        assert r9.satisfied


def test_c14_commutator_residual():
    rng = np.random.default_rng(1414)
    for _ in range(50):
        assert commutator_residual(random_periodic(rng), 1024) < 1e-6
    for _ in range(50):
        state = random_oscillator(rng, nmax=3)
        assert commutator_residual(state, 1024) < 1e-6


def test_c15_cli_determinism():
    args = [
        sys.executable,
        "-m",
        "angulab.cli",
        "sweep",
        "scr",
        "--random",
        "6",
        "--seed",
        "42",
        "--relations",
        "csf,rsur,condition19",
    ]
    first = subprocess.run(args, capture_output=True, text=True, check=True)
    second = subprocess.run(args, capture_output=True, text=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.encode() == second.stdout.encode()
    json.loads(first.stdout)  # well-formed
