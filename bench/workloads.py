"""The three benchmark workloads: inputs from a seed, one op, and its checks.

pair-sweep
    Library calls only.  One op lifts one seeded random state once and runs
    ``csf`` and ``rsur`` over all 6 pairs of {Lz, Phi, SinPhi, CosPhi}: the
    generator of acceptance criteria c09/c10.  Op ``i`` draws a periodic
    (band 8), oscillator (nmax 8) or sphere state for ``i % 3``; sphere l
    cycles 1, 2, 3.  Loads the ket ``inner`` path with no CLI or oracle.
cli-sweep
    ``cli.main(["sweep", ...])`` in-process with stdout captured, cycling
    through eigenstate ranges ``scr --m=a..b`` and ``qtp --n a..b`` (wide,
    sparse kets: scr eigenstates are padded to truncation 64, Hermite
    dimension n + 49) and random ``scr``, ``qtp`` and ``sphere --l L`` sweeps
    (narrow, dense kets), each with the 13 spectral relations and output
    alternating between JSON and CSV.  Loads ``operators`` through many ket
    shapes plus ``cli`` report assembly.
oracle-scenario
    ``cli.main(["scenario", "custom", "--coeffs", FILE, "--oracle"])`` with
    the default relation set, on seeded random states in equal thirds per
    family, written to files during set-up.  Grid sampling, differencing
    and quadrature dominate; the spectral path is below 1% of it.

Every op is checked.  The c09/c10 invariants hold for any seed: csf slack
>= -1e-10; rsur slack >= -1e-8 wherever the adjointness mismatch < 1e-8;
every rsur violation has mismatch > 1e-3.  eq22 gives i hbar on scr
eigenstates and every oracle_delta stays below ORACLE_DELTA_LIMIT.  For
seeds with a file in ``refs/``, the first ops are also compared number by
number with the values recorded there, at the golden tolerance of the
CLI tests (rel 1e-9, abs 1e-12).
"""

import contextlib
import csv
import io
import itertools
import json
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np

from angulab import cli, operators, relations, states

REFS = Path(__file__).resolve().parent / "refs"
OUT = REFS.parent.parent / ".bench_out"  # scratch space inside the checkout

CSF_TOL = 1e-10
RSUR_TOL = 1e-8
ENTITLED_MISMATCH = 1e-8
VIOLATION_MISMATCH = 1e-3
EQ22_TOL = 1e-8
ORACLE_DELTA_LIMIT = 1e-5
REF_REL = 1e-9
REF_ABS = 1e-12

PAIRS = tuple(
    itertools.combinations((operators.LZ, operators.PHI, operators.SIN_PHI, operators.COS_PHI), 2)
)
SPECTRAL_RELATIONS = (
    "csf",
    "rsur",
    "condition19",
    "decomposition",
    "boundary",
    "gram",
    "eq8-sin",
    "eq8-cos",
    "eq9-trig",
    "eq22",
    "eq23",
    "eq24",
    "moments",
)


def _random_state(rng, i):
    """Op i's state: family i % 3, sphere l cycling 1, 2, 3."""
    family = i % 3
    if family == 0:
        return states.random_periodic(rng, band=8)
    if family == 1:
        return states.random_oscillator(rng, nmax=8)
    return states.random_sphere(rng, 1 + (i // 3) % 3)


def pair_problems(where, csf_slack, rsur_slack, rsur_satisfied, mismatch):
    """The c09/c10 invariants for one observable pair."""
    problems = []
    if not csf_slack >= -CSF_TOL:
        problems.append(f"{where}: csf slack {csf_slack!r} below -{CSF_TOL}")
    if mismatch < ENTITLED_MISMATCH and not rsur_slack >= -RSUR_TOL:
        problems.append(f"{where}: rsur slack {rsur_slack!r} below -{RSUR_TOL} with mismatch {mismatch!r}")
    if not rsur_satisfied and not mismatch > VIOLATION_MISMATCH:
        problems.append(f"{where}: rsur violated with mismatch {mismatch!r} <= {VIOLATION_MISMATCH}")
    return problems


def compare(got, want, path="$"):
    """Where ``got`` differs from the recorded ``want``.

    Floats agree within rel REF_REL or abs REF_ABS; everything else must be
    equal.  Keys that ``got`` has beyond ``want`` are ignored, so additive
    report fields do not fail the check.
    """
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return [f"{path}: expected an object"]
        out = []
        for key, val in want.items():
            if key in got:
                out += compare(got[key], val, f"{path}.{key}")
            else:
                out.append(f"{path}.{key}: missing")
        return out
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: expected a list of {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want)) for d in compare(g, w, f"{path}[{i}]")]
    if isinstance(want, float):
        ok = (
            isinstance(got, (int, float))
            and not isinstance(got, bool)
            and abs(got - want) <= max(REF_REL * abs(want), REF_ABS)
        )
        return [] if ok else [f"{path}: {got!r} != recorded {want!r}"]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != recorded {want!r}"]
    return []


def rounded(obj):
    """``obj`` with floats kept to 12 significant digits, for recording."""
    if isinstance(obj, dict):
        return {key: rounded(val) for key, val in obj.items()}
    if isinstance(obj, list):
        return [rounded(val) for val in obj]
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    return obj


def call_cli(argv):
    """(exit code, stdout, stderr) of one in-process ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


class Workload:
    """Seeded op inputs, the op itself, and its checks.

    ``block`` ops form one cycle of the input mix; runs stop only at block
    boundaries so every run has the same mix.  ``fixed_ops`` is the length
    of a traced pass, ``reference_ops`` that of the recorded prefix.  Op i
    draws its input from its own generator, seeded with (seed, i), so no
    input is kept and any op can be redrawn.
    """

    name = None
    block = 1
    fixed_ops = 1
    reference_ops = 1

    def __init__(self, seed, refs=None):
        self.seed = seed
        if refs is None:
            path = REFS / f"{self.name}-seed{seed}.json"
            refs = json.loads(path.read_text())["ops"] if path.is_file() else []
        self.refs = refs
        self.oracle_delta_max = 0.0

    def input(self, i):
        return self._draw(np.random.default_rng([self.seed, i]), i)

    def check(self, i, inp, out):
        """Problems with op i's output; empty when it is correct."""
        problems = self._invariants(inp, out)
        if i < len(self.refs) and not problems:
            problems = compare(self.reference_form(out), self.refs[i], f"op{i}")[:5]
        return problems

    def report_bytes(self, out):
        return 0

    def close(self):
        pass


class PairSweep(Workload):
    name = "pair-sweep"
    block = 9
    fixed_ops = 18
    reference_ops = 9

    def _draw(self, rng, i):
        return _random_state(rng, i)

    def states_in(self, inp):
        return 1

    def run(self, state):
        ket = operators.lift(state)
        return [(relations.csf(a, b, ket), relations.rsur(a, b, ket)) for a, b in PAIRS]

    def _invariants(self, state, out):
        problems = []
        for (a, b), (c, r) in zip(PAIRS, out):
            where = f"{state.family} {a.tag},{b.tag}"
            problems += pair_problems(where, c.slack, r.slack, r.satisfied, r.details["mismatch_max"])
        return problems

    def reference_form(self, out):
        return [[c.to_json(), r.to_json()] for c, r in out]


class CliSweep(Workload):
    """Op i runs sweep kind i % 5 with format i % 2: an scr eigenstate range
    of 5 modes centred on a seeded m, a qtp eigenstate range of 9 levels from
    a seeded n, or 7 random scr, 8 random qtp or 3 random sphere states from
    a seeded sweep seed, sphere l cycling 1, 2, 3.  Sizes are fixed, so every
    block of 30 ops has the same mix of kinds, formats and l.  The sizes give
    the first four kinds and l = 1 about the same op time, so op_ms_p50 falls
    inside one cluster of op times rather than on the edge between two, and
    op_ms_p90 falls inside the l = 2 ops."""

    name = "cli-sweep"
    block = 30
    fixed_ops = 30
    reference_ops = 5
    SIZES = {"scr": 7, "qtp": 8, "sphere": 3}  # states per random sweep

    def _draw(self, rng, i):
        kind = i % 5
        if kind == 0:
            m = int(rng.integers(-20, 21))
            argv, count = ["sweep", "scr", f"--m={m - 2}..{m + 2}"], 5
        elif kind == 1:
            n = int(rng.integers(0, 13))
            argv, count = ["sweep", "qtp", "--n", f"{n}..{n + 8}"], 9
        else:
            family = ("scr", "qtp", "sphere")[kind - 2]
            count = self.SIZES[family]
            argv = ["sweep", family, "--random", str(count), "--seed", str(int(rng.integers(2**31)))]
            if family == "sphere":
                argv += ["--l", str(1 + (i // 5) % 3)]
        fmt = ("json", "csv")[i % 2]
        argv += ["--relations", ",".join(SPECTRAL_RELATIONS), "--format", fmt]
        return {"argv": argv, "count": count, "format": fmt, "eigen_scr": kind == 0}

    def states_in(self, inp):
        return inp["count"]

    def run(self, inp):
        return call_cli(inp["argv"])

    def report_bytes(self, out):
        return len(out[1].encode())

    def _items(self, inp, text):
        """Per state: relation -> (lhs, rhs, slack, satisfied) from either format."""
        if inp["format"] == "json":
            items = []
            for item in json.loads(text)["items"]:
                rows = {}
                for entry in item["reports"]:
                    if entry.get("status") == "not-applicable":
                        rows[entry["relation"]] = (None, None, None, "not-applicable")
                    else:
                        rows[entry["relation"]] = (entry["lhs"], entry["rhs"], entry["slack"], entry["satisfied"])
                items.append(rows)
            return items
        by_index = {}
        for row in csv.DictReader(io.StringIO(text)):
            applicable = row["satisfied"] != "not-applicable"
            by_index.setdefault(int(row["index"]), {})[row["relation"]] = (
                float(row["lhs"]) if applicable else None,
                float(row["rhs"]) if applicable else None,
                float(row["slack"]) if applicable else None,
                row["satisfied"] == "True" if applicable else "not-applicable",
            )
        return [by_index[i] for i in sorted(by_index)]

    def _invariants(self, inp, out):
        code, text, err = out
        if code != 0:
            return [f"exit code {code}: {err.strip()[:200]}"]
        try:
            items = self._items(inp, text)
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unparsable {inp['format']} report: {exc!r}"]
        if len(items) != inp["count"]:
            return [f"{len(items)} states reported, {inp['count']} expected"]
        problems = []
        for i, rows in enumerate(items):
            if tuple(rows) != SPECTRAL_RELATIONS:
                problems.append(f"item {i}: relations {sorted(rows)}")
                continue
            csf_row, rsur_row, mismatch = rows["csf"], rows["rsur"], rows["condition19"][1]
            problems += pair_problems(f"item {i}", csf_row[2], rsur_row[2], rsur_row[3], mismatch)
            eq22 = rows["eq22"]
            if inp["eigen_scr"] and (eq22[3] is not True or not eq22[1] <= EQ22_TOL):
                problems.append(f"item {i}: eq22 deviation {eq22[1]!r} on an scr eigenstate")
        return problems

    def reference_form(self, out):
        text = out[1]
        if text.startswith("{"):
            return json.loads(text)
        rows = list(csv.reader(io.StringIO(text)))
        return [rows[0]] + [
            [int(r[0]), *r[1:4], *(float(x) if x else x for x in r[4:7]), r[7]] for r in rows[1:]
        ]


class OracleScenario(Workload):
    name = "oracle-scenario"
    block = 9
    fixed_ops = 9
    reference_ops = 9
    pool = 180  # state files written at set-up; ops cycle through them

    def __init__(self, seed, refs=None):
        super().__init__(seed, refs)
        OUT.mkdir(exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="oracle-states-", dir=OUT)
        for i in range(self.pool):
            state = _random_state(np.random.default_rng([seed, i]), i)
            states.save(state, os.path.join(self.dir, f"state{i:03d}.json"))

    def _draw(self, rng, i):
        return os.path.join(self.dir, f"state{i % self.pool:03d}.json")

    def states_in(self, inp):
        return 1

    def run(self, path):
        return call_cli(["scenario", "custom", "--coeffs", path, "--oracle"])

    def report_bytes(self, out):
        return len(out[1].encode())

    def _invariants(self, path, out):
        code, text, err = out
        if code != 0:
            return [f"exit code {code}: {err.strip()[:200]}"]
        try:
            rows = {entry["relation"]: entry for entry in json.loads(text)["reports"]}
            csf_row, rsur_row, mm_row = rows["csf"], rows["rsur"], rows["condition19"]
            deltas = [entry["oracle_delta"] for entry in rows.values()]
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unparsable scenario report: {exc!r}"]
        problems = pair_problems(
            "Lz,Phi", csf_row["slack"], rsur_row["slack"], rsur_row["satisfied"], mm_row["rhs"]
        )
        worst = max(deltas)
        self.oracle_delta_max = max(self.oracle_delta_max, worst)
        if not worst <= ORACLE_DELTA_LIMIT:
            problems.append(f"oracle_delta {worst!r} above {ORACLE_DELTA_LIMIT}")
        return problems

    def reference_form(self, out):
        doc = json.loads(out[1])
        doc["params"]["coeffs"] = os.path.basename(doc["params"]["coeffs"])
        return doc

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (PairSweep, CliSweep, OracleScenario)}
