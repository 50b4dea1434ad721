import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

try:
    import jsonschema
except ImportError:
    jsonschema = None

GOLDEN = Path(__file__).parent / "golden"

ALL = (
    "csf", "rsur", "condition19", "decomposition", "boundary", "gram", "eq8-sin", "eq8-cos",
    "eq9-trig", "eq22", "eq23", "eq24", "moments", "commutator",
)


def run_cli(*args, check=True):
    """The CLI's completed process.  A config that ``validate`` accepts is
    also held to the config schema, where jsonschema is installed."""
    proc = subprocess.run(
        [sys.executable, "-m", "angulab.cli", *args],
        capture_output=True,
        text=True,
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed ({proc.returncode}): {proc.stderr}")
    if args[0] == "validate" and proc.returncode == 0 and jsonschema is not None:
        from angulab.cli import emit_schema

        jsonschema.validate(json.loads(Path(args[1]).read_text()), emit_schema()["config"])
    return proc


def walk_compare(got, want, path="$"):
    """Structural equality with float tolerance."""
    if isinstance(want, dict):
        assert isinstance(got, dict), path
        assert set(got) == set(want), (path, set(got) ^ set(want))
        for key in want:
            walk_compare(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            walk_compare(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12), path
    else:
        assert got == want, path


class TestScenario:
    def test_scr_m3_findings(self):
        proc = run_cli("scenario", "scr", "--m", "3", "--relations", "csf,rsur,condition19")
        doc = json.loads(proc.stdout)
        by = {r["relation"]: r for r in doc["reports"]}
        assert by["rsur"]["satisfied"] is False
        assert by["csf"]["satisfied"] is True
        assert by["csf"]["lhs"] == 0.0
        assert doc["mismatch"]["entries"][0][1]["im"] == pytest.approx(1.0, abs=1e-12)

    def test_qtp_equality_case(self):
        proc = run_cli("scenario", "qtp", "--n", "0", "--relations", "rsur")
        doc = json.loads(proc.stdout)
        rep = doc["reports"][0]
        assert rep["lhs"] == pytest.approx(0.5, abs=1e-12)
        assert rep["rhs"] == pytest.approx(0.5, abs=1e-12)
        assert rep["satisfied"] is True

    def test_not_applicable_entry(self):
        proc = run_cli("scenario", "qtp", "--n", "0", "--relations", "boundary,rsur")
        doc = json.loads(proc.stdout)
        entries = {r["relation"]: r for r in doc["reports"]}
        assert entries["boundary"]["status"] == "not-applicable"
        assert entries["rsur"]["satisfied"] is True

    def test_oracle_flag(self):
        proc = run_cli("scenario", "scr", "--m", "2", "--relations", "csf,condition19", "--oracle")
        doc = json.loads(proc.stdout)
        for rep in doc["reports"]:
            assert rep["oracle_delta"] < 1e-6

    def test_custom_state_roundtrip(self, tmp_path):
        from angulab import states

        path = tmp_path / "st.json"
        states.save(states.periodic_superposition({0: 1, 1: 1}), path)
        proc = run_cli("scenario", "custom", "--coeffs", str(path), "--relations", "boundary")
        doc = json.loads(proc.stdout)
        assert doc["reports"][0]["rhs"] == pytest.approx(0.5, abs=1e-12)

    def test_custom_report_shows_state_hbar(self, tmp_path):
        """A custom report's params carry the state file's hbar, from the
        command line and from a config alike."""
        path, cfg = tmp_path / "st.json", tmp_path / "cfg.json"
        path.write_text(PERIODIC_PARAMS % '{"hbar": 2.0}')
        cfg.write_text(json.dumps({"family": "custom", "parameters": {"coeffs": str(path)}}))
        for args in (("scenario", "custom", "--coeffs", str(path)), ("scenario", "--config", str(cfg))):
            doc = json.loads(run_cli(*args, "--relations", "csf").stdout)
            assert doc["params"] == {"coeffs": str(path), "hbar": 2.0}, args
            assert doc["state"]["params"]["hbar"] == 2.0, args

    def test_unknown_relation_is_config_error(self):
        proc = run_cli("scenario", "scr", "--relations", "nope", check=False)
        assert proc.returncode == 1
        assert "unknown relation" in proc.stderr


class TestSweep:
    def test_qtp_csv_rows(self):
        proc = run_cli("sweep", "qtp", "--n", "0..10", "--relations", "rsur", "--format", "csv")
        lines = proc.stdout.strip().splitlines()
        assert lines[0].split(",")[:4] == ["index", "family", "params", "relation"]
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 11
        for n, row in enumerate(rows):
            assert row[2] == f"n={n}"
            assert float(row[4]) == pytest.approx(n + 0.5, abs=1e-10)
            assert row[7] == "True"

    def test_random_sweep_json(self):
        proc = run_cli(
            "sweep", "scr", "--random", "5", "--seed", "7", "--relations", "csf,rsur"
        )
        doc = json.loads(proc.stdout)
        assert doc["count"] == 5
        for item in doc["items"]:
            for rep in item["reports"]:
                if rep["relation"] == "csf":
                    assert rep["slack"] >= -1e-10

    def test_determinism_bytes(self):
        args = ("sweep", "scr", "--random", "4", "--seed", "3", "--relations", "csf")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    @pytest.mark.parametrize(
        "family, values",
        [(("scr",), "-3..3"), (("scr",), "-3..-1"), (("sphere", "--l", "2"), "-2..2")],
        ids=["scr", "scr-negative", "sphere"],
    )
    def test_range_starting_below_zero_is_a_value(self, family, values):
        """``--m -3..3`` reads as the range, the same bytes as ``--m=-3..3``."""
        args = ("sweep", *family, "--relations", "csf,commutator")
        spaced = run_cli(*args, "--m", values).stdout
        assert spaced == run_cli(*args, f"--m={values}").stdout
        lo, hi = map(int, values.split(".."))
        assert [item["params"]["m"] for item in json.loads(spaced)["items"]] == list(range(lo, hi + 1))

    @pytest.mark.parametrize(
        "flags, text",
        [(("--m=-3..",), "-3.."), (("--m", "-3.."), "-3.."), (("--m", "3.."), "3.."), (("--m=..3",), "..3")],
        ids=["equals-negative", "spaced-negative", "spaced", "no-start"],
    )
    def test_range_with_an_empty_end_is_bad(self, capsys, flags, text):
        """A range needs both ends: ``a..`` and ``..b`` exit 1 with one
        ``error:`` line, whichever way the flag is spelled."""
        from angulab import cli

        assert cli.main(["sweep", "scr", *flags]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: bad range {text!r}, expected a or a..b\n"


class TestValidate:
    def test_well_formed(self, tmp_path):
        cfg = {
            "family": "qtp",
            "parameters": {"n": 0, "J": 1.0, "omega": 1.0, "hbar": 1.0},
            "relations": ["rsur"],
        }
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(cfg))
        proc = run_cli("validate", str(path))
        assert proc.stdout.strip() == ""
        assert proc.returncode == 0

    def test_missing_parameter(self, tmp_path):
        cfg = {"family": "qtp", "parameters": {"n": 0, "omega": 1.0, "hbar": 1.0}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        proc = run_cli("validate", str(path), check=False)
        assert proc.returncode == 1
        assert "missing parameter" in proc.stdout

    def test_sphere_coefficient_keys(self, tmp_path):
        """A sphere config's coefficient keys are JSON strings, read as integers."""
        cfg = {
            "family": "sphere",
            "parameters": {"l": 1, "hbar": 1.0, "coefficients": {"1": [1.0, 0.0], "-1": [0.0, 1.0]}},
        }
        path = tmp_path / "keys.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("validate", str(path)).stdout == ""
        state = json.loads(run_cli("scenario", "--config", str(path)).stdout)["state"]
        assert [row[0] for row in state["coefficients"]] == [-1, 1]

    def test_sphere_mode_out_of_range(self, tmp_path):
        cfg = {
            "family": "sphere",
            "parameters": {"l": 1, "hbar": 1.0, "coefficients": {"2": [1.0, 0.0]}},
        }
        path = tmp_path / "bad2.json"
        path.write_text(json.dumps(cfg))
        proc = run_cli("validate", str(path), check=False)
        assert proc.returncode == 1
        assert "exceed" in proc.stdout

    def test_unreadable(self, tmp_path):
        proc = run_cli("validate", str(tmp_path / "missing.json"), check=False)
        assert proc.returncode == 1

    def test_config_driven_scenario(self, tmp_path):
        cfg = {
            "family": "scr",
            "parameters": {"m": 3, "hbar": 1.0},
            "relations": ["rsur"],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        doc = json.loads(run_cli("scenario", "--config", str(path)).stdout)
        assert doc["reports"][0]["satisfied"] is False

    @pytest.mark.parametrize(
        "family, params, message",
        [
            ("scr", {"m": 1, "hbar": 0}, "hbar must be finite and > 0"),
            ("qtp", {"n": 1, "J": -1, "omega": 1.0, "hbar": 1.0}, "J must be finite and > 0"),
            ("scr", {"m": [1], "hbar": 1.0}, "not 'list'"),
            ("scr", {"m": 1, "hbar": 1.0}, None),
            ("scr", {"m": 1, "hbar": 1, "J": 5}, "family 'scr' does not read parameter 'J'"),
            ("scr", {"m": 1, "hbar": 1, "bogus": 3}, "family 'scr' does not read parameter 'bogus'"),
            (
                "sphere",
                {"l": 1, "m": 0, "hbar": 1, "truncation": 64},
                "family 'sphere' does not read parameter 'truncation'",
            ),
            (
                "sphere",
                {"l": 1, "m": 0, "hbar": 1, "coefficients": {"1": [1, 0]}},
                "family 'sphere' takes 'm' or 'coefficients', not both",
            ),
            ("scr", {"m": 1, "hbar": 1, "truncation": 8}, None),
            ("qtp", {"n": 1, "J": 1, "omega": 1, "hbar": 1, "truncation": 8}, None),
            # open() would take a number as a file descriptor, and True as stdout
            ("custom", {"coeffs": True}, "coeffs must be a file path, got True"),
            ("custom", {"coeffs": 5}, "coeffs must be a file path, got 5"),
        ],
    )
    def test_parameter_values(self, tmp_path, family, params, message):
        """validate rejects what scenario --config would reject, with the same
        text, and the config schema rejects it too."""
        jsonschema = pytest.importorskip("jsonschema")
        from angulab.cli import emit_schema

        cfg = {"family": family, "parameters": params}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        proc = run_cli("validate", str(path), check=False)
        scenario = run_cli("scenario", "--config", str(path), check=False)
        if message is None:
            assert (proc.returncode, proc.stdout, scenario.returncode) == (0, "", 0)
        else:
            assert proc.returncode == 1 and message in proc.stdout
            assert scenario.returncode == 1 and message in scenario.stderr
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate(cfg, emit_schema()["config"])


RESOLUTION = "resolution must be an integer >= 8, got"
RESOLUTION_CAP = "resolution must be at most 1048576, got"
SEED = "seed must be a non-negative integer, got"
SPHERE_ROWS = "sphere oracle rows x resolution must be at most 1048576, got"
SPHERE_CONFIG = {"family": "sphere", "parameters": {"l": 1, "m": 0, "hbar": 1.0}, "oracle": True}
NO_RELATION = "--relations names no relation"
RELATION_LIST = "relations must be a list of relation names"
SPHERE_COEFFS = ("scenario", "sphere", "--l", "1", "--coeffs")
CUSTOM = ("scenario", "custom", "--coeffs")
PERIODIC = '{"family": "periodic", "coefficients": %s}'
PERIODIC_PARAMS = '{"family": "periodic", "params": %s, "coefficients": [[0, 1, 0]]}'
SCR_CONFIG = {"family": "scr", "parameters": {"m": 1, "hbar": 1.0}}
# J = 0.001 puts lam at 0.0316, where these indices need more than the band cap
OSCILLATOR = (
    '{"family": "oscillator", "params": {"inertia": 0.001}, '
    '"coefficients": [[0, 1, 0], [%d, 1, 0]]}'
)
QTP_PARAMS = {"J": 0.001, "omega": 1.0, "hbar": 1.0, "truncation": 1000}
LINE_BAND = "exceeds line band limit 1024 at lam=0.0316228"
ABSENT_CUSTOM = {"family": "custom", "parameters": {"coeffs": "absent.json"}}


class File(str):
    """A ``test_rejected`` argument that stands for a file holding this text."""


class RawFile(bytes):
    """A ``test_rejected`` argument that stands for a file holding these bytes."""


# configs with a relation name or a family that is not a string, one that is not UTF-8
# and one nested too deep to parse
MALFORMED_CONFIGS = {
    "nested-relations": (File(json.dumps({**SCR_CONFIG, "relations": [["csf"]]})), RELATION_LIST),
    "list-family": (File(json.dumps({**SCR_CONFIG, "family": ["scr"]})), "unknown family ['scr']"),
    "not-utf-8": (RawFile(b'{"family": "scr\xe9"}'), "cannot read config"),
    "deeply-nested": (File("[" * 100000), "cannot read config"),
}


class TestInputContract:
    """Inputs outside the contract exit 1 with one ``error:`` line, never a
    traceback, a numerical failure or an empty report."""

    @pytest.mark.parametrize(
        "args, message",
        [
            (("scenario", "qtp", "--J", "0"), "J must be finite and > 0"),
            (("scenario", "qtp", "--J", "-1"), "J must be finite and > 0"),
            (("scenario", "qtp", "--omega", "0"), "omega must be finite and > 0"),
            (("scenario", "scr", "--hbar", "nan"), "hbar must be finite and > 0"),
            (("scenario", "scr", "--hbar", "0"), "hbar must be finite and > 0"),
            (("sweep", "qtp", "--random", "2", "--J", "0"), "J must be finite and > 0"),
            (("scenario", "scr", "--m", "100"), "exceeds truncation"),
            (("scenario", "qtp", "--n", "700"), "exceeds truncation"),
            (("sweep", "qtp", "--n", "5..2"), "empty range"),
            (("sweep", "qtp", "--n", "x..3"), "bad range"),
            (("scenario", "scr", "--m", "abc"), "--m needs an integer"),
            (("sweep", "scr", "--random", "-3"), "--random needs at least one state"),
            (("sweep", "scr", "--random", "0"), "--random needs at least one state"),
            (("scenario", "sphere", "--l", "70"), "0 <= l <= 64"),
            (("sweep", "sphere", "--random", "1", "--l", "70"), "0 <= l <= 64"),
            (("scenario", "scr", "--m", "2", "--oracle", "--resolution", "4"), RESOLUTION),
            (("scenario", "scr", "--m", "2", "--oracle", "--resolution", "-5"), RESOLUTION),
            (("scenario", "sphere", "--l", "1", "--oracle", "--resolution", "4"), RESOLUTION),
            (("scenario", "scr", "--relations", "commutator", "--resolution", "4"), RESOLUTION),
            (("scenario", "scr", "--m", "2", "--oracle", "--resolution", "0"), RESOLUTION),
            (("sweep", "qtp", "--n", "0..2", "--oracle", "--resolution", "4"), RESOLUTION),
            (SPHERE_COEFFS + (File("[[1, 2]]"),), "cannot read coefficients"),
            (SPHERE_COEFFS + (File('[["x", 1, 0]]'),), "cannot read coefficients"),
            (SPHERE_COEFFS + (File('{"coefficients": 5}'),), "cannot read coefficients"),
            (SPHERE_COEFFS + (File("[[0, NaN, 0], [1, 1, 0]]"),), "coefficients must be finite"),
            (CUSTOM + (File("[[0, 1, 0]]"),), "cannot load state from"),
            (
                CUSTOM + (File(PERIODIC % "[[0, 1, 0], [1, Infinity, 0]]"),),
                "coefficients must be finite",
            ),
            (CUSTOM + (File(PERIODIC % "5"),), "cannot load state from"),
            (("scenario", "scr", "--m", "1", "--relations", ""), NO_RELATION),
            (("sweep", "scr", "--m=1..1", "--relations", ""), NO_RELATION),
            (("sweep", "qtp", "--random", "2", "--relations", " , "), NO_RELATION),
            (
                ("scenario", "--config", File(json.dumps({**SCR_CONFIG, "relations": []}))),
                NO_RELATION,
            ),
            (SPHERE_COEFFS + (File("[[1.5, 1, 0]]"),), "mode index must be an integer"),
            (CUSTOM + (File(PERIODIC % "[[0.5, 1, 0]]"),), "mode index must be an integer"),
            (
                ("scenario", "--config", File(json.dumps({**SCR_CONFIG, "relations": "csf"}))),
                RELATION_LIST,
            ),
            (
                ("scenario", "scr", "--m", "2", "--oracle", "--resolution", "10000000000000"),
                RESOLUTION_CAP,
            ),
            (("sweep", "scr", "--random", "2", "--oracle", "--resolution", "1048577"), RESOLUTION_CAP),
            (
                ("scenario", "--config", File(json.dumps({**SCR_CONFIG, "resolution": 2**20 + 1}))),
                RESOLUTION_CAP,
            ),
            (
                ("scenario", "sphere", "--l", "1", "--m", "0")
                + ("--oracle", "--resolution", "1048576"),
                f"{SPHERE_ROWS} 3 x 1048576",
            ),
            (
                ("sweep", "sphere", "--l", "1", "--random", "2")
                + ("--oracle", "--resolution", "524288"),
                f"{SPHERE_ROWS} 3 x 524288",
            ),
            (
                ("scenario", "--config", File(json.dumps({**SPHERE_CONFIG, "resolution": 2**19}))),
                f"{SPHERE_ROWS} 3 x 524288",
            ),
            (
                CUSTOM
                + (File('{"family": "sphere", "params": {"l": 1}, "coefficients": [[0, 1, 0]]}'),)
                + ("--oracle", "--resolution", "524288"),
                f"{SPHERE_ROWS} 3 x 524288",
            ),
            (CUSTOM + (File(OSCILLATOR % 600),), f"oscillator index 600 {LINE_BAND}"),
            (CUSTOM + (File(OSCILLATOR % 553),), f"oscillator index 553 {LINE_BAND}"),
            (
                ("scenario", "--config")
                + (File(json.dumps({"family": "qtp", "parameters": {**QTP_PARAMS, "n": 600}})),),
                f"oscillator index 600 {LINE_BAND}",
            ),
            (
                ("scenario", "--config", File(json.dumps(ABSENT_CUSTOM))),
                "cannot load state from absent.json",
            ),
            (
                CUSTOM + (File('{"family": "oscillator", "coefficients": [[601, 1, 0]]}'),),
                "oscillator index 601 exceeds Hermite function limit 600",
            ),
            (
                ("scenario", "qtp", "--J", "1e200", "--omega", "1e200"),
                "sqrt(J omega / hbar) must be finite and > 0, got inf",
            ),
            (("sweep", "scr", "--random", "2", "--seed", "-1"), f"{SEED} -1"),
            (("scenario", "scr", "--hbar", "abc"), "argument --hbar: invalid float value: 'abc'"),
            (("sweep", "scr", "--random", "x"), "argument --random: invalid int value: 'x'"),
            (("scenario", "scr", "--bogus"), "unrecognized arguments: --bogus"),
            (("sweep", "nowhere"), "argument family: invalid choice: 'nowhere'"),
            (("scenario", "scr", "--m", "2", "--format", "csv"), "unrecognized arguments: --format"),
            (("scenario", "scr", "--seed", "3"), "unrecognized arguments: --seed 3"),
            (("sweep", "scr", "--m=0..1", "--coeffs", "c.json"), "unrecognized arguments: --coeffs"),
            (CUSTOM + (File(PERIODIC_PARAMS % '{"hbar": "2"}'),), "hbar must be a number, got '2'"),
            (CUSTOM + (File(PERIODIC_PARAMS % '{"hbar": true}'),), "hbar must be a number, got True"),
            (
                CUSTOM + (File(PERIODIC_PARAMS % '{"truncation": 64.7}'),),
                "mode index must be an integer, got 64.7",
            ),
            (
                CUSTOM
                + (File('{"family": "sphere", "params": {"l": 1.5}, "coefficients": [[0, 1, 0]]}'),),
                "mode index must be an integer, got 1.5",
            ),
            (CUSTOM + (File(PERIODIC_PARAMS % "[1]"),), "params must be a JSON object, got list"),
            (CUSTOM + (File(PERIODIC % "[[0, true, 0]]"),), "coefficient part must be a number, got True"),
            (CUSTOM + (File(PERIODIC % '[[0, 1, "0"]]'),), "coefficient part must be a number, got '0'"),
            (SPHERE_COEFFS + (File('[[0, "1", "0"]]'),), "coefficient part must be a number, got '1'"),
            (SPHERE_COEFFS + (File("[[0, 1, false]]"),), "coefficient part must be a number, got False"),
            # a state flag the family does not read, or any with --config
            (("scenario", "qtp", "--coeffs", "nothere.json"), "scenario qtp does not take --coeffs"),
            (("scenario", "scr", "--n", "5"), "scenario scr does not take --n"),
            (("scenario", "scr", "--l", "3"), "scenario scr does not take --l"),
            (("scenario", "qtp", "--m", "4"), "scenario qtp does not take --m"),
            (("scenario", "scr", "--J", "3"), "scenario scr does not take --J"),
            (("scenario", "sphere", "--l", "1", "--omega", "2"), "scenario sphere does not take --omega"),
            (CUSTOM + (File(PERIODIC % "[[0, 1, 0]]"), "--hbar", "2"), "scenario custom does not take --hbar"),
            (SPHERE_COEFFS + (File("[[0, 1, 0]]"), "--m", "1"), "scenario sphere takes --m or --coeffs, not both"),
            (("scenario", "--config", File(json.dumps(SCR_CONFIG)), "--m", "2"), "scenario --config does not take --m"),
            (("scenario", "--config", File(json.dumps(SCR_CONFIG)), "--hbar", "2"), "does not take --hbar"),
            (("scenario", "qtp", "--config", File(json.dumps(SCR_CONFIG))), "scenario --config takes no family"),
            # a sweep flag that the family, or the sweep's mode, does not read
            (("sweep", "scr", "--random", "1", "--J", "5"), "sweep scr --random does not take --J"),
            (("sweep", "scr", "--m", "0..1", "--n", "3"), "sweep scr without --random does not take --n"),
            (("sweep", "qtp", "--n", "0..1", "--l", "3"), "sweep qtp without --random does not take --l"),
            (("sweep", "scr", "--random", "1", "--m", "0..3"), "sweep scr --random does not take --m"),
            (
                ("sweep", "sphere", "--l", "1", "--m", "0..1", "--J", "4"),
                "sweep sphere without --random does not take --J",
            ),
            (("sweep", "scr", "--m", "0..1", "--seed", "5"), "sweep scr without --random does not take --seed"),
            (("sweep", "qtp", "--random", "2", "--n", "0..3"), "sweep qtp --random does not take --n"),
            *((("scenario", "--config", config), message) for config, message in MALFORMED_CONFIGS.values()),
            (CUSTOM + (File("[" * 100000),), "cannot load state from"),
            (SPHERE_COEFFS + (File("[" * 100000),), "cannot read coefficients"),
            (("sweep", "scr", "--m", "-x"), "argument --m: expected one argument"),
        ],
    )
    def test_rejected(self, args, message, tmp_path):
        argv = []
        for i, arg in enumerate(args):
            if isinstance(arg, (File, RawFile)):
                path = tmp_path / f"arg{i}.json"
                path.write_bytes(arg if isinstance(arg, bytes) else arg.encode())
                arg = str(path)
            argv.append(arg)
        proc = run_cli(*argv, check=False)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and message in proc.stderr
        assert "Traceback" not in proc.stderr and "usage:" not in proc.stderr
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("config, message", MALFORMED_CONFIGS.values(), ids=list(MALFORMED_CONFIGS))
    def test_malformed_config_validate(self, tmp_path, config, message):
        """validate prints the one line that scenario --config gives for each
        malformed config of ``test_rejected``."""
        path = tmp_path / "cfg.json"
        path.write_bytes(config if isinstance(config, bytes) else config.encode())
        proc = run_cli("validate", str(path), check=False)
        assert (proc.returncode, proc.stderr, proc.stdout.count("\n")) == (1, "", 1)
        assert message in proc.stdout
        scenario = run_cli("scenario", "--config", str(path), check=False)
        assert scenario.stderr == f"error: {proc.stdout}"

    # The state flags each verb reads on each family, as README.md states
    # them; written out here rather than taken from cli, so that the table is
    # checked against an independent statement.
    READS = {
        "scenario": {"scr": "m hbar", "qtp": "n J omega hbar", "sphere": "l m coeffs hbar", "custom": "coeffs"},
        "sweep": {"scr": "m hbar", "qtp": "n J omega hbar", "sphere": "l m hbar", "custom": ""},
        "sweep --random": {"scr": "hbar", "qtp": "J omega hbar", "sphere": "l hbar", "custom": ""},
    }
    # the flags a run of the verb on the family needs, beside the one under test
    NEEDS = {"sphere": ["l"], "custom": ["coeffs"]}
    RANGE_NEEDS = {"scr": ["m"], "qtp": ["n"], "sphere": ["l", "m"], "custom": []}

    @pytest.mark.parametrize("verb", list(READS))
    @pytest.mark.parametrize("family", ["scr", "qtp", "sphere", "custom"])
    def test_state_flag_reads(self, capsys, tmp_path, verb, family):
        """Each state flag, on each family and verb, is read (exit 0) or
        rejected (exit 1 with one ``error:`` line); none is ignored."""
        from angulab import cli, states

        rows, circle = tmp_path / "rows.json", tmp_path / "circle.json"
        rows.write_text("[[0, 1, 0]]")
        states.save(states.scr_eigenstate(1), circle)
        index = "0..1" if verb == "sweep" else "1"
        values = {"m": index, "n": index, "l": "1", "J": "2", "omega": "2", "hbar": "2"}
        values["coeffs"] = str(circle if family == "custom" else rows)
        needs = self.RANGE_NEEDS[family] if verb == "sweep" else self.NEEDS.get(family, [])
        for flag in ("m", "n", "l", "J", "omega", "hbar", "coeffs"):
            argv = [verb.split()[0], family, "--relations", "csf"]
            argv += ["--random", "1"] if verb == "sweep --random" else []
            for name in dict.fromkeys([*needs, flag]):
                argv += [f"--{name}", values[name]]
            code = cli.main(argv)
            out, err = capsys.readouterr()
            if flag in self.READS[verb][family].split():
                assert (code, err) == (0, ""), (argv, err)
            else:
                assert (code, out) == (1, ""), argv
                assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)

    def test_resolution_in_config(self, tmp_path):
        """validate and scenario --config reject a coarse grid with the same text."""
        path = tmp_path / "cfg.json"
        params = {"m": 2, "hbar": 1.0}
        cfg = {"family": "scr", "parameters": params, "oracle": True, "resolution": 4}
        path.write_text(json.dumps(cfg))
        proc = run_cli("validate", str(path), check=False)
        assert proc.returncode == 1 and proc.stdout == f"{RESOLUTION} 4\n"
        scenario = run_cli("scenario", "--config", str(path), check=False)
        assert scenario.returncode == 1 and scenario.stdout == ""
        assert scenario.stderr == f"error: {RESOLUTION} 4\n"

    def test_seed_in_config(self, tmp_path):
        """validate, scenario --config and the config schema reject a negative
        seed with the text sweep prints; seed 0 passes all three."""
        jsonschema = pytest.importorskip("jsonschema")
        from angulab.cli import emit_schema

        schema = emit_schema()["config"]
        path = tmp_path / "cfg.json"
        for seed, out in ((0, ""), (-1, f"{SEED} -1\n"), ("7", f"{SEED} '7'\n")):
            cfg = {**SCR_CONFIG, "seed": seed}
            if out:
                with pytest.raises(jsonschema.ValidationError):
                    jsonschema.validate(cfg, schema)
            else:
                jsonschema.validate(cfg, schema)
            path.write_text(json.dumps(cfg))
            proc = run_cli("validate", str(path), check=False)
            assert (proc.returncode, proc.stdout) == (1 if out else 0, out), seed
            scenario = run_cli("scenario", "--config", str(path), check=False)
            assert scenario.returncode == (1 if out else 0), seed
            assert scenario.stderr == (f"error: {out}" if out else ""), seed

    def test_oracle_in_config(self, tmp_path):
        """validate, scenario --config and the config schema take a boolean
        oracle only, and scenario --config runs the oracle on true alone."""
        jsonschema = pytest.importorskip("jsonschema")
        from angulab.cli import emit_schema

        schema = emit_schema()["config"]
        path = tmp_path / "cfg.json"
        for value, out in ((True, ""), (False, ""), ("no", "'no'"), (1, "1"), (None, "None")):
            cfg = {**SCR_CONFIG, "relations": ["csf"], "oracle": value}
            want = f"oracle must be true or false, got {out}\n" if out else ""
            if want:
                with pytest.raises(jsonschema.ValidationError):
                    jsonschema.validate(cfg, schema)
            else:
                jsonschema.validate(cfg, schema)
            path.write_text(json.dumps(cfg))
            proc = run_cli("validate", str(path), check=False)
            assert (proc.returncode, proc.stdout) == (1 if want else 0, want), value
            scenario = run_cli("scenario", "--config", str(path), check=False)
            assert scenario.returncode == (1 if want else 0), value
            assert scenario.stderr == (f"error: {want}" if want else ""), value
            if not want:
                report = json.loads(scenario.stdout)["reports"][0]
                assert ("oracle_delta" in report) is value, value

    @pytest.mark.parametrize("family", ["qtp", "custom"])
    def test_config_state_built_once(self, monkeypatch, capsys, tmp_path, family):
        """scenario --config builds its state once, and loads a custom state
        file once."""
        from angulab import cli, states

        state_path, path = tmp_path / "state.json", tmp_path / "cfg.json"
        states.save(states.scr_eigenstate(1), state_path)
        params = {"n": 1, "J": 1.0, "omega": 1.0, "hbar": 1.0}
        if family == "custom":
            params = {"coeffs": str(state_path)}
        path.write_text(json.dumps({"family": family, "parameters": params, "relations": ["csf"]}))
        made, loaded = [], []
        make_state, load = cli._make_state, states.load
        monkeypatch.setattr(cli, "_make_state", lambda *args: made.append(1) or make_state(*args))
        monkeypatch.setattr(states, "load", lambda *args: loaded.append(1) or load(*args))
        assert cli.main(["scenario", "--config", str(path)]) == 0
        assert capsys.readouterr().err == ""
        assert (len(made), len(loaded)) == (1, int(family == "custom"))

    def test_format_in_config(self, tmp_path):
        """validate, scenario --config and the config schema reject a format
        other than json: a scenario prints JSON only."""
        jsonschema = pytest.importorskip("jsonschema")
        from angulab.cli import emit_schema

        schema = emit_schema()["config"]
        path = tmp_path / "cfg.json"
        out = "scenario reports are JSON only, got format 'csv'\n"
        for fmt, want in (("json", ""), ("csv", out)):
            cfg = {**SCR_CONFIG, "format": fmt}
            if want:
                with pytest.raises(jsonschema.ValidationError):
                    jsonschema.validate(cfg, schema)
            else:
                jsonschema.validate(cfg, schema)
            path.write_text(json.dumps(cfg))
            proc = run_cli("validate", str(path), check=False)
            assert (proc.returncode, proc.stdout) == (1 if want else 0, want), fmt
            scenario = run_cli("scenario", "--config", str(path), check=False)
            assert scenario.returncode == (1 if want else 0), fmt
            assert scenario.stderr == (f"error: {want}" if want else ""), fmt

    def test_resolution_cap_in_config(self, tmp_path):
        """validate and the config schema both stop at MAX_RESOLUTION."""
        jsonschema = pytest.importorskip("jsonschema")
        from angulab.cli import MAX_RESOLUTION, emit_schema

        schema = emit_schema()["config"]
        path = tmp_path / "cfg.json"
        cfg = {**SCR_CONFIG, "oracle": True, "resolution": MAX_RESOLUTION}
        jsonschema.validate(cfg, schema)
        path.write_text(json.dumps(cfg))
        assert run_cli("validate", str(path)).stdout == ""
        cfg["resolution"] += 1
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(cfg, schema)
        path.write_text(json.dumps(cfg))
        proc = run_cli("validate", str(path), check=False)
        assert proc.returncode == 1 and proc.stdout == f"{RESOLUTION_CAP} {MAX_RESOLUTION + 1}\n"

    def test_sphere_rows_in_config(self, tmp_path):
        """validate caps a sphere state's oracle rows times the resolution
        with the text scenario prints, and only when the oracle samples."""
        path = tmp_path / "cfg.json"
        cap = 2**20 // 3
        for resolution, oracle_on, out in (
            (cap, True, ""),
            (cap + 1, True, f"{SPHERE_ROWS} 3 x {cap + 1}\n"),
            (cap + 1, False, ""),
        ):
            cfg = {**SPHERE_CONFIG, "oracle": oracle_on, "resolution": resolution}
            path.write_text(json.dumps(cfg))
            proc = run_cli("validate", str(path), check=False)
            assert (proc.returncode, proc.stdout) == (1 if out else 0, out), resolution

    def test_line_band_limit_in_config(self, tmp_path):
        """validate rejects a state whose sin/cos band exceeds the cap at its
        lam with the text scenario prints, and passes the same index at a
        lam the band serves."""
        from angulab import states

        path = tmp_path / "cfg.json"
        with pytest.raises(ValueError) as small_lam:
            states.qtp_eigenstate(280, inertia=0.001, truncation=600)
        assert f"oscillator index 280 {LINE_BAND}" in str(small_lam.value)
        for J, out in ((1.0, ""), (0.001, f"{small_lam.value}\n")):
            params = {**QTP_PARAMS, "n": 280, "J": J, "truncation": 600}
            path.write_text(json.dumps({"family": "qtp", "parameters": params}))
            proc = run_cli("validate", str(path), check=False)
            assert (proc.returncode, proc.stdout) == (1 if out else 0, out), J
        scenario = run_cli("scenario", "--config", str(path), check=False)
        assert scenario.stderr == f"error: {out}"

    def test_relations_in_config(self, tmp_path):
        """An empty relation list, or a string in place of a list, is rejected
        by validate with the CLI's text; an absent or null one means the
        default relations."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**SCR_CONFIG, "relations": []}))
        proc = run_cli("validate", str(path), check=False)
        assert proc.returncode == 1 and proc.stdout == f"{NO_RELATION}\n"
        path.write_text(json.dumps({**SCR_CONFIG, "relations": "csf"}))
        proc = run_cli("validate", str(path), check=False)
        assert proc.returncode == 1 and proc.stdout == f"{RELATION_LIST}, got 'csf'\n"
        for doc in (SCR_CONFIG, {**SCR_CONFIG, "relations": None}):
            path.write_text(json.dumps(doc))
            assert run_cli("validate", str(path)).stdout == ""
            reports = json.loads(run_cli("scenario", "--config", str(path)).stdout)["reports"]
            assert [r["relation"] for r in reports] == ["csf", "rsur", "condition19", "moments"]

    @pytest.mark.parametrize(
        "family, params, out",
        [
            ("scr", {"m": 1.5, "hbar": 1}, "mode index must be an integer, got 1.5"),
            ("qtp", {"n": 2.7, "J": 1, "omega": 1, "hbar": 1}, "mode index must be an integer, got 2.7"),
            ("sphere", {"l": 2.5, "hbar": 1}, "mode index must be an integer, got 2.5"),
            ("sphere", {"l": 2, "m": True, "hbar": 1}, "mode index must be an integer, got True"),
            ("scr", {"m": 1, "hbar": 1, "truncation": 64.7}, "mode index must be an integer, got 64.7"),
            ("scr", {"m": 1, "hbar": 1, "truncation": True}, "mode index must be an integer, got True"),
            ("scr", {"m": 1, "hbar": True}, "hbar must be a number, got True"),
            ("qtp", {"n": 1, "J": "2", "omega": 1, "hbar": 1}, "J must be a number, got '2'"),
            ("scr", {"m": "2", "hbar": 1}, "mode index must be an integer, got '2'"),
            ("scr", {"m": 1, "hbar": 1, "truncation": "64"}, "mode index must be an integer, got '64'"),
            ("sphere", {"l": "1", "hbar": 1}, "mode index must be an integer, got '1'"),
            (
                "sphere",
                {"l": 1, "hbar": 1, "coefficients": {"1.0": [1, 0]}},
                "coefficient index must be an integer, got '1.0'",
            ),
            (
                "sphere",
                {"l": 1, "hbar": 1, "coefficients": {"1": [1]}},
                "not enough values to unpack (expected 2, got 1)",
            ),
            (
                "sphere",
                {"l": 1, "hbar": 1, "coefficients": {"0": [True, 0]}},
                "coefficient part must be a number, got True",
            ),
            (
                "sphere",
                {"l": 1, "hbar": 1, "coefficients": {"0": [1, "0"]}},
                "coefficient part must be a number, got '0'",
            ),
        ],
        ids=[
            "scr-m", "qtp-n", "sphere-l", "sphere-m-bool",
            "truncation-fractional", "truncation-bool", "hbar-bool", "J-str",
            "scr-m-str", "truncation-str", "sphere-l-str", "coefficient-key-fractional",
            "coefficient-short-pair", "coefficient-part-bool", "coefficient-part-str",
        ],
    )
    def test_fractional_index_in_config(self, tmp_path, family, params, out):
        """validate and scenario --config reject a fractional, boolean or
        string index or truncation, and a boolean or string real parameter,
        with the same text, where int() and float() would have taken them."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"family": family, "parameters": params}))
        proc = run_cli("validate", str(path), check=False)
        assert (proc.returncode, proc.stdout) == (1, out + "\n")
        scenario = run_cli("scenario", "--config", str(path), check=False)
        assert (scenario.returncode, scenario.stdout, scenario.stderr) == (1, "", f"error: {out}\n")


    @pytest.mark.parametrize(
        "coeffs, message",
        [
            (None, "cannot load state from"),
            (OSCILLATOR % 600, f"oscillator index 600 {LINE_BAND}"),
            ('{"family": "oscillator", "coefficients": [[600, 1, 0]]}', None),
        ],
        ids=["missing-file", "past-band-cap", "valid"],
    )
    def test_custom_config_builds_state(self, tmp_path, coeffs, message):
        """validate loads a custom config's coefficient file and rejects what
        scenario --config rejects, with the same text."""
        state_path = tmp_path / "state.json"
        if coeffs is not None:
            state_path.write_text(coeffs)
        path = tmp_path / "cfg.json"
        cfg = {"family": "custom", "parameters": {"coeffs": str(state_path)}, "relations": ["csf"]}
        path.write_text(json.dumps(cfg))
        proc = run_cli("validate", str(path), check=False)
        scenario = run_cli("scenario", "--config", str(path), check=False)
        if message is None:
            assert (proc.returncode, proc.stdout, scenario.returncode) == (0, "", 0)
        else:
            assert proc.returncode == 1 and message in proc.stdout
            assert scenario.returncode == 1 and scenario.stderr == f"error: {proc.stdout}"


class TestRegistry:
    """Every registry relation, with the oracle, on one state per family."""

    STATES = {"scr": {"m": 2}, "qtp": {"n": 1}, "sphere": {"l": 1, "m": 0}}

    @pytest.fixture(scope="class")
    def reports(self):
        from angulab.cli import RELATION_REGISTRY, run_scenario

        return {
            family: run_scenario(
                {
                    "family": family,
                    "parameters": params,
                    "relations": list(RELATION_REGISTRY),
                    "oracle": True,
                }
            )["reports"]
            for family, params in self.STATES.items()
        }

    def test_oracle_agrees(self, reports):
        from angulab.cli import RELATIONS

        for family, entries in reports.items():
            for entry in entries:
                where = (family, entry["relation"])
                if entry.get("status") == "not-applicable":
                    assert "oracle" not in entry, where
                else:
                    assert entry["oracle_delta"] <= 1e-5, where
                    keys = RELATIONS[entry["relation"]][1]
                    assert any(key in entry["oracle"] for key in keys), where

    def test_small_J_trig_rows_agree_with_oracle(self):
        """At J = 0.01 (lam = 0.1) the eq8 and eq9 sin/cos values match the
        grid."""
        args = ("scenario", "qtp", "--n", "0", "--J", "0.01", "--relations", "eq8-sin,eq9-trig")
        reports = json.loads(run_cli(*args, "--oracle").stdout)["reports"]
        assert [r["relation"] for r in reports] == ["eq8-sin", "eq9-trig"]
        assert all(r["oracle_delta"] <= 1e-5 for r in reports), reports

    def test_high_index_trig_row_runs(self, tmp_path):
        """A qtp state at n = 280 gets a finite sin/cos band and exits 0."""
        path = tmp_path / "cfg.json"
        params = {"n": 280, "J": 1.0, "omega": 1.0, "hbar": 1.0, "truncation": 600}
        cfg = {"family": "qtp", "parameters": params, "relations": ["eq8-sin"]}
        path.write_text(json.dumps(cfg))
        proc = run_cli("scenario", "--config", str(path), check=False)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert math.isfinite(json.loads(proc.stdout)["reports"][0]["lhs"])

    def test_only_gives_reason(self, reports):
        """A row whose ``only`` leaves out the state's family reports exactly
        its reason; every other row gives a report with numbers."""
        from angulab.cli import RELATIONS

        family_of = {"scr": "periodic", "qtp": "oscillator", "sphere": "sphere"}
        for family, entries in reports.items():
            for entry in entries:
                only = RELATIONS[entry["relation"]].only
                if only is not None and family_of[family] not in only[0]:
                    assert entry == {
                        "relation": entry["relation"],
                        "status": "not-applicable",
                        "reason": only[1],
                    }, family
                elif entry["relation"] != "decomposition":
                    assert "status" not in entry and "lhs" in entry, (family, entry["relation"])

    def test_evaluator_errors_propagate(self, monkeypatch):
        """A failing evaluator raises; it is never turned into not-applicable."""
        from angulab import relations, states
        from angulab.cli import evaluate_relation

        def broken(*args):
            raise TypeError("unsupported operand type(s) for +: 'RelationReport' and 'int'")

        monkeypatch.setattr(relations, "csf", broken)
        with pytest.raises(TypeError):
            evaluate_relation("csf", states.scr_eigenstate(2))

    def test_oracle_errors_propagate(self, monkeypatch):
        """A failing grid oracle raises under --oracle."""
        from angulab import oracle
        from angulab.cli import run_scenario

        def broken(sampled):
            raise TypeError("unsupported operand type(s) for +: 'dict' and 'int'")

        monkeypatch.setitem(oracle.RELATION_VALUES, "csf", broken)
        config = {"family": "scr", "parameters": {"m": 2}, "relations": ["csf"], "oracle": True}
        with pytest.raises(TypeError):
            run_scenario(config)

    def test_one_set_of_names(self):
        from angulab import oracle
        from angulab.cli import RELATION_REGISTRY, emit_schema

        assert tuple(oracle.RELATION_VALUES) == RELATION_REGISTRY
        enum = emit_schema()["relation_report"]["properties"]["relation"]["enum"]
        assert tuple(enum) == RELATION_REGISTRY

    def test_reports_match_schema(self, reports):
        jsonschema = pytest.importorskip("jsonschema")
        from angulab.cli import emit_schema

        schema = emit_schema()["relation_report"]
        for entries in reports.values():
            for entry in entries:
                jsonschema.validate(entry, schema)

    def test_commutator_oracle_delta_in_json_and_csv(self):
        """Under --oracle the commutator carries its grid residual and their
        deviation, in JSON and in CSV alike."""
        args = ("sweep", "qtp", "--n", "0..1", "--relations", "commutator,csf", "--oracle")
        doc = json.loads(run_cli(*args).stdout)
        deltas = []
        for item in doc["items"]:
            comm, csf = item["reports"]
            assert list(comm["oracle"]) == ["residual"]
            spectral, grid = comm["details"]["residual"], comm["oracle"]["residual"]
            assert comm["oracle_delta"] == abs(spectral - grid)
            assert comm["oracle_delta"] <= 1e-5 and csf["oracle_delta"] < 1e-6
            deltas.append(repr(comm["oracle_delta"]))
        rows = run_cli(*args, "--format", "csv").stdout.splitlines()
        assert rows[0].endswith(",oracle_delta")
        comm_rows = [row for row in rows[1:] if ",commutator," in row]
        assert [row.rsplit(",", 1)[1] for row in comm_rows] == deltas

    @pytest.mark.parametrize("family, values", [("qtp", "--n=0..14"), ("scr", "--m=0..64")])
    def test_commutator_sweeps_satisfied(self, capsys, family, values):
        """The canonical commutator holds on every eigenstate of both sweeps,
        where grid differencing exceeds its tolerance from n = 6 and m = 11 on."""
        from angulab import cli

        assert cli.main(["sweep", family, values, "--relations", "commutator"]) == 0
        items = json.loads(capsys.readouterr().out)["items"]
        assert len(items) == {"qtp": 15, "scr": 65}[family]
        for item in items:
            (entry,) = item["reports"]
            assert entry["satisfied"] is True and entry["rhs"] <= 1e-14, item["params"]

    @pytest.mark.parametrize("with_oracle, calls", [(True, 1), (False, 0)])
    def test_state_sampled_once(self, monkeypatch, with_oracle, calls):
        """Every registry relation reads one sample of the state under
        --oracle, and none without it."""
        from angulab import oracle
        from angulab.cli import run_scenario

        seen = []
        sample = oracle.sample
        monkeypatch.setattr(oracle, "sample", lambda *args: seen.append(1) or sample(*args))
        config = {
            "family": "scr",
            "parameters": {"m": 2},
            "relations": list(oracle.RELATION_VALUES),
            "oracle": with_oracle,
            "resolution": 1024,
        }
        run_scenario(config)
        assert len(seen) == calls


class TestSharedLifted:
    """One lifted ket shared by every registry relation gives exactly the
    entries of a fresh state per relation, whatever order the relations read
    it in."""

    LABELS = ("scr m=2", "qtp n=1", "random periodic", "random oscillator", "random sphere l=2")

    @staticmethod
    def _states():
        import numpy as np

        from angulab import states

        rng = np.random.default_rng(2025)
        return {
            "scr m=2": states.scr_eigenstate(2),
            "qtp n=1": states.qtp_eigenstate(1),
            "random periodic": states.random_periodic(rng),
            "random oscillator": states.random_oscillator(rng, inertia=1.7, frequency=0.6),
            "random sphere l=2": states.random_sphere(rng, 2),
        }

    @pytest.mark.parametrize("label", LABELS)
    def test_shared_equals_fresh(self, label):
        from angulab import operators
        from angulab.cli import RELATIONS, evaluate_relation

        state = self._states()[label]
        names = list(RELATIONS)
        fresh = {name: evaluate_relation(name, state) for name in names}
        assert sum(entry.get("status") != "not-applicable" for entry in fresh.values()) >= 9
        for order in (names, names[::-1]):
            shared = operators.lift(state)
            for name in order:
                assert evaluate_relation(name, shared) == fresh[name], (label, name)

    def test_apply_calls_per_state(self, actions):
        """The 13 spectral relations on one state act with an operator at
        most 8 times: every relation reads the same ``A psi`` and pair
        products of one block.  Actions are ``apply`` calls, counted in
        every namespace that binds it.  Circle and sphere states are counted
        on emptied band-map and form caches, where each map is built from one
        ``apply`` per observable; a line map holds its observables' matrices,
        so a line state acts zero times.  A second state on the same band
        acts zero times in every family."""
        from angulab import cli, operators, states

        names = [name for name in cli.RELATIONS if name != "commutator"]
        assert len(names) == 13
        for label, state in self._states().items():
            operators._band_map.cache_clear()
            operators._bra_form.cache_clear()
            for first in (True, False):
                actions.clear()
                cli._evaluate_state(state, names, False, None)
                if first and not isinstance(state, states.OscillatorState):
                    assert 0 < len(actions) <= 8, (label, len(actions))
                else:
                    assert actions == [], (label, first)

    def test_one_block_per_ket(self):
        """All 14 registry relations on one lifted ket read one row of one
        block: the block of L_z, phi, sin phi and cos phi, which also serves
        the commutator's A psi, the eq8 right-hand sides and the energy."""
        from angulab import cli, operators

        for label, state in self._states().items():
            ket = operators.lift(state)
            cli._evaluate_state(ket, list(cli.RELATIONS), False, None)
            assert ket.batch[1] == () and "block" in vars(ket.batch[0]), label


    def test_block_lookups_per_relation(self, lookups):
        """Each registry relation that reads pairs takes one block lookup per
        state; moments takes a second one on the line, for the energy, which
        lands on the same block."""
        from angulab import operators
        from angulab.cli import RELATIONS, evaluate_relation

        names = ("csf", "rsur", "condition19", "decomposition", "boundary", "gram", "eq22")
        names += ("eq23", "moments")
        for label, state in self._states().items():
            ket = operators.lift(state)
            for name in names:
                lookups.clear()
                evaluate_relation(name, ket)
                only = RELATIONS[name].only
                applies = only is None or state.family in only[0]
                extra = name == "moments" and state.family == "oscillator"
                assert len(lookups) == applies + extra, (label, name, lookups)


class TestSchema:
    def test_schema_document(self):
        doc = json.loads(run_cli("schema").stdout)
        assert doc["schema_version"] == 1
        assert "condition19" in doc["relation_report"]["properties"]["relation"]["enum"]
        assert doc["config"]["required"] == ["family", "parameters"]
        assert doc["config"]["properties"]["relations"]["minItems"] == 1


class TestExitCodes:
    def test_closed_stdout(self):
        """A reader that leaves early (``| head``) ends the run quietly with 0."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "angulab.cli", "sweep", "scr", "--m=-40..40"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        assert proc.stdout.read(2) == '{"'
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
        err = proc.stderr.read()
        proc.stderr.close()
        assert "Traceback" not in err and err == ""

    def test_dumps_names_non_finite_value(self):
        """A non-finite float that reaches the writer is named by its path in
        the report, the way the report's converters name one."""
        from angulab.cli import _dumps

        assert _dumps({"ok": [1.0, {"x": 2.0}]}) == '{"ok":[1.0,{"x":2.0}]}'
        for doc, path in (
            ({"bad": [1.0, math.nan]}, "report.bad[1]"),
            ({"ok": 1.0, "bad": {"deep": -math.inf}}, "report.bad.deep"),
        ):
            with pytest.raises(ArithmeticError) as exc:
                _dumps(doc)
            assert str(exc.value) == f"non-finite value at {path}"

    @pytest.mark.parametrize(
        "argv, at",
        [
            (("sweep", "scr", "--random", "2"), "report.items[0].reports[1]"),
            (("sweep", "scr", "--random", "2", "--format", "csv"), "report.items[0].reports[1]"),
            (("scenario", "sphere", "--l", "1"), "report.reports[1]"),
        ],
        ids=["sweep-json", "sweep-csv", "scenario"],
    )
    @pytest.mark.parametrize("key", ["lhs", "details.min_eigenvalue"])
    def test_non_finite_exits_2(self, monkeypatch, capsys, argv, at, key):
        """A NaN anywhere in the report, in a printed field or in a details key
        that CSV leaves out, exits 2 with nothing on stdout and one line
        naming its path.  The NaN is planted in the relation's report, before
        it is converted for output."""
        from angulab import cli, relations

        gram_det = relations.gram_det

        def planted(observables, state):
            report = gram_det(observables, state)
            if key == "lhs":
                report.lhs = float("nan")
            else:
                report.details["min_eigenvalue"] = float("nan")
            return report

        monkeypatch.setattr(relations, "gram_det", planted)
        assert cli.main([*argv, "--relations", "csf,gram"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"numerical failure: non-finite value at {at}.{key}\n"

    @staticmethod
    def _plant(monkeypatch, where, value):
        """Make ``where``, one number that a report converter takes, ``value``
        on the gram relation (report position 1) or in the mismatch matrix."""
        import dataclasses

        from angulab import cli, oracle, relations

        gram_det, mismatch, values, delta = (
            relations.gram_det, relations.adjointness_mismatch, oracle.relation_values, cli._oracle_delta
        )

        def report(observables, state):
            rep = gram_det(observables, state)
            if where == "details-float":
                rep.details["min_eigenvalue"] = value
            elif where == "details-complex":
                rep.details["gram_01"] = complex(0.5, value)
            else:
                setattr(rep, where, value)
            return rep

        def matrix(obs_a, obs_b, state):
            mm = mismatch(obs_a, obs_b, state)
            if where == "max_modulus":
                return dataclasses.replace(mm, max_modulus=value)
            entries = mm.entries.copy()
            entries[0, 1] = complex(value, 0.0)
            return dataclasses.replace(mm, entries=entries)

        def oracle_values(sampled, relation):
            vals = values(sampled, relation)
            return {**vals, "min_eigenvalue": value} if relation == "gram" else vals

        def oracle_delta(entry, ovals, name):
            return value if name == "gram" else delta(entry, ovals, name)

        if where in ("lhs", "rhs", "slack", "tolerance", "details-float", "details-complex"):
            monkeypatch.setattr(relations, "gram_det", report)
        elif where in ("mismatch-entry", "max_modulus"):
            monkeypatch.setattr(relations, "adjointness_mismatch", matrix)
        elif where == "oracle-value":
            monkeypatch.setattr(oracle, "relation_values", oracle_values)
        else:
            monkeypatch.setattr(cli, "_oracle_delta", oracle_delta)

    @pytest.mark.parametrize(
        "argv, at",
        [
            (("sweep", "scr", "--random", "2"), "report.items[0]"),
            (("sweep", "scr", "--random", "2", "--format", "csv"), "report.items[0]"),
            (("scenario", "sphere", "--l", "1"), "report"),
        ],
        ids=["sweep-json", "sweep-csv", "scenario"],
    )
    @pytest.mark.parametrize(
        "where, path",
        [
            ("lhs", "reports[1].lhs"),
            ("rhs", "reports[1].rhs"),
            ("slack", "reports[1].slack"),
            ("tolerance", "reports[1].tolerance"),
            ("details-float", "reports[1].details.min_eigenvalue"),
            ("details-complex", "reports[1].details.gram_01.im"),
            ("mismatch-entry", "mismatch.entries[0][1].re"),
            ("max_modulus", "mismatch.max_modulus"),
            ("oracle-value", "reports[1].oracle.min_eigenvalue"),
            ("oracle_delta", "reports[1].oracle_delta"),
        ],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_at_each_converter(self, monkeypatch, capsys, argv, at, where, path, value):
        """Each converter of a report number stops a nan, +inf or -inf where
        the number is converted: exit 2, nothing on stdout, and one line
        naming its path in the report, CSV included."""
        from angulab import cli

        self._plant(monkeypatch, where, value)
        argv = [*argv, "--relations", "csf,gram,condition19", "--oracle"]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"numerical failure: non-finite value at {at}.{path}\n"

    def test_parser_built_once(self):
        from angulab import cli

        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize(
        "first, code, second",
        [
            (
                ("sweep", "qtp", "--random", "3", "--seed", "5", "--oracle", "--format", "csv",
                 "--hbar", "3.7"),
                0,
                ("sweep", "qtp", "--random", "3", "--seed", "5"),
            ),
            (("scenario", "sphere", "--m", "1"), 1, ("scenario", "sphere", "--l", "2", "--m", "1")),
        ],
        ids=["sweep-after-sweep", "scenario-after-rejected"],
    )
    def test_parser_keeps_no_state(self, capsys, first, code, second):
        """The cached parser carries nothing from one in-process run to the
        next: the second run prints what a fresh process prints."""
        from angulab import cli

        assert cli.main(list(first)) == code
        capsys.readouterr()
        assert cli.main(list(second)) == 0
        out, err = capsys.readouterr()
        fresh = run_cli(*second)
        assert (out, err) == (fresh.stdout, fresh.stderr)

    def test_validate_config_helper(self, tmp_path):
        """The library calls: ``validate_config`` on a file, and
        ``run_scenario`` on a config whose family is not a string, which is
        an unknown family, not a crash."""
        from angulab.cli import ConfigError, run_scenario, validate_config

        assert validate_config(tmp_path / "missing.json")
        path = tmp_path / "ok.json"
        path.write_text(json.dumps({"family": "scr", "parameters": {"m": 0, "hbar": 1.0}}))
        assert validate_config(path) == []
        for family in (["scr"], {"scr": 1}):
            with pytest.raises(ConfigError, match="unknown family"):
                run_scenario({"family": family, "parameters": {}})


class TestGoldenFiles:
    """Frozen reports for every registry relation; anchor values below are
    the closed forms, so the goldens cannot drift silently."""

    def _rerun_and_compare(self, golden_name, args):
        want = json.loads((GOLDEN / golden_name).read_text())
        got = json.loads(run_cli(*args).stdout)
        walk_compare(got, want)
        return want

    def test_golden_scr(self):
        want = self._rerun_and_compare(
            "scr_m3.json",
            (
                "scenario", "scr", "--m", "3", "--relations",
                "csf,rsur,condition19,decomposition,boundary,gram,eq8-sin,eq8-cos,"
                "eq9-trig,eq22,moments,commutator",
            ),
        )
        by = {r["relation"]: r for r in want["reports"]}
        assert by["moments"]["details"]["std_Phi"] == pytest.approx(
            math.pi / math.sqrt(3), abs=1e-12
        )
        assert by["rsur"]["rhs"] == pytest.approx(0.5, abs=1e-12)
        assert by["eq9-trig"]["lhs"] == pytest.approx(0.5, abs=1e-8)

    def test_golden_qtp(self):
        want = self._rerun_and_compare(
            "qtp_n1.json",
            ("scenario", "qtp", "--n", "1", "--relations", "rsur,eq23,decomposition,moments,commutator"),
        )
        by = {r["relation"]: r for r in want["reports"]}
        assert by["rsur"]["lhs"] == pytest.approx(1.5, abs=1e-10)
        assert by["decomposition"]["details"]["antisymmetric"] == pytest.approx(-0.5, abs=1e-10)
        assert by["moments"]["details"]["mean_energy"] == pytest.approx(1.5, abs=1e-10)

    def test_golden_sphere_oracle(self):
        want = self._rerun_and_compare(
            "sphere_l2_m1_oracle.json",
            ("scenario", "sphere", "--l", "2", "--m", "1", "--relations", ",".join(ALL), "--oracle"),
        )
        assert all(r.get("oracle_delta", 0.0) <= 1e-5 for r in want["reports"])

    def test_golden_qtp_oracle(self):
        want = self._rerun_and_compare(
            "qtp_n2_oracle.json",
            (
                "scenario", "qtp", "--n", "2", "--J", "2.5", "--omega", "0.7",
                "--relations", ",".join(ALL), "--oracle",
            ),
        )
        assert all(r.get("oracle_delta", 0.0) <= 1e-5 for r in want["reports"])

    def test_golden_sphere(self):
        want = self._rerun_and_compare(
            "sphere_l1_m0.json",
            ("scenario", "sphere", "--l", "1", "--m", "0", "--relations", "csf,rsur,condition19,eq24,gram,moments"),
        )
        by = {r["relation"]: r for r in want["reports"]}
        assert by["eq24"]["details"]["direct_mismatch"]["im"] == pytest.approx(1.0, abs=1e-10)
        assert by["condition19"]["details"]["mismatch_ab"]["im"] == pytest.approx(1.0, abs=1e-10)


class TestBlasThreads:
    """Oracle inner products are BLAS dots, which OpenBLAS splits across
    threads on large grids, so their round-off follows the thread count:
    values agree across counts within the golden tolerance, and stdout is
    byte-identical between runs at one count."""

    SPHERE = {
        "family": "sphere",
        "params": {"l": 3},
        "coefficients": [[-3, 0.3, 0.1], [-1, 0.5, -0.2], [0, 0.4, 0.0], [2, 0.2, 0.6], [3, -0.1, 0.3]],
    }

    @staticmethod
    def _stdout(args, threads):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
        proc = subprocess.run(
            [sys.executable, "-m", "angulab.cli", *args], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    @pytest.mark.parametrize("label", ["scr", "sphere"])
    def test_thread_counts_agree(self, tmp_path, label):
        if label == "scr":
            args = ("scenario", "scr", "--m", "3", "--oracle")
        else:
            path = tmp_path / "sphere.json"
            path.write_text(json.dumps(self.SPHERE))
            args = ("scenario", "custom", "--coeffs", str(path), "--oracle")
        runs = {threads: [self._stdout(args, threads) for _ in range(2)] for threads in (1, 2)}
        for first, second in runs.values():
            assert first == second
        walk_compare(json.loads(runs[2][0]), json.loads(runs[1][0]))


class TestJsonWriter:
    """Reports are JSON on one line, keys sorted, with a closing newline."""

    @pytest.mark.parametrize(
        "args",
        [
            ("scenario", "qtp", "--n", "2", "--relations", ",".join(ALL), "--oracle"),
            ("sweep", "scr", "--m=-3..3"),
            ("sweep", "sphere", "--l", "2", "--random", "2", "--relations", "csf,gram"),
            ("schema",),
        ],
        ids=["scenario", "sweep", "sweep-sphere", "schema"],
    )
    def test_one_line(self, args):
        out = run_cli(*args).stdout
        assert out.endswith("\n") and out.count("\n") == 1
        doc = json.loads(out)
        assert out == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"

    def test_schema_output_validates_goldens(self):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(run_cli("schema").stdout)["relation_report"]
        for path in sorted(GOLDEN.glob("*.json")):
            for entry in json.loads(path.read_text())["reports"]:
                jsonschema.validate(entry, schema)

    def test_zero_slack_is_positive_zero(self):
        """An identity entry with no deviation prints slack 0.0, not -0.0."""
        rows = run_cli(
            "sweep", "scr", "--m=0..3", "--relations", "commutator", "--format", "csv"
        ).stdout.splitlines()
        assert rows[1:] == [f"{m},scr,m={m},commutator,0.0,0.0,0.0,True" for m in range(4)]
