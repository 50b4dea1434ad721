"""Batch verification front end.

Verbs: ``scenario`` (one state, chosen relations), ``sweep`` (parameter
ranges or seeded random states), ``validate`` (config file diagnostics),
``schema`` (the JSON schema for configs and reports).

Exit codes: 0 the run completed (inequality verdicts are data, not
failures) or stdout was closed early, as by ``| head``; 1 a configuration
or usage error, named on one ``error:`` line; 2 the report holds a
non-finite number anywhere, ``details`` included, whatever the
``--format``; nothing then goes to stdout, and stderr names the number's
path.

``main`` can run many times in one process; it reuses one argument parser
per process.

Random sweeps draw from numpy's PCG64 (``np.random.default_rng(seed)``)
with a fixed draw order, so a seed pins the byte content of the report.
"""

import argparse
import csv
import functools
import io
import json
import math
import os
import re
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import operators, oracle, relations, states
from .operators import COS_PHI, LZ, PHI, SIN_PHI
from .relations import TOL_COMMUTATOR, TOL_IDENTITY, identity_report

SCHEMA_VERSION = 1

DEFAULT_RELATIONS = ("csf", "rsur", "condition19", "moments")

GRAM_SET = (LZ, PHI, SIN_PHI, COS_PHI)


class ConfigError(Exception):
    pass


# -- the families' parameters ----------------------------------------------------
#
# FAMILY_PARAMS is the one statement of what each family reads.  The state
# flags of scenario and sweep and their rejection, config validation and the
# config schema, state construction, sweep ranges and random draws all read it.


def _coefficient_table(table):
    """A sphere config's ``coefficients``, {"m": [re, im]}, as {m: complex}.
    JSON object keys are strings, so each key is read here as a plain
    integer, where ``states.mode_index`` takes numbers only."""
    if not isinstance(table, dict):
        raise ValueError(f"coefficients must be an object of \"m\": [re, im], got {table!r}")
    out = {}
    for key, (real, imag) in table.items():
        if not (isinstance(key, str) and re.fullmatch("-?[0-9]+", key)):
            raise ValueError(f"coefficient index must be an integer, got {key!r}")
        out[int(key)] = states.coefficient(real, imag)
    return out


def _load_state(path):
    """The state in the state file at ``path``, for the custom family; a path
    that is not a string, which ``open`` would take as a file descriptor, is
    a ConfigError."""
    if not isinstance(path, str):
        raise ConfigError(f"coeffs must be a file path, got {path!r}")
    try:
        return states.load(path)
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        raise ConfigError(f"cannot load state from {path}: {exc}") from None


_INDEX, _REAL = {"type": "integer"}, {"type": "number", "exclusiveMinimum": 0}
_PARTS = {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2}  # [re, im]
_COEFFICIENTS = {
    "type": "object", "propertyNames": {"pattern": "^-?[0-9]+$"}, "additionalProperties": _PARTS
}


class Param(NamedTuple):
    """One parameter a family reads, under its config key.  ``read`` takes
    the config value, which ``schema`` describes; a flag or library call
    that leaves it out gets ``default`` (None: there is none).  Its flag,
    ``--flag`` or ``--key``, is on each of ``verbs`` (none: config only), and
    a sweep ranges over a ``ranged`` one.  ``excludes`` names the other key of
    an either-or pair; a config may leave out either, and give one."""

    read: Callable = states.mode_index
    schema: dict = _INDEX
    default: object = None
    verbs: tuple = ("scenario", "sweep")
    ranged: bool = False
    flag: str = None
    excludes: str = None


def _real(name):
    return Param(functools.partial(states.real_parameter, name), _REAL, 1.0)


_HBAR, _TRUNCATION = _real("hbar"), Param(default=64, verbs=())

FAMILY_PARAMS = {
    "scr": {"m": Param(default=0, ranged=True), "hbar": _HBAR, "truncation": _TRUNCATION},
    "qtp": {
        "n": Param(default=0, ranged=True),
        "J": _real("J"),
        "omega": _real("omega"),
        "hbar": _HBAR,
        "truncation": _TRUNCATION,
    },
    "sphere": {
        "l": Param(),
        "m": Param(default=0, ranged=True, excludes="coefficients"),
        "coefficients": Param(
            _coefficient_table, _COEFFICIENTS, verbs=("scenario",), flag="coeffs", excludes="m"
        ),
        "hbar": _HBAR,
    },
    # the state file carries its own hbar
    "custom": {"coeffs": Param(_load_state, {"type": "string"}, verbs=("scenario",))},
}

# A family's state from the values its rows read (sphere coefficients stand in
# for m), and a random sweep's state from the values of the unranged rows.
_CONSTRUCT = {
    "scr": states.scr_eigenstate,
    "qtp": lambda n, J, omega, hbar, truncation: states.qtp_eigenstate(
        n, J, omega, truncation, hbar
    ),
    "sphere": lambda l, m, hbar, coefficients=None: states.sphere_state(
        l, {m: 1.0} if coefficients is None else coefficients, hbar
    ),
    "custom": lambda coeffs: coeffs,
}
_DRAW = {
    "scr": states.random_periodic,
    "qtp": lambda rng, J, omega, hbar: states.random_oscillator(
        rng, inertia=J, frequency=omega, hbar=hbar
    ),
    "sphere": states.random_sphere,
}


def _checked(make, *args, **kwargs):
    """``make(*args, **kwargs)``, with a ValueError or TypeError from it as a
    ConfigError."""
    try:
        return make(*args, **kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from None


def _both(rows, given):
    """The first either-or pair of ``rows`` whose keys are both in ``given``."""
    return next(((k, r.excludes) for k, r in rows.items() if {k, r.excludes} <= set(given)), None)


def _make_state(family, params):
    """The family's state from config-form ``params``: each key through its
    row's reader, a key left out at the row's default."""
    if not isinstance(family, str) or family not in FAMILY_PARAMS:
        raise ConfigError(f"unknown family {family!r}")
    pair = _both(FAMILY_PARAMS[family], params)
    if pair:
        raise ConfigError(f"family {family!r} takes {pair[0]!r} or {pair[1]!r}, not both")
    values = {}
    for key, row in FAMILY_PARAMS[family].items():
        if key in params:
            values[key] = _checked(row.read, params[key])
        elif row.default is not None:
            values[key] = row.default
        elif row.excludes is None:
            raise ConfigError(f"missing parameter {key!r} for family {family!r}")
    return _checked(_CONSTRUCT[family], **values)


# -- relation registry -----------------------------------------------------------
#
# Each relation is one row: its spectral evaluator, lifted ket -> report entry;
# the report keys --oracle compares with its oracle.RELATION_VALUES row
# (top-level lhs/rhs, else details keys; a key the oracle does not return is
# skipped); and, for a relation that holds on some families only, ``only =
# (state families, reason)``.  On a state of any other family the evaluator is
# not called, and the entry is not-applicable with that reason.


class Relation(NamedTuple):
    evaluate: Callable
    compared: tuple
    only: tuple = None


def _not_applicable(name, reason):
    return {"relation": name, "status": "not-applicable", "reason": reason}


def _record(name, details):
    """A report that only carries numbers: no sides, always satisfied."""
    entry = dict(relation=name, lhs=0.0, rhs=0.0, slack=0.0, satisfied=True, tolerance=0.0)
    return {**entry, "details": details}


def _condition19(ket):
    entries, max_modulus, _, _ = ket.pair(LZ, PHI).mismatch
    details = {"mismatch_ab": entries[0][1]}
    return identity_report("condition19", max_modulus, TOL_IDENTITY, details).to_json()


def _decomposition(ket):
    res = relations.covariance_decomposition(LZ, PHI, ket)
    details = {
        "symmetric": res.symmetric,
        "antisymmetric": res.antisymmetric,
        "mismatch_max": res.mismatch_max,
    }
    if not res.applicable:
        entry = _not_applicable("decomposition", "adjointness mismatch above threshold")
        return {**entry, "details": details}
    return identity_report("decomposition", res.residual, TOL_IDENTITY, details).to_json()


def _eq22(ket):
    ab = ket.mismatch(LZ, PHI)
    details = {"mismatch_ab": complex(ab), "target": 1j * ket.hbar}
    return identity_report("eq22", ab - 1j * ket.hbar, TOL_IDENTITY, details).to_json()


def _eq23(ket):
    ab = ket.mismatch(LZ, PHI)
    return identity_report("eq23", ab, TOL_IDENTITY, {"mismatch_ab": complex(ab)}).to_json()


def _eq24(ket):
    info = relations.sphere_anomaly(ket)
    return _record(
        "eq24",
        {
            "direct_mismatch": relations._cnum(info["direct_mismatch"]),
            "bracket_formula": relations._cnum(info["bracket_formula"]),
            "discrepancy": info["discrepancy"],
        },
    )


def _moments(ket):
    mean_lz, mean_phi, std_lz, std_phi, _ = ket.pair(LZ, PHI).moments
    details = {"mean_Lz": mean_lz, "std_Lz": std_lz, "mean_Phi": mean_phi, "std_Phi": std_phi}
    if ket.family == "oscillator":
        details["mean_energy"] = operators.qtp_energy_mean(ket)
    return _record("moments", details)


def _commutator(ket):
    """||L_z (phi psi) - phi (L_z psi) + i hbar psi|| in the ket algebra."""
    lz_phi, phi_lz = operators.apply(LZ, ket.acted(PHI)), operators.apply(PHI, ket.acted(LZ))
    residual = lz_phi.plus(phi_lz.scaled(-1.0)).plus(ket.scaled(1j * ket.hbar)).norm()
    return identity_report("commutator", residual, TOL_COMMUTATOR, {"residual": residual}).to_json()


def _adjusted(name):
    return lambda ket: relations.adjusted_relation(name, ket).to_json()


SIDES = ("lhs", "rhs")

RELATIONS = {
    "csf": Relation(lambda ket: relations.csf(LZ, PHI, ket).to_json(), SIDES),
    "rsur": Relation(lambda ket: relations.rsur(LZ, PHI, ket).to_json(), SIDES),
    "condition19": Relation(_condition19, ("mismatch_ab",)),
    "decomposition": Relation(_decomposition, ("symmetric", "antisymmetric")),
    "boundary": Relation(
        lambda ket: relations.boundary_bound(ket).to_json(),
        SIDES,
        (("periodic",), "boundary_bound: circle states only"),
    ),
    "gram": Relation(lambda ket: relations.gram_det(GRAM_SET, ket).to_json(), SIDES),
    "eq8-sin": Relation(_adjusted("eq8-sin"), SIDES),
    "eq8-cos": Relation(_adjusted("eq8-cos"), SIDES),
    "eq9-trig": Relation(_adjusted("eq9-trig"), SIDES),
    "eq22": Relation(
        _eq22, ("mismatch_ab",), (("periodic",), "sharp-rotation identity, circle family only")
    ),
    "eq23": Relation(
        _eq23, ("mismatch_ab",), (("oscillator",), "pendulum identity, line family only")
    ),
    "eq24": Relation(_eq24, ("direct_mismatch",), (("sphere",), "sphere family only")),
    "moments": Relation(_moments, ("mean_Lz", "std_Lz", "mean_Phi", "std_Phi", "mean_energy")),
    "commutator": Relation(
        _commutator, ("residual",), (("periodic", "oscillator"), "1D families only")
    ),
}

RELATION_REGISTRY = tuple(RELATIONS)


# 2**20 nodes: 16 MiB per complex sample array, of which the oracle holds several
MAX_RESOLUTION = 2**20


def _run_diags(run, state=None):
    """Diagnostics for the fields of a run, each of which it may leave out:
    ``relations`` (None: the defaults), ``oracle``, ``resolution`` (from 8 to
    MAX_RESOLUTION), ``seed`` (an integer >= 0, which numpy's ``default_rng``
    takes) and ``format``.  Under the oracle a sphere ``state`` is held to
    MAX_RESOLUTION values per array: the oracle samples it through a phase
    table of 2l + 1 columns of ``resolution`` nodes each."""
    diags = []
    names = run.get("relations")
    if names is None:
        pass
    elif not isinstance(names, (list, tuple)) or not all(isinstance(n, str) for n in names):
        diags.append(f"relations must be a list of relation names, got {names!r}")
    elif not names:
        diags.append("--relations names no relation")
    else:
        diags += [f"unknown relation {name!r}" for name in names if name not in RELATIONS]
    with_oracle = run.get("oracle", False)
    if type(with_oracle) is not bool:
        diags.append(f"oracle must be true or false, got {with_oracle!r}")
    resolution = run.get("resolution")
    if resolution is None:
        pass
    elif type(resolution) is not int or resolution < 8:
        diags.append(f"resolution must be an integer >= 8, got {resolution!r}")
    elif resolution > MAX_RESOLUTION:
        diags.append(f"resolution must be at most {MAX_RESOLUTION}, got {resolution!r}")
    elif with_oracle is True and state is not None and state.family == "sphere":
        rows = 2 * state.l + 1
        if rows * resolution > MAX_RESOLUTION:
            diags.append(
                f"sphere oracle rows x resolution must be at most {MAX_RESOLUTION}, "
                f"got {rows} x {resolution}"
            )
    seed = run.get("seed")
    if seed is not None and (type(seed) is not int or seed < 0):
        diags.append(f"seed must be a non-negative integer, got {seed!r}")
    fmt = run.get("format", "json")
    if fmt != "json":
        diags.append(f"scenario reports are JSON only, got format {fmt!r}")
    return diags


def _raise_diags(diags):
    """ConfigError with ``diags`` on one line, if there are any."""
    if diags:
        raise ConfigError("; ".join(diags))


def evaluate_relation(name, state):
    """One registry relation's report entry on one state or its lifted ket."""
    evaluate, _, only = RELATIONS[name]
    ket = operators.lift(state)
    if only is not None and ket.family not in only[0]:
        return _not_applicable(name, only[1])
    return evaluate(ket)


def _jsonable(value):
    if isinstance(value, complex):
        return relations._cnum(value)
    if isinstance(value, np.ndarray):
        return [[relations._cnum(z) for z in row] for row in value]
    if isinstance(value, (np.floating, np.integer)):
        return float(value)
    return value


def _oracle_annotate(entry, sampled, name):
    """Attach the oracle's parallel values and their maximum deviation."""
    if entry.get("status") == "not-applicable":
        return entry
    ovals = oracle.relation_values(sampled, name)
    delta = 0.0
    for key in RELATIONS[name][1]:
        if key in ovals:
            spectral = entry[key] if key in entry else entry["details"][key]
            if isinstance(spectral, dict):
                spectral = complex(spectral["re"], spectral["im"])
            delta = max(delta, abs(spectral - ovals[key]))
    entry["oracle"] = {k: _jsonable(v) for k, v in ovals.items()}
    entry["oracle_delta"] = float(delta)
    return entry


def _evaluate_state(state, names, with_oracle, resolution):
    """The named relations' reports on one state or its lifted ket, and the
    (Lz, Phi) mismatch matrix if condition19 is among them; all read one
    lifted ket and, under --oracle, one ``oracle.Sampled``."""
    ket = operators.lift(state)
    sampled = None
    if with_oracle:
        sampled = oracle.Sampled(ket.state, oracle.default_grid(ket.state, resolution))
    reports = []
    for name in names:
        entry = evaluate_relation(name, ket)
        if sampled is not None:
            entry = _oracle_annotate(entry, sampled, name)
        reports.append(entry)
    if "condition19" not in names:
        return reports, None
    return reports, relations.adjointness_mismatch(LZ, PHI, ket).to_json()


def _evaluate_states(states, names, with_oracle, resolution):
    """``_evaluate_state`` of each state, in input order.  States on one band
    with the same parameters share a block (``operators.lift_all``); each
    ket is dropped once evaluated, so a batch's block lives until its last
    state is done."""
    kets = operators.lift_all(states)
    for i, ket in enumerate(kets):
        kets[i] = None
        yield _evaluate_state(ket, names, with_oracle, resolution)


def run_scenario(config):
    """Evaluate one configured scenario into a report document; ConfigError
    for a state or run field outside the contract."""
    family, params = config["family"], config.get("parameters", {})
    state = _make_state(family, params)
    _raise_diags(_run_diags(config, state))
    names = config.get("relations")
    names = DEFAULT_RELATIONS if names is None else names
    with_oracle, resolution = config.get("oracle", False), config.get("resolution")
    reports, mismatch = _evaluate_state(state, names, with_oracle, resolution)
    shown = {k: v for k, v in params.items() if k != "coefficients"}
    if family == "custom":  # the state file carries its own hbar
        shown["hbar"] = state.hbar
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "scenario",
        "family": family,
        "params": dict(sorted(shown.items())),
        "state": states.to_json(state),
        "reports": reports,
        "mismatch": mismatch,
    }


# -- CLI plumbing ---------------------------------------------------------------


def _parse_range(text):
    lo, _, hi = text.partition("..")
    try:
        values = list(range(int(lo), int(hi or lo) + 1))
    except ValueError:
        raise ConfigError(f"bad range {text!r}, expected a or a..b") from None
    if not values:
        raise ConfigError(f"empty range {text!r}")
    return values


def _index(text, flag):
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"--{flag} needs an integer, got {text!r}") from None


def _split_names(text):
    return [r.strip() for r in text.split(",") if r.strip()]


def _state_flags(verb):
    """{flag: argparse type} of ``verb``'s state flags, in table order.  An
    index flag reads as an integer, or on a sweep's range as a..b, and a bad
    one raises ConfigError from the parse."""
    flags = {}
    for rows in FAMILY_PARAMS.values():
        for key, row in rows.items():
            flag = row.flag or key
            if verb not in row.verbs:
                continue
            if row.schema is _INDEX:
                ranged = row.ranged and verb == "sweep"
                flags[flag] = _parse_range if ranged else functools.partial(_index, flag=flag)
            else:
                flags[flag] = float if row.schema is _REAL else str
    return flags


def _add_common(sub, verb):
    # a flag left out is None, so that a flag given is told from its default
    for flag, kind in _state_flags(verb).items():
        sub.add_argument(f"--{flag}", type=kind)
    sub.add_argument("--relations", default=",".join(DEFAULT_RELATIONS))
    sub.add_argument("--oracle", action="store_true", help="attach grid-oracle cross checks")
    sub.add_argument("--resolution", type=int, default=None, help="oracle grid resolution, 8 to 2**20")


class _Parser(argparse.ArgumentParser):
    """A usage error raises ConfigError, so it exits 1 with one ``error:``
    line like any other input outside the contract; exit 2 stays with
    non-finite reports.  Subparsers are built of this class too.  A range
    that starts below zero, like ``-3..3``, reads as a value, as argparse
    reads ``-3``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        number = self._negative_number_matcher.pattern
        self._negative_number_matcher = re.compile(rf"{number}|^-\d+\.\.-?\d+$")

    def error(self, message):
        raise ConfigError(message)


@functools.lru_cache(maxsize=1)
def build_parser():
    """The parser, built once per process; ``parse_args`` leaves it unchanged."""
    parser = _Parser(
        prog="angulab",
        description="Uncertainty-relation checks for the angular momentum / azimuthal angle pair",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sc = subs.add_parser("scenario", help="run the named relations on one state")
    sc.add_argument("family", nargs="?", choices=FAMILY_PARAMS)
    sc.add_argument("--config", help="scenario config file (JSON)")
    _add_common(sc, "scenario")

    sw = subs.add_parser("sweep", help="run relations across a parameter range or random states")
    sw.add_argument("family", choices=FAMILY_PARAMS)
    sw.add_argument("--random", type=int, default=None, help="number of seeded random states")
    sw.add_argument("--seed", type=int, default=None, help="PCG64 seed for random states")
    sw.add_argument("--format", choices=("json", "csv"), default="json")
    _add_common(sw, "sweep")

    va = subs.add_parser("validate", help="check a scenario config file")
    va.add_argument("path")

    subs.add_parser("schema", help="print the config/report JSON schema")
    return parser


def _flag_params(args, verb, rows, also=()):
    """The config-form parameters that the state flags in ``args`` give
    ``rows``, a flag left out at its row's default.  ConfigError, led by
    ``verb``, for a flag given that no row reads (--seed among them, unless
    ``also`` names it), for both flags of an either-or pair, and for one left
    out that has no default or is the sweep's range."""
    flags = {row.flag or key: key for key, row in rows.items() if args.command in row.verbs}
    for flag in [*_state_flags(args.command), "seed"]:
        if getattr(args, flag, None) is not None and flag not in (*flags, *also):
            raise ConfigError(f"{verb} does not take --{flag}")
    given = {flags[flag]: getattr(args, flag) for flag in flags if getattr(args, flag) is not None}
    pair = _both(rows, given)
    if pair:
        first, second = (rows[key].flag or key for key in pair)
        raise ConfigError(f"{verb} takes --{first} or --{second}, not both")
    params = {}
    for flag, key in flags.items():
        row, value = rows[key], given.get(key)
        if value is not None:
            params[key] = _read_coeff_file(value) if row.schema is _COEFFICIENTS else value
        elif row.ranged and args.command == "sweep":
            raise ConfigError(f"{verb} needs --{flag} a..b")
        elif row.default is not None and row.excludes not in given:
            params[key] = row.default
        elif row.default is None and row.excludes is None:
            raise ConfigError(f"{verb} needs --{flag}")
    return params


def _config_from_args(args):
    if args.config:
        if args.family:
            raise ConfigError("scenario --config takes no family: the config names it")
        _flag_params(args, "scenario --config", {})
        config = _read_config(args.config)
        _raise_diags(_config_diags(config))
        return config
    if args.family is None:
        raise ConfigError("scenario needs a family or --config")
    params = _flag_params(args, f"scenario {args.family}", FAMILY_PARAMS[args.family])
    return {
        "family": args.family,
        "parameters": params,
        "relations": _split_names(args.relations),
        "oracle": bool(args.oracle),
        "resolution": args.resolution,
    }


def _read_coeff_file(path):
    """{index: [re, im]} from a list of [m, re, im] rows, bare or under
    "coefficients"; ConfigError for a file outside that format."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if isinstance(doc, dict) and "coefficients" in doc:
            doc = doc["coefficients"]
        # the config reader and the state check each part and its finiteness
        return {str(states.mode_index(k)): [real, imag] for k, real, imag in doc}
    except (OSError, ValueError, TypeError, RecursionError) as exc:
        raise ConfigError(f"cannot read coefficients {path}: {exc}") from None


def _read_config(path):
    """The JSON document in the config file at ``path``; ConfigError if the
    file cannot be read as UTF-8 JSON (UnicodeDecodeError and JSONDecodeError
    are ValueErrors, and nesting too deep for the parser a RecursionError)."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None


def _config_diags(config):
    """Diagnostics for a scenario config's family and parameter keys."""
    if not isinstance(config, dict):
        return ["config must be a JSON object"]
    family, params = config.get("family"), config.get("parameters")
    if not isinstance(family, str) or family not in FAMILY_PARAMS:
        return [f"unknown family {family!r}"]
    if not isinstance(params, dict):
        return ["missing parameter block"]
    rows = FAMILY_PARAMS[family]
    missing = [key for key in _parameters_schema(rows)["required"] if key not in params]
    return [f"missing parameter {key!r} for family {family!r}" for key in missing] + [
        f"family {family!r} does not read parameter {key!r}" for key in params if key not in rows
    ]


def validate_config(path):
    """Diagnostics for a config file; an empty list means well-formed."""
    try:
        config = _read_config(path)
    except ConfigError as exc:
        return [str(exc)]
    return validate_config_doc(config)


def validate_config_doc(config):
    """Human-readable diagnostics for a scenario config document: those of
    its family and parameter keys, of the state it builds, and of its run
    fields, as ``scenario --config`` gives them."""
    diags = _config_diags(config)
    if not isinstance(config, dict):
        return diags
    state = None
    if not diags:
        try:
            state = _make_state(config["family"], config["parameters"])
        except ConfigError as exc:
            diags.append(str(exc))
    return diags + _run_diags(config, state)


def _parameters_schema(rows):
    """The JSON schema of a family's config ``parameters``: a config names
    every parameter that has a flag, save an either-or pair, of which it
    names one at most."""
    pairs = {k: {"not": {"required": [r.excludes]}} for k, r in rows.items() if r.excludes}
    return {
        "type": "object",
        "properties": {key: row.schema for key, row in rows.items()},
        "required": [key for key, row in rows.items() if row.verbs and not row.excludes],
        "additionalProperties": False,
        "dependentSchemas": pairs,
    }


def emit_schema():
    number = {"type": "number"}
    cnum = {
        "type": "object",
        "properties": {"re": number, "im": number},
        "required": ["re", "im"],
    }
    report = {
        "type": "object",
        "properties": {
            "relation": {"type": "string", "enum": list(RELATION_REGISTRY)},
            "lhs": number,
            "rhs": number,
            "slack": number,
            "satisfied": {"type": "boolean"},
            "tolerance": number,
            "details": {"type": "object", "additionalProperties": True},
            "status": {"type": "string", "enum": ["not-applicable"]},
            "reason": {"type": "string"},
            "oracle": {"type": "object"},
            "oracle_delta": number,
        },
        "required": ["relation"],
    }
    config = {
        "type": "object",
        "properties": {
            "family": {"type": "string", "enum": list(FAMILY_PARAMS)},
            "parameters": {"type": "object"},
            "relations": {"type": ["array", "null"], "items": {"type": "string"}, "minItems": 1},
            "oracle": {"type": "boolean"},
            "resolution": {"type": ["integer", "null"], "minimum": 8, "maximum": MAX_RESOLUTION},
            "format": {"type": "string", "enum": ["json"]},
            "seed": {"type": "integer", "minimum": 0},
        },
        "required": ["family", "parameters"],
        "allOf": [
            {
                "if": {"properties": {"family": {"const": family}}},
                "then": {"properties": {"parameters": _parameters_schema(rows)}},
            }
            for family, rows in FAMILY_PARAMS.items()
        ],
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "complex_number": cnum,
        "config": config,
        "relation_report": report,
    }


def _sweep_items(args, seed):
    """(params, state) pairs in deterministic order.  A range sweep's item
    shows its range value and the parameters with no default."""
    family, rows = args.family, FAMILY_PARAMS[args.family]
    ranged = next((key for key, row in rows.items() if row.ranged), None)
    if ranged is None:
        raise ConfigError(f"{family} states are for scenario runs")
    if args.random is None:
        params = _flag_params(args, f"sweep {family} without --random", rows)
        shown = {key: value for key, value in params.items() if rows[key].default is None}
        return [
            ({**shown, ranged: v}, _make_state(family, {**params, ranged: v}))
            for v in params[ranged]
        ]
    if args.random < 1:
        raise ConfigError(f"--random needs at least one state, got {args.random}")
    fixed = {key: row for key, row in rows.items() if not row.ranged}
    params = _flag_params(args, f"sweep {family} --random", fixed, also=("seed",))
    values = {key: _checked(fixed[key].read, value) for key, value in params.items()}
    rng = np.random.default_rng(seed)
    return [
        ({"random": i, "seed": seed}, _checked(_DRAW[family], rng, **values))
        for i in range(args.random)
    ]


def run_sweep(args):
    names = _split_names(args.relations)
    # the seed is checked before any state is drawn with it
    _raise_diags(_run_diags({"relations": names, "resolution": args.resolution, "seed": args.seed}))
    seed = 0 if args.seed is None else args.seed
    items = _sweep_items(args, seed)
    # a sweep's states share their family and sphere l, so the first stands for all
    _raise_diags(_run_diags({"oracle": args.oracle, "resolution": args.resolution}, items[0][1]))
    results = _evaluate_states([state for _, state in items], names, args.oracle, args.resolution)
    entries = [
        {"index": index, "params": params, "reports": reports, "mismatch": mismatch}
        for index, ((params, _), (reports, mismatch)) in enumerate(zip(items, results))
    ]
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "sweep",
        "family": args.family,
        "seed": seed,
        "count": len(entries),
        "items": entries,
    }


def _sweep_csv(doc, oracle_enabled):
    buf = io.StringIO()
    cols = ["index", "family", "params", "relation", "lhs", "rhs", "slack", "satisfied"]
    if oracle_enabled:
        cols.append("oracle_delta")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cols)
    for item in doc["items"]:
        ptext = ";".join(f"{k}={v}" for k, v in sorted(item["params"].items()))
        for entry in item["reports"]:
            row = [item["index"], doc["family"], ptext, entry["relation"]]
            if entry.get("status") == "not-applicable":
                row += ["", "", "", "not-applicable"]
            else:
                row += [repr(entry[key]) for key in ("lhs", "rhs", "slack")] + [entry["satisfied"]]
            if oracle_enabled:
                row.append(repr(entry["oracle_delta"]) if "oracle_delta" in entry else "")
            writer.writerow(row)
    return buf.getvalue()


def _check_finite(obj):
    """Raise ArithmeticError naming the first non-finite float in ``obj``;
    the walk builds no path until a value fails."""
    stack = [obj]
    while stack:
        val = stack.pop()
        if isinstance(val, dict):
            stack.extend(val.values())
        elif isinstance(val, (list, tuple)):
            stack.extend(val)
        elif isinstance(val, float) and not math.isfinite(val):
            _name_non_finite(obj, "report")


def _name_non_finite(obj, path):
    if isinstance(obj, dict):
        for key, val in obj.items():
            _name_non_finite(val, f"{path}.{key}")
    elif isinstance(obj, (list, tuple)):
        for i, val in enumerate(obj):
            _name_non_finite(val, f"{path}[{i}]")
    elif isinstance(obj, float) and not math.isfinite(obj):
        raise ArithmeticError(f"non-finite value at {path}")


def _dumps(doc):
    """``doc`` as JSON on one line, keys sorted, or ArithmeticError naming a
    non-finite float.  With no indent CPython encodes in C, and that encoder
    still tests each float, so success costs no walk.  ``python -m json.tool``
    indents the line for reading."""
    try:
        return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except ValueError:
        _name_non_finite(doc, "report")
        raise


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        if args.command == "scenario":
            config = _config_from_args(args)
            print(_dumps(run_scenario(config)))
            return 0
        if args.command == "sweep":
            doc = run_sweep(args)
            if args.format == "csv":
                # CSV leaves out details, but the whole report is held to the check
                _check_finite(doc)
                sys.stdout.write(_sweep_csv(doc, args.oracle))
            else:
                print(_dumps(doc))
            return 0
        if args.command == "validate":
            diags = validate_config(args.path)
            for diag in diags:
                print(diag)
            return 1 if diags else 0
        if args.command == "schema":
            print(_dumps(emit_schema()))
            return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader left; send the rest, and the flush at exit, nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
