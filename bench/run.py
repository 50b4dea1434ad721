"""angulab benchmark: one entry point, three workloads, one process each.

    python3 bench/run.py --workload {pair-sweep,cli-sweep,oracle-scenario}
                         --seed N --seconds S --trace {0,1}

Run from anywhere; the program is imported from ``src/`` next to this
directory, and the run exits with code 2 and no result when it is missing.
Everything runs single-threaded (BLAS pinned to one thread), in a closed
loop: the next op starts when the previous one and its checks are done.
Runs stop at the end of a block of ops (one cycle of the input mix) once
``--seconds`` have passed and at least MIN_OPS ops are done.  A host so slow
that MIN_OPS ops take MAX_SECONDS_FACTOR times ``--seconds`` stops the run
early and counts that as a failed op.  Workloads and checks are described
in ``workloads.py``.

--trace 0 prints the end-to-end metrics:
    setup_s       median wall time of SETUP_PROBES fresh processes, each of
                  which imports angulab, builds the inputs and runs one
                  untimed warm-up op: the cold start every CLI call pays.
                  The probes run between blocks, spread over the run, and
                  their time is not counted as measuring
    states_per_s  states per second of program time, median over blocks
    op_ms_p50/p90 op latency percentiles over every op of the run
    peak_rss_mb   peak resident memory of the workload process
Op times are scaled to the host's nominal speed by a calibration kernel
timed before every op (see ``calibration.py``): each op by the median of the
eight kernels timed nearest it.  setup_s is scaled by a control process
timed next to each probe instead, as the kernel did not track a probe's
time.
failed_frac (ops that raised, exited nonzero, gave unparsable output or
failed a check, over ops attempted) is 0 when the program is right, so it
is carried by the result's ``failed``/``attempted`` and printed as a plain
line, not listed as a bounded metric; so is oracle_delta_max on
oracle-scenario, which the other workloads do not compute.

--trace 1 runs a fixed list of ops (``fixed_ops`` of the workload) in
alternating untraced and traced passes and prints the per-layer metrics of
``tracing.py``: calls, self time and computed counts as medians over traced
passes, lru_cache hit ratios over set-up plus the first (untraced) pass,
and the traced-to-untraced time ratio.  A layer that is busy on the
workload (BUSY_LAYERS) but records no calls fails the run.  The spans of
the first traced pass go to ``.bench_out/``.

The last stdout line is the JSON result; the lines before it print every
metric with its unit and sample count, and the run metadata.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"  # before numpy is first imported

import calibration  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("pair-sweep", "cli-sweep", "oracle-scenario")

SETUP_PROBES = 9
MIN_OPS = 100  # so that op_ms_p90 has at least 10 samples beyond it
MAX_SECONDS_FACTOR = 3  # a run with fewer than MIN_OPS ops stops at this many --seconds
SCALE_REACH = 3  # ops on each side whose kernels scale an op

END_TO_END = (
    ("setup_s", "s"),
    ("states_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)

# Layers the workload cannot run without; zero traced calls there fails the run.
BUSY_LAYERS = {
    "pair-sweep": ("operators", "relations"),
    "cli-sweep": ("operators", "relations", "cli"),
    "oracle-scenario": ("oracle", "states", "specfun", "cli"),
}


class ProgramMissing(Exception):
    pass


def import_program():
    """Import angulab from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "angulab" / "__init__.py").is_file():
        raise ProgramMissing(f"no angulab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import angulab

    if Path(angulab.__file__).resolve().parent != SRC / "angulab":
        raise ProgramMissing(f"angulab imported from {angulab.__file__}, not {SRC}")


# -- metadata --------------------------------------------------------------------


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cache_sizes():
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind in ("Unified", "Data"):
                sizes[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return sizes


def metadata(args):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    caches = _cache_sizes()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(),
        "src_sha256_16": _src_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


# -- running ops -------------------------------------------------------------------


def run_op(workload, i):
    """(seconds, input, output or None, problems) of op i; the check is not timed."""
    inp = workload.input(i)
    start = time.perf_counter()
    try:
        out = workload.run(inp)
    except Exception as exc:  # a raising op is a failed op, the run goes on
        seconds = time.perf_counter() - start
        return seconds, inp, None, [f"op {i} raised {traceback.format_exception_only(exc)[-1].strip()}"]
    seconds = time.perf_counter() - start
    try:
        problems = workload.check(i, inp, out)
    except Exception as exc:
        problems = [f"op {i} check raised {traceback.format_exception_only(exc)[-1].strip()}"]
    return seconds, inp, out, [f"op {i}: {p}" for p in problems]


class Tally:
    """Ops attempted, failed, and the first problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[: max(0, 10 - len(self.problems))])


def measure(workload, seconds, tally, min_ops=MIN_OPS, probes=None):
    """Closed loop of whole blocks, with the calibration kernel before each op.

    Between blocks, runs the set-up ``probes`` due so far; their time does
    not count as measuring.  Stops at the end of the block that reaches
    ``seconds`` once ``min_ops`` ops are done.  A host so slow that
    ``min_ops`` take more than MAX_SECONDS_FACTOR times ``seconds`` ends the
    run early with a failed op in ``tally``, so that percentiles on too few
    samples do not pass as a result.
    Returns raw per-op seconds, the kernel time before each op and the
    states of each block.
    """
    raw, kernels, block_states = [], [], []
    start = time.perf_counter()
    i = 0
    while True:
        states = 0
        for _ in range(workload.block):
            kernels.append(calibration.kernel_seconds())
            dt, inp, _, problems = run_op(workload, i)
            tally.add(problems)
            raw.append(dt)
            states += workload.states_in(inp)
            i += 1
        block_states.append(states)
        elapsed = time.perf_counter() - start
        if probes is not None:
            paused = time.perf_counter()
            probes.due(elapsed / seconds)
            start += time.perf_counter() - paused
        per_block = elapsed / len(block_states)
        if elapsed + per_block > seconds and len(raw) >= min_ops:
            break
        if elapsed + per_block > MAX_SECONDS_FACTOR * seconds:
            tally.add([f"run stopped after {elapsed:.1f} s with {len(raw)} ops, fewer than {min_ops}"])
            break
    return raw, kernels, block_states


def speed_factors(kernels):
    """Host-speed factor of each op: NOMINAL_S over the median of the kernels
    timed nearest it, from the one before op i - SCALE_REACH to the one
    after op i + SCALE_REACH."""
    reach = SCALE_REACH
    return [
        calibration.NOMINAL_S / statistics.median(kernels[max(0, i - reach) : i + reach + 2])
        for i in range(len(kernels))
    ]


class SetupProbes:
    """Wall times of fresh processes that set up the workload and run its warm-up op.

    Each probe is timed next to a control process (``calibration.py``), and
    set-up time is reported scaled by the control's median.  The probes are
    spread over the run (``due``), so that their median does not rest on one
    stretch of the host's speed.
    """

    def __init__(self, args, tally):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--probe"]
        self.cmd += ["--workload", args.workload, "--seed", str(args.seed)]
        self.control = [sys.executable, *calibration.CONTROL_ARGV]
        self.tally = tally
        self.times, self.controls = [], []
        self.runs = 0

    def _wall(self, cmd, what):
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=20)
        except subprocess.TimeoutExpired:  # run() has killed and reaped the process
            self.tally.add([f"{what} did not finish within 20 s"])
            return None
        seconds = time.perf_counter() - start
        if proc.returncode != 0:
            self.tally.add([f"{what} exited {proc.returncode}: {proc.stderr.strip()[-300:]}"])
        return seconds

    def due(self, progress):
        """Run the probes owed once ``progress`` (0 to 1) of the run is done."""
        while self.runs < min(SETUP_PROBES, 1 + int(progress * SETUP_PROBES)):
            self.runs += 1
            control = self._wall(self.control, "set-up control process")
            probe = self._wall(self.cmd, "set-up probe")
            if control is not None and probe is not None:
                self.controls.append(control)
                self.times.append(probe)

    def setup_s(self):
        scale = calibration.CONTROL_NOMINAL_S / statistics.median(self.controls)
        return statistics.median(self.times) * scale


def _rates(seconds, block, block_states):
    return [n / sum(seconds[b * block : (b + 1) * block]) for b, n in enumerate(block_states)]


def run_end_to_end(args, workloads, lines):
    tally = Tally()
    probes = SetupProbes(args, tally)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    try:
        tally.add(run_op(workload, 0)[3])  # untimed warm-up
        raw, kernels, block_states = measure(workload, args.seconds, tally, args.min_ops, probes)
    finally:
        workload.close()
    probes.due(1.0)
    factors = speed_factors(kernels)
    scaled = [t * f for t, f in zip(raw, factors)]
    ms, raw_ms = [1e3 * t for t in scaled], [1e3 * t for t in raw]
    n, block = len(ms), workload.block
    deciles = statistics.quantiles(ms, n=10, method="inclusive")
    raw_deciles = statistics.quantiles(raw_ms, n=10, method="inclusive")
    metrics = {
        "setup_s": probes.setup_s(),
        "states_per_s": statistics.median(_rates(scaled, block, block_states)),
        "op_ms_p50": deciles[4],
        "op_ms_p90": deciles[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    as_measured = {
        "setup_s": statistics.median(probes.times),
        "states_per_s": statistics.median(_rates(raw, block, block_states)),
        "op_ms_p50": raw_deciles[4],
        "op_ms_p90": raw_deciles[8],
    }
    speed = statistics.median(factors)
    samples = {
        "setup_s": (
            f"median of {len(probes.times)} fresh processes spread over the run, "
            f"scaled by {len(probes.controls)} control processes"
        ),
        "states_per_s": f"median of {len(block_states)} blocks of {block} ops",
        "op_ms_p50": f"n={n} ops",
        "op_ms_p90": f"n={n} ops, {n - 1 - int(0.9 * (n - 1))} beyond",
        "peak_rss_mb": "1 process",
    }
    for name, value in as_measured.items():
        samples[name] += f"; {value!r} unscaled"
    lines.append(f"{'failed_frac':<42} {tally.failed / tally.attempted!r} ratio  ({tally.failed} of {tally.attempted} ops)")
    if args.workload == "oracle-scenario":
        lines.append(f"{'oracle_delta_max':<42} {workload.oracle_delta_max!r} abs  (max over {tally.attempted} scenarios)")
    lines.append(f"# times scaled to nominal host speed; median scale factor {speed:.4f} (kernel {calibration.NOMINAL_S / speed * 1e3:.4f} ms)")
    raw_out = {"op_ms": raw_ms, "factor": factors, "block_states": block_states, "setup_s": probes.times, "control_s": probes.controls}
    return metrics, samples, tally, raw_out


def run_traced(args, workloads, tracing, lines):
    tally = Tally()
    instrumentation = tracing.Instrumentation()
    before = instrumentation.cache_counters()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    ops = workload.fixed_ops

    def one_pass(tracer=None):
        total = 0.0
        for i in range(ops):
            if tracer is not None:
                tracer.op = i
            dt, _, out, problems = run_op(workload, i)
            tally.add(problems)
            total += dt
            if tracer is not None and out is not None:
                tracer.counts["cli.report_bytes"] += workload.report_bytes(out)
        return total

    try:
        tally.add(run_op(workload, 0)[3])  # untimed warm-up
        plain = [one_pass()]
        cache = tracing.cache_metrics(before, instrumentation.cache_counters())
        traced, per_pass, first = [], [], None
        start = time.perf_counter()
        while True:
            tracer = tracing.Tracer(keep_spans=first is None)
            with instrumentation.installed(tracer):
                seconds = one_pass(tracer)
            traced.append(seconds)
            per_pass.append(tracing.pass_metrics(tracer, ops, seconds))
            first = first or tracer
            elapsed = time.perf_counter() - start
            per_pair = elapsed / len(traced)
            if elapsed + per_pair > args.seconds:
                break
            plain.append(one_pass())
    finally:
        workload.close()

    metrics = {name: statistics.median_low(p[name] for p in per_pass) for name in per_pass[0]}
    metrics.update(cache)
    metrics["oracle.delta_max"] = workload.oracle_delta_max
    metrics["bench.trace_overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    for layer in BUSY_LAYERS[args.workload]:
        calls = sum(v for k, v in metrics.items() if k.startswith(layer + ".") and k.endswith(".calls"))
        if calls == 0:
            tally.add([f"layer {layer} is busy on {args.workload} but recorded no calls"])
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    first.write_spans(span_file)
    lines.append(
        f"# {len(traced)} traced and {len(plain)} untraced passes of {ops} ops; "
        f"{len(first.spans)} spans of the first traced pass in {span_file.relative_to(ROOT)}"
    )
    for name in instrumentation.absent:
        lines.append(f"# absent: {name} is not in the program; its metrics read 0")
    samples = {name: f"median of {len(traced)} traced passes" for name in metrics}
    for name in tracing.COMPUTED:
        samples[name] = "computed from argument and result shapes; " + samples[name]
    for name in cache:
        samples[name] = "set-up plus the first untraced pass"
    samples["bench.trace_overhead_frac"] = f"median of {len(traced)} traced / {len(plain)} untraced passes"
    samples["oracle.delta_max"] = f"max over {tally.attempted} ops"
    raw = {"traced_pass_s": traced, "untraced_pass_s": plain}
    return metrics, samples, tally, raw


def _seed(text):
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("a seed is a whole number >= 0")
    return seed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--min-ops", type=int, default=MIN_OPS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        import_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    if args.probe:
        workload = workloads.WORKLOADS[args.workload](args.seed)
        try:
            run_op(workload, 0)
        finally:
            workload.close()
        return 0

    lines = []
    if args.trace:
        metrics, samples, tally, raw = run_traced(args, workloads, tracing, lines)
        units = dict(tracing.METRICS)
    else:
        metrics, samples, tally, raw = run_end_to_end(args, workloads, lines)
        units = dict(END_TO_END)
    meta = metadata(args)
    correct = tally.failed == 0
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print("# angulab benchmark " + " ".join(f"{k}={v}" for k, v in meta.items()))
    for name, unit in units.items():
        print(f"{name:<42} {metrics[name]!r} {unit}  ({samples[name]})")
    for line in lines:
        print(line)
    for problem in tally.problems:
        print(f"# failed: {problem}")
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"meta": meta, "samples": samples, "problems": tally.problems, **result, "raw": raw}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
