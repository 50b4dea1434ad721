"""Quick self-check of the benchmark harness at tiny sizes.

    python3 bench/selfcheck.py

Checks, on every workload, that
  1. every metric BENCHMARK.json names is printed with its unit, with
     --trace 0 and with --trace 1;
  2. failed_frac is 0 on seed 0, which has recorded references;
  3. a perturbed reference value drives failed_frac above 0, so the checks
     can fail.
Prints one PASS/FAIL line per check and exits 1 if any failed.
"""

import contextlib
import io
import json
import sys

import run

TINY = ["--seed", "0", "--seconds", "0.5", "--min-ops", "1"]


def printed_result(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(argv)
    if code != 0:
        raise RuntimeError(f"run.main({argv}) exited {code}")
    return json.loads(buf.getvalue().splitlines()[-1])


def perturb_first_float(obj, factor=1.0 + 1e-6):
    """Scale the first float above 1e-3 in ``obj`` in place; True if one was found.

    The change, 1e-6 relative, is a thousand times the reference tolerance.
    """
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, val in items:
        if isinstance(val, float) and abs(val) > 1e-3:
            obj[key] = val * factor
            return True
        if perturb_first_float(val, factor):
            return True
    return False


def main():
    run.import_program()
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0

    def report(ok, what):
        nonlocal failures
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'}: {what}")

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result = printed_result(["--workload", workload, "--trace", str(trace), *TINY])
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            report(printed == expected[trace], f"{workload} --trace {trace} prints every metric with its unit")
            report(
                result["failed"] == 0 and result["correct"],
                f"{workload} --trace {trace} failed_frac 0 ({result['failed']} of {result['attempted']})",
            )

        bad = json.loads((workloads.REFS / f"{workload}-seed0.json").read_text())["ops"]
        found = perturb_first_float(bad[0])
        instance = workloads.WORKLOADS[workload](0, refs=bad)
        tally = run.Tally()
        try:
            run.measure(instance, 0.0, tally, min_ops=1)
        finally:
            instance.close()
        report(found and tally.failed > 0, f"{workload} perturbed reference fails {tally.failed} of {tally.attempted} ops")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
