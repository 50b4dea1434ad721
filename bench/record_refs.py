"""Record the reference outputs that ``workloads.Workload.check`` compares with.

    python3 bench/record_refs.py [SEED ...]     (default: 0 1)

For each workload and seed, runs the first ``reference_ops`` ops and writes
their outputs, floats kept to 12 significant digits, to
``bench/refs/<workload>-seed<seed>.json``.  Re-record only when the
program's output is meant to change, and say so where the change is
described.
"""

import json
import sys
from pathlib import Path

import run

SEEDS = (0, 1)


def record(name, seed):
    import workloads

    workload = workloads.WORKLOADS[name](seed, refs=[])
    try:
        ops = []
        for i in range(workload.reference_ops):
            _, _, out, problems = run.run_op(workload, i)
            if problems:
                raise SystemExit(f"{name} seed {seed}: {problems}")
            ops.append(workloads.rounded(workload.reference_form(out)))
    finally:
        workload.close()
    path = workloads.REFS / f"{name}-seed{seed}.json"
    head = json.dumps({"workload": name, "seed": seed, "src_sha256_16": run._src_digest()})
    body = ",\n".join(json.dumps(op, separators=(",", ":")) for op in ops)
    path.write_text(head[:-1] + ', "ops": [\n' + body + "\n]}\n")
    print(f"{path.relative_to(run.ROOT)}: {len(ops)} ops, {path.stat().st_size} bytes")


def main(argv):
    run.import_program()
    Path(run.ROOT / "bench" / "refs").mkdir(exist_ok=True)
    for seed in [int(s) for s in argv] or SEEDS:
        for name in run.WORKLOAD_NAMES:
            record(name, seed)


if __name__ == "__main__":
    main(sys.argv[1:])
