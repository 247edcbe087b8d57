"""Repository benchmark: one command, three workloads, checked answers.

Usage (from the repository root)::

    python3 perfbench/run.py --workload batch-lookup --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run on the same inputs (spans land in
``.perfbench/traces/``).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
lines before it are the input, host and operation records.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("batch-lookup", "serve-tcp", "mixed-rw"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for the benchmark's tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # The TPC-H generator seeds from hash(table name), which Python salts
    # per process; a fixed hash seed makes one --seed give one input.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from common import WORK, host_record
    from workloads import RUNNERS, SIZES

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        e2e, layers, ops, wrong, records = RUNNERS[args.workload](
            args, work, SIZES[args.size])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for record in records + [host_record()]:
        print(json.dumps(record))
    print(json.dumps({"record": "ops", **{
        op: {"attempted": a, "failed": f} for op, (a, f) in ops.counts.items()},
        "wrong_keys": wrong}))
    units = json.loads((ROOT / "BENCHMARK.json").read_text()) \
        if (ROOT / "BENCHMARK.json").is_file() else None
    chosen = layers if args.trace else e2e
    section = "per_layer" if args.trace else "end_to_end"
    if units is not None:
        unit_of = {m["name"]: m["unit"] for m in units[section]}
        missing = sorted(set(unit_of) - set(chosen))
        if missing:
            print(f"perfbench: metrics not measured: {missing}",
                  file=sys.stderr)
            return 3
    else:
        unit_of = {}
    metrics = {name: {"value": float(chosen[name]),
                      "unit": unit_of.get(name, "")}
               for name in (unit_of or chosen)}
    print(json.dumps({"correct": wrong == 0, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
