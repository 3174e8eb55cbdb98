"""Record the reference numbers the benchmark compares outputs against.

    python3 perfbench/reference.py [--seeds 0-10]

Runs each workload once per seed, exactly as the benchmark does, checks the
certificates, and writes the extracted numbers (energies, identity residuals,
fitted rates, CSV columns, verify check values) to ``reference.json``. Record
it only from a commit whose outputs are trusted; the benchmark then fails any
invocation whose numbers drift beyond the tolerances stated in ``run.py``.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import run


def record(workload: str, seed: int) -> dict:
    results = run.HERE / "results"
    results.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=results))
    try:
        out_dir = work / "out"
        out_dir.mkdir()
        config = work / "config.yaml"
        run.make_config(workload, seed, config, out_dir)
        invoke = run.Invoker(work, config, run.WORKLOADS[workload]["argv"],
                             time.monotonic() + run.DEADLINE_S)
        inv = invoke()
        problems = inv["problems"]
        if not problems:
            values, problems = run.extract(workload, out_dir, inv["stdout"])
        if problems:
            raise RuntimeError(f"{workload} seed {seed}: {problems}")
        return values
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-10",
                        help="inclusive seed range, as FIRST-LAST")
    args = parser.parse_args()
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    table = {}
    for workload in run.WORKLOADS:
        table[workload] = {}
        for seed in seeds:
            table[workload][str(seed)] = record(workload, seed)
            print(f"recorded {workload} seed {seed}", flush=True)
    (run.HERE / "reference.json").write_text(
        json.dumps(table, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
