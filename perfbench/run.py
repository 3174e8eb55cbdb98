"""ggkdv benchmark: time to a certified `gg run` / `gg sweep` / `gg verify`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs one shipped config verbatim, except that the seed comes
from ``--seed`` and every output path points into a temporary directory under
``perfbench/results``. The loop is closed with one client: a fresh interpreter
runs ``ggkdv.cli.main`` on the generated config, and the next one starts only
after it has finished, until ``--seconds`` have passed. Every invocation's
outputs are checked (exit code, schema-valid summary with ``status: ok``,
identity residuals, verify checks, and, where ``reference.json`` has the
seed, the numbers themselves); a failed check counts as a failed invocation.

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it carries the per-layer metrics from
traced invocations, alternated with untraced ones to give the tracing
overhead. No machine setting is touched: no CPU pinning, no cache drop.

Every time metric (``wall_s``, ``cpu_s``, ``setup_s``, ``trace.overhead_s``)
is reported at a reference host speed: each invocation's times are scaled by
``hostspeed.NOMINAL_S`` over the mean of the host-speed probes its child timed
before and after it (``hostspeed.py``). The raw times stay in the report.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = {
    "run_decay": {"config": "configs/decay.yaml", "argv": ["run"],
                  "seed": ("initial", "seed"),
                  "outputs": {"csv": "decay.csv", "summary": "decay.json",
                              "plot": "decay.svg"}},
    "sweep_k": {"config": "configs/decay.yaml",
                "argv": ["sweep", "--axis", "k=0.25,0.5,1.0"],
                "seed": ("initial", "seed"),
                "outputs": {"csv": "sweep.csv", "summary": "sweep.json",
                            "plot": None}},
    "verify_battery": {"config": "configs/verify.yaml", "argv": ["verify"],
                       "seed": ("verify", "seed"),
                       "outputs": {"summary": "verify.json"}},
}

IDENTITY_TOL = 1e-8    # every tracked identity residual must stay below this
REF_RTOL = 1e-9        # reference values: relative tolerance ...
REF_RESIDUAL_ATOL = 1e-12  # ... except round-off residuals, compared absolutely
REF_COLUMN_FLOOR = 1e-6  # CSV entries are compared at no less than this share
                         # of their column's largest magnitude (zeros, tails)
SETUP_SAMPLES = 5      # set-up-only interpreters per untraced run
DEADLINE_S = 170.0     # the whole run ends well inside 180 s


def _shipped_config(workload: str) -> dict:
    import yaml
    return yaml.safe_load((ROOT / WORKLOADS[workload]["config"])
                          .read_text("utf-8"))


def shipped_seed(workload: str) -> int:
    section, key = WORKLOADS[workload]["seed"]
    return int(_shipped_config(workload)[section][key])


def make_config(workload: str, seed: int, path: Path, out_dir: Path,
                overrides: dict | None = None) -> None:
    """Write the workload's config with the seed and output paths replaced.

    ``overrides`` maps ``"section.key"`` to a value (the smoke test uses it
    to shrink the grid); the benchmark itself never passes it.
    """
    import yaml
    spec = WORKLOADS[workload]
    raw = _shipped_config(workload)
    section, key = spec["seed"]
    raw[section][key] = seed
    raw["output"] = {name: str(out_dir / file)
                     for name, file in spec["outputs"].items()
                     if file is not None}
    for dotted, value in (overrides or {}).items():
        section, key = dotted.split(".")
        raw.setdefault(section, {})[key] = value
    path.write_text(yaml.safe_dump(raw, sort_keys=False), "utf-8")


class Invoker:
    """Starts child interpreters one at a time inside a work directory."""

    def __init__(self, work: Path, config: Path, argv: list, deadline: float):
        self.work = work
        self.argv = argv[:1] + [str(config)] + argv[1:]
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]]
                                   if os.environ.get("PYTHONPATH") else []))

    def __call__(self, setup_only: bool = False, trace: bool = False) -> dict:
        self.count += 1
        tag = f"inv{self.count:03d}"
        result = self.work / f"{tag}.result.json"
        spans = self.work / f"{tag}.spans.json"
        cmd = [sys.executable, str(HERE / "child.py"), str(result)]
        if setup_only:
            cmd.append("--setup-only")
        if trace:
            cmd += ["--spans", str(spans)]
        cmd += ["--"] + self.argv
        timeout = self.deadline - time.monotonic()
        out = {"problems": [], "spans_file": str(spans) if trace else None}
        if timeout <= 0:
            out["problems"].append("no time left before the run deadline")
            return out
        with open(self.work / f"{tag}.stdout", "w") as so, \
                open(self.work / f"{tag}.stderr", "w") as se:
            spawn = time.monotonic()
            try:
                proc = subprocess.run(cmd, cwd=self.work, env=self.env,
                                      stdout=so, stderr=se, timeout=timeout)
            except subprocess.TimeoutExpired:
                out["problems"].append(f"timed out after {timeout:.0f} s")
                return out
        out["stdout"] = (self.work / f"{tag}.stdout").read_text()
        if proc.returncode != 0 or not result.exists():
            err = (self.work / f"{tag}.stderr").read_text()[-2000:]
            out["problems"].append(
                f"child exited {proc.returncode}: {err.strip()}")
            return out
        out.update(json.loads(result.read_text()))
        out["setup_s"] = out["ready"] - spawn
        out["speed"] = hostspeed.NOMINAL_S / statistics.fmean(out["probe_s"])
        if out.get("error"):
            out["problems"].append(out["error"])
        elif not setup_only and out.get("exit_code") != 0:
            out["problems"].append(f"gg exited {out.get('exit_code')}")
        return out


# ---------------------------------------------------------------- checks

def _read_csv(path: Path) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    columns = {}
    for i, name in enumerate(header):
        cells = [row[i] for row in body]
        try:
            columns[name] = [float(c) for c in cells]
        except ValueError:
            columns[name] = cells
    return columns


def extract(workload: str, out_dir: Path, stdout: str) -> tuple[dict, list]:
    """(numbers to compare with the reference, certificate problems)."""
    import jsonschema
    spec = WORKLOADS[workload]["outputs"]
    problems, values = [], {}
    missing = [f for f in spec.values()
               if f is not None and not (out_dir / f).exists()]
    if missing:
        return values, [f"missing output {m}" for m in missing]
    summary = json.loads((out_dir / spec["summary"]).read_text())
    schema = json.loads((ROOT / "src/ggkdv/schemas/summary.schema.json")
                        .read_text())
    try:
        jsonschema.validate(summary, schema)
    except jsonschema.ValidationError as exc:
        problems.append(f"summary fails the schema: {exc.message}")
    if summary.get("status") != "ok":
        problems.append(f"summary status {summary.get('status')!r}")

    if workload == "run_decay":
        values["energy.initial"] = summary["energy"]["initial"]
        values["energy.final"] = summary["energy"]["final"]
        for ident, r in summary["identity_residuals"].items():
            values[f"residual.{ident}"] = r
            if not r <= IDENTITY_TOL:
                problems.append(f"identity {ident} residual {r:.3e}")
        for fit in summary["decay_fits"]:
            values[f"fit.{fit['quantity_id']}.rate"] = fit["fitted_rate"]
        for name, col in _read_csv(out_dir / spec["csv"]).items():
            values[f"csv.{name}"] = col
        if not (out_dir / spec["plot"]).read_text().startswith("<svg"):
            problems.append("plot is not an SVG document")
    elif workload == "sweep_k":
        for p in summary["points"]:
            key = ",".join(f"{k}={v}" for k, v in p["point"].items())
            values[f"point.{key}.rate"] = p["fitted_rate"]
            values[f"point.{key}.r_squared"] = p["r_squared"]
        for name, col in _read_csv(out_dir / spec["csv"]).items():
            values[f"csv.{name}"] = col
    else:
        lines = [ln for ln in stdout.splitlines()
                 if ln.startswith(("PASS", "FAIL"))]
        if len(lines) != len(summary["checks"]) or any(
                ln.startswith("FAIL") for ln in lines):
            problems.append("verify did not print PASS for every check")
        for check in summary["checks"]:
            if not check["passed"]:
                problems.append(f"check {check['check_id']} failed")
            kind = ("residual" if check["threshold"] == IDENTITY_TOL
                    else "check")
            values[f"{kind}.{check['check_id']}"] = check["value"]
        for fit in summary["decay_fits"]:
            values[f"fit.{fit['quantity_id']}.rate"] = fit["fitted_rate"]
    return values, problems


def compare(values: dict, reference: dict) -> list:
    """Mismatches between extracted numbers and the recorded reference."""
    problems = []
    for key in sorted(set(values) | set(reference)):
        if key not in values or key not in reference:
            problems.append(f"{key}: present on one side only")
            continue
        got, want = values[key], reference[key]
        if isinstance(want, list):
            if not isinstance(got, list) or len(got) != len(want):
                problems.append(f"{key}: length differs from reference")
                continue
            if want and isinstance(want[0], str):
                if got != want:
                    problems.append(f"{key}: differs from reference")
                continue
            scale = max((abs(w) for w in want), default=0.0)
            bad = [i for i, (g, w) in enumerate(zip(got, want))
                   if abs(g - w) > REF_RTOL * max(abs(w),
                                                  REF_COLUMN_FLOOR * scale)]
            if bad:
                i = bad[0]
                problems.append(f"{key}[{i}]: {got[i]!r} vs reference "
                                f"{want[i]!r}")
        elif got is None or want is None:
            if got != want:
                problems.append(f"{key}: {got!r} vs reference {want!r}")
        else:
            tol = (REF_RESIDUAL_ATOL if key.startswith("residual.")
                   else REF_RTOL * abs(want))
            if abs(got - want) > tol:
                problems.append(f"{key}: {got!r} vs reference {want!r}")
    return problems


def load_reference(workload: str, seed: int) -> dict | None:
    path = HERE / "reference.json"
    if not path.exists():
        return None
    return json.loads(path.read_text()).get(workload, {}).get(str(seed))


# ---------------------------------------------------------------- metrics

def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _scaled(invocations: list, key: str) -> list:
    """``key`` of each invocation at the reference host speed."""
    return [i[key] * i["speed"] for i in invocations if key in i]


def layer_metrics(specs: list, traces: list, overhead_s: float
                  ) -> tuple[dict, list, list]:
    """(metrics, absent metric names, counters that did not repeat)."""
    metrics, absent, unstable = {}, [], []
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        span, _, stat = name.rpartition(".")
        samples = []
        for tr in traces:
            spans, counters = tr["spans"], tr["counters"]
            if name == "trace.overhead_s":
                samples.append(overhead_s)
            elif name == "spectral.fft.points":
                samples.append(counters.get(name, 0)
                               if "spectral.fft" in tr["traced"] else None)
            elif name == "spectral.fft.gflop_computed":
                samples.append(counters.get("spectral.fft.flop", 0) / 1e9
                               if "spectral.fft" in tr["traced"] else None)
            elif name == "integrator.steps":
                samples.append(counters.get(name))
            elif name == "integrator.steps_per_s":
                busy = spans.get("integrator.evolve", {}).get("stepping_s")
                steps = counters.get("integrator.steps")
                samples.append(steps / busy if steps and busy else None)
            elif span not in tr["traced"]:
                samples.append(None)
            else:
                entry = spans.get(span)
                key = ("stepping_s" if (span, stat) == ("integrator.evolve",
                                                        "busy_s") else stat)
                samples.append(entry[key] if entry else 0)
        if not samples or any(s is None for s in samples):
            absent.append(name)
            value = 0.0
        elif unit == "count":  # exact counters must repeat
            value = samples[0]
            if len(set(samples)) > 1:
                unstable.append(f"{name}: {samples}")
        else:
            value = _median(samples)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, absent, unstable


def environment() -> dict:
    import numpy
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True,
                                 timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "git_sha": sha,
            "machine_settings": "unchanged: no CPU pinning, no cache drop, "
                                "no frequency or scheduler settings"}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 overrides: dict | None = None) -> dict:
    """Run one benchmark run and return its full report."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    start = time.monotonic()
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=results))
    try:
        out_dir = work / "out"
        out_dir.mkdir()
        config = work / "config.yaml"
        make_config(workload, seed, config, out_dir, overrides)
        invoke = Invoker(work, config, WORKLOADS[workload]["argv"],
                         start + DEADLINE_S)
        reference = None if overrides else load_reference(workload, seed)

        def checked(traced: bool) -> dict:
            for f in out_dir.iterdir():
                f.unlink()
            inv = invoke(trace=traced)
            if not inv["problems"]:
                values, problems = extract(workload, out_dir, inv["stdout"])
                if reference is not None:
                    problems += compare(values, reference)
                inv["problems"] += problems
            inv["traced"] = traced
            return inv

        warm = invoke(setup_only=True)  # fills bytecode and file caches
        if warm["problems"]:
            raise RuntimeError("set-up failed: " + "; ".join(warm["problems"]))
        setups = []
        if not trace:
            for _ in range(SETUP_SAMPLES):
                inv = invoke(setup_only=True)
                if inv["problems"]:
                    raise RuntimeError("set-up failed: "
                                       + "; ".join(inv["problems"]))
                setups.append(inv["setup_s"] * inv["speed"])
        invocations = []
        measure_start = time.monotonic()
        while True:
            if trace:  # alternate which side of the pair runs first
                order = (False, True) if len(invocations) % 4 == 0 \
                    else (True, False)
                invocations += [checked(t) for t in order]
            else:
                invocations.append(checked(False))
            if time.monotonic() - measure_start >= seconds:
                break

        failed = [i for i in invocations if i["problems"]]
        plain = [i for i in invocations if not i["traced"]]
        traced = [i for i in invocations if i["traced"]]
        walls = _scaled(plain, "wall_s")
        report = {"workload": workload, "seed": seed, "seconds": seconds,
                  "trace": trace, "environment": environment(),
                  "reference_compared": reference is not None,
                  "attempted": len(invocations), "failed": len(failed),
                  "error_rate": len(failed) / len(invocations),
                  "problems": [p for i in failed for p in i["problems"]]}
        if trace:
            traces = [i["trace"] for i in traced if "trace" in i]
            overhead = _median(_scaled(traced, "wall_s")) - _median(walls)
            metrics, absent, unstable = layer_metrics(
                bench["per_layer"], traces, overhead)
            report["absent"] = absent
            if unstable:
                report["problems"] += [f"exact counter did not repeat: {u}"
                                       for u in unstable]
            spans = [i["spans_file"] for i in traced if "trace" in i]
            if spans:
                shutil.copy(spans[-1], results / f"{workload}.spans.json")
        else:
            setups += _scaled(plain, "setup_s")
            e2e = {
                "wall_s": _median(walls),
                "cpu_s": _median(_scaled(plain, "cpu_s")),
                "setup_s": _median(setups),
                "peak_rss_mb": _median([i["peak_rss_mb"] for i in plain
                                        if "peak_rss_mb" in i]),
                "success_rate": 1.0 - report["error_rate"],
            }
            metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                       for m in bench["end_to_end"]}
            report["samples"] = {
                "wall_s": walls, "setup_s": setups,
                "raw_wall_s": [i["wall_s"] for i in plain if "wall_s" in i],
                "probe_s": [i["probe_s"] for i in plain if "probe_s" in i]}
        report["metrics"] = metrics
        report["correct"] = not report["problems"]
        return report
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int,
                        help="workload seed (default: the shipped config's)")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [ROOT / "BENCHMARK.json", ROOT / "src/ggkdv/cli.py",
              ROOT / WORKLOADS[args.workload]["config"]]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print(f"error: missing {', '.join(missing)}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    seed = shipped_seed(args.workload) if args.seed is None else args.seed
    try:
        report = run_workload(args.workload, seed, args.seconds,
                              bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    name = f"{args.workload}-seed{seed}-trace{int(args.trace)}.json"
    (HERE / "results" / name).write_text(json.dumps(report, indent=1) + "\n")
    env = report["environment"]
    print(f"# {args.workload} seed={seed} nproc={env['nproc']} "
          f"python={env['python']} numpy={env['numpy']} "
          f"sha={env['git_sha']} ({env['machine_settings']})")
    print(f"# reference values compared: {report['reference_compared']}")
    for problem in report["problems"]:
        print(f"# FAILED: {problem.splitlines()[-1] if problem else problem}")
    print(f"error_rate {report['error_rate']:.6g} (failed {report['failed']} "
          f"of {report['attempted']})")
    for metric, entry in report["metrics"].items():
        flag = " (absent)" if metric in report.get("absent", []) else ""
        print(f"{metric} {entry['value']:.6g} {entry['unit']}{flag}")
    print(json.dumps({"correct": report["correct"],
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
