"""absqm benchmark: CLI workloads timed in fresh child processes.

One run of one workload (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload wave --seed 1 --seconds 25 --trace 0

Every workload at once, untraced runs over several seeds plus one traced run
each, printing every metric by name with its unit and sample counts:

    python3 perfbench/run.py --all --seeds 1,2,3

A run starts one child per sample, one at a time: --seconds // SAMPLE_S
samples of the workload (at least one), then set-up-only children until
MIN_SETUPS set-ups are measured.  Sample k gets CLI seed
workloads.cli_seed(seed, k, n).  Every artifact is compared with its
reference under reference/; see README.md for the metrics and the known
defects.
With --trace 1 each sample runs twice, untraced then traced, and the two
must write byte-identical artifacts.  The last line of stdout is one JSON
object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import artifacts
import workloads
from tracer import layer_metric

CHILD = workloads.HERE / "child.py"
RUNS = workloads.ROOT / ".perfbench_runs"
BENCHMARK = workloads.ROOT / "BENCHMARK.json"
MIN_SETUPS = 5
CHILD_TIMEOUT_S = 120


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(workloads.SRC), env.get("PYTHONPATH")) if p
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(workloads.BLAS_THREADS)
    return env


def spawn(result: Path, log: Path, extra: list[str]) -> dict:
    """Run one child to completion and return what it wrote to `result`."""
    with log.open("w", encoding="utf-8") as out:
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), str(result), repr(time.monotonic()), *extra],
                env=child_env(), cwd=workloads.ROOT, stdout=out,
                stderr=subprocess.STDOUT, timeout=CHILD_TIMEOUT_S, check=False,
            )
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
            raise BenchError(f"child timed out after {CHILD_TIMEOUT_S} s; log {log}") from exc
    if proc.returncode != 0 or not result.exists():
        tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise BenchError(f"child exited {proc.returncode}:\n{tail}")
    return json.loads(result.read_text(encoding="utf-8"))


def run_child(work: Path, tag: str, workload: str | None = None, seed: int = 0,
              trace: int = 0) -> tuple[dict, Path]:
    out = work / tag
    out.mkdir(parents=True)
    extra = []
    if workload is not None:
        extra = ["--workload", workload, "--out-dir", str(out), "--seed", str(seed),
                 "--trace", str(trace)]
    return spawn(work / f"{tag}.result.json", work / f"{tag}.log", extra), out


def load_references(workload: str) -> dict:
    path = workloads.REFERENCE / f"{workload}.json"
    return json.loads(path.read_text(encoding="utf-8"))["commands"]


def reference_for(refs: dict, command: str, seeded: bool, seed: int) -> dict:
    return refs[command]["by_seed"][str(seed) if seeded else "any"]


def check_sample(workload: str, seed: int, out: Path, result: dict, refs: dict) -> dict:
    """Checks of one sample against the references.

    Each PASS/FAIL record and each reference artifact is one check.  A FAIL
    record counts as failed even when the reference has it too (a known
    defect); `problems` lists only departures from the reference, which make
    the run incorrect."""
    attempted = failed = 0
    problems: list[str] = []
    known: list[str] = []
    for (command, _, seeded), got in zip(workloads.WORKLOADS[workload], result["commands"]):
        ref = reference_for(refs, command, seeded, seed)
        n_checks = len(ref["records"]) + len(ref["artifacts"])
        attempted += n_checks
        if got["rc"] not in (0, 3):
            failed += n_checks
            problems.append(f"{command} seed {seed}: exit {got['rc']}")
            continue
        failed += sum(not r["passed"] for r in got["records"])
        status = {r["name"]: r["passed"] for r in got["records"]}
        ref_status = {r["name"]: r["passed"] for r in ref["records"]}
        if status != ref_status or got["rc"] != ref["rc"]:
            problems.append(f"{command} seed {seed}: exit {got['rc']} records {status}, "
                            f"reference exit {ref['rc']} records {ref_status}")
        known += [f"{command} {r['name']}" for r in got["records"]
                  if not r["passed"] and not ref_status.get(r["name"], True)]
        for name, fp in ref["artifacts"].items():
            path = out / command / name
            try:
                diffs = artifacts.compare(fp, artifacts.fingerprint(path), name)
            except (OSError, ValueError, IndexError) as exc:
                diffs = [f"{name}: unreadable ({exc})"]
            if name == artifacts.MANIFEST and artifacts.manifest_seed(out / command) != seed:
                diffs.append(f"{name}: seed is not {seed}")
            if diffs:
                failed += 1
                problems += [f"{command} seed {seed}: {d}" for d in diffs[:3]]
    return {"attempted": attempted, "failed": failed, "problems": problems, "known": known}


def artifact_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*")
               if p.is_file() and p.name != artifacts.MANIFEST)


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 per_layer: list[dict]) -> dict:
    """One benchmark run; returns its samples, checks and metrics."""
    refs = load_references(workload)
    work = RUNS / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run_child(work, "warmup")  # compiles bytecode and fills the file cache
    walls, wall_refs, works, setups, raw_setups, rss = [], [], [], [], [], []
    traced_walls, traces, sizes = [], [], []
    attempted = failed = 0
    problems: list[str] = []
    known: Counter = Counter()
    n = workloads.samples(workload, seconds)
    for index in range(n):
        s = workloads.cli_seed(seed, index, n)
        tags = [f"s{index:03d}"] + ([f"s{index:03d}-traced"] if trace else [])
        outs = []
        for tag in tags:
            result, out = run_child(work, tag, workload, s, int(tag.endswith("traced")))
            checks = check_sample(workload, s, out, result, refs)
            attempted += checks["attempted"]
            failed += checks["failed"]
            problems += checks["problems"]
            known.update(checks["known"])
            outs.append(out)
            if "trace" in result:
                traced_walls.append(result["wall_s"])
                traces.append(result["trace"])
                sizes.append(artifact_bytes(out))
            else:
                walls.append(result["wall_s"])
                wall_refs.append(result["wall_ref_s"])
                works.append(result["work_s"])
                setups.append(result["setup_s"])
                raw_setups.append(result["setup_raw_s"])
                rss.append(result["peak_rss_mb"])
        if trace:
            for command, _, _ in workloads.WORKLOADS[workload]:
                diff = artifacts.identical(outs[0] / command, outs[1] / command)
                if diff:
                    problems.append(f"{command} seed {s}: traced run differs in {diff}")
        for out in outs:
            shutil.rmtree(out)
    while len(setups) < MIN_SETUPS:
        result, out = run_child(work, f"setup{len(setups):02d}")
        setups.append(result["setup_s"])
        raw_setups.append(result["setup_raw_s"])
    run = {
        "workload": workload, "seed": seed, "trace": trace,
        "walls": walls, "wall_refs": wall_refs, "setups": setups, "raw_setups": raw_setups,
        "rss": rss,
        "attempted": attempted, "failed": failed, "problems": problems,
        "known": dict(known), "correct": not problems,
        "wall_s": statistics.median(walls),
        "setup_raw_s": statistics.median(raw_setups),
        "metrics": {
            "wall_ref_s": statistics.median(wall_refs),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rss),
        },
    }
    if trace:
        run["layers"] = layer_metrics(per_layer, traces, sizes, works, traced_walls)
        spans = RUNS / f"{workload}-seed{seed}-spans.json"
        spans.write_text(json.dumps([t["spans"] for t in traces]), encoding="utf-8")
        run["spans_file"] = str(spans.relative_to(workloads.ROOT))
    if not problems:
        shutil.rmtree(work)
    return run


def layer_metrics(per_layer, traces, sizes, works, traced_walls) -> dict:
    """Per-layer values; the overhead compares traced samples (which run
    without probes) with the probe-free part of the untraced ones."""
    out = {}
    for metric in per_layer:
        name = metric["name"]
        if name == "trace.overhead_frac":
            value = statistics.median(traced_walls) / statistics.median(works) - 1.0
        elif name == "cli.artifact_bytes":
            value = float(statistics.median(sizes))
        else:
            value = statistics.median(layer_metric(name, t) for t in traces)
        out[name] = value
    return out


# -------------------------------------------------------------- reporting ---


def tail_percentile(values: list[float]):
    """Highest integer percentile with at least ten samples above it, by
    nearest rank; None below 20 samples."""
    n = len(values)
    if n < 20:
        return None
    p = math.floor(100.0 * (n - 10) / n)
    return p, sorted(values)[math.ceil(p / 100.0 * n) - 1]


def describe_times(values: list[float]) -> str:
    tail = tail_percentile(values)
    if tail is None:
        return f"median of {len(values)} samples; a tail percentile needs >= 20"
    return f"median of {len(values)} samples; p{tail[0]} {tail[1]:.4f} s"


def print_run(run: dict, spec: dict) -> None:
    w = run["workload"]
    if run["trace"]:
        for m in spec["per_layer"]:
            print(f"{w:9s} {m['name']:40s} {run['layers'][m['name']]:14.6g} {m['unit']}")
        print(f"{w:9s} spans written to {run['spans_file']}")
    else:
        print(f"{w:9s} {'wall_s':12s} {run['wall_s']:12.6g} s   "
              f"(raw, unbounded; {describe_times(run['walls'])})")
        notes = {
            "wall_ref_s": describe_times(run["wall_refs"]),
            "setup_s": f"median of {len(run['setups'])} child starts; "
                       f"raw {run['setup_raw_s']:.4g} s",
            "peak_rss_mb": f"median of {len(run['rss'])} samples",
        }
        for m in spec["end_to_end"]:
            value = run["metrics"][m["name"]]
            print(f"{w:9s} {m['name']:12s} {value:12.6g} {m['unit']:3s} ({notes[m['name']]})")
    frac = run["failed"] / run["attempted"]
    print(f"{w:9s} {'fail_frac':12s} {frac:12.6g} ratio "
          f"({run['failed']} of {run['attempted']} checks failed)")
    for name, count in sorted(run["known"].items()):
        print(f"{w:9s} known defect: {name} FAIL in {count} sample(s), as in the reference")
    for problem in run["problems"]:
        print(f"{w:9s} INCORRECT: {problem}")


def result_line(run: dict, spec: dict) -> str:
    if run["trace"]:
        metrics = {m["name"]: {"value": run["layers"][m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": run["metrics"][m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    return json.dumps({"correct": run["correct"], "attempted": run["attempted"],
                       "failed": run["failed"], "metrics": metrics})


def spread(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def environment() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": workloads.BLAS_THREADS,
    }


def run_all(seeds: list[int], seconds: float, spec: dict, baseline: Path | None) -> bool:
    summary = {}
    for w in workloads.WORKLOADS:
        runs = [run_workload(w, s, seconds, 0, spec["per_layer"]) for s in seeds]
        for run in runs:
            print_run(run, spec)
        traced = run_workload(w, seeds[0], seconds, 1, spec["per_layer"])
        print_run(traced, spec)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        known: Counter = Counter()
        for r in runs:
            known.update(r["known"])
        entry = {"runs": len(runs), "attempted": attempted, "failed": failed,
                 "fail_frac": failed / attempted, "known_defects": dict(known),
                 "correct": all(r["correct"] for r in runs) and traced["correct"],
                 "end_to_end": {}, "per_layer": traced["layers"]}
        pooled = {"wall_ref_s": [v for r in runs for v in r["wall_refs"]],
                  "setup_s": [v for r in runs for v in r["setups"]],
                  "peak_rss_mb": [v for r in runs for v in r["rss"]]}
        rows = [("wall_s", "s", [r["wall_s"] for r in runs], [v for r in runs for v in r["walls"]]),
                ("setup_raw_s", "s", [r["setup_raw_s"] for r in runs],
                 [v for r in runs for v in r["raw_setups"]])]
        rows += [(m["name"], m["unit"], [r["metrics"][m["name"]] for r in runs], pooled[m["name"]])
                 for m in spec["end_to_end"]]
        for name, unit, per_run, samples in rows:
            q1, med, q3 = spread(per_run)
            e = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                 "unit": unit, "samples": len(samples)}
            tail = tail_percentile(samples)
            if tail is not None:
                e[f"p{tail[0]}"] = tail[1]
            entry["end_to_end"][name] = e
        summary[w] = entry
    print("\nsummary over runs (median of the per-run medians; spread = IQR / median)")
    for w, entry in summary.items():
        for name, e in entry["end_to_end"].items():
            tail = "".join(f" {k} {v:.6g}" for k, v in e.items() if k.startswith("p"))
            print(f"{w:9s} {name:12s} {e['median']:12.6g} {e['unit']:3s} spread "
                  f"{e['spread']:.4f} over {entry['runs']} runs, {e['samples']} samples{tail}")
        print(f"{w:9s} {'fail_frac':12s} {entry['fail_frac']:12.6g} ratio "
              f"({entry['failed']} of {entry['attempted']} checks)"
              f"{'' if entry['correct'] else '  INCORRECT'}")
    if baseline is not None:
        baseline.write_text(json.dumps({
            "seeds": seeds, "held_out_seed": workloads.HELD_OUT_SEED,
            "run_seconds": seconds, "environment": environment(), "workloads": summary,
        }, indent=2) + "\n", encoding="utf-8")
    return all(e["correct"] for e in summary.values())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.BASELINE_SEEDS[0])
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seeds", default="1", help="comma-separated seeds for --all")
    parser.add_argument("--baseline", type=Path, help="with --all, write results here")
    args = parser.parse_args()
    sys.stdout.reconfigure(line_buffering=True)
    if not (workloads.SRC / "absqm" / "cli.py").is_file():
        print(f"no absqm sources under {workloads.SRC}", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    try:
        if args.all:
            ok = run_all([int(s) for s in args.seeds.split(",")], seconds, spec, args.baseline)
            return 0 if ok else 1
        if args.workload is None:
            parser.error("give --workload or --all")
        run = run_workload(args.workload, args.seed, seconds, args.trace, spec["per_layer"])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print_run(run, spec)
    print(result_line(run, spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
