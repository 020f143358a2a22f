"""Record the reference artifacts that the benchmark compares every run with.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs each workload once per CLI seed of the pool (0 .. SEED_POOL-1) when one
of its commands is seeded, else for seeds 0 and 1, and writes
reference/<workload>.json: per command and seed, the exit code, the
PASS/FAIL records and a fingerprint of every CSV/JSON artifact.  An unseeded
command must give matching artifacts for every seed, or recording stops.
Run it only on a commit whose outputs are known good; the committed files
come from the seed commit of the benchmark.
"""

from __future__ import annotations

import json
import shutil
import sys

import artifacts
import workloads
from run import RUNS, BenchError, run_child


def record(workload: str) -> dict:
    commands = workloads.WORKLOADS[workload]
    seeded_any = any(seeded for _, _, seeded in commands)
    seeds = range(workloads.SEED_POOL) if seeded_any else range(2)
    out = {c: {"seeded": seeded, "by_seed": {}} for c, _, seeded in commands}
    work = RUNS / f"reference-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for seed in seeds:
        result, out_dir = run_child(work, f"seed{seed:02d}", workload, seed)
        for (command, _, seeded), got in zip(commands, result["commands"]):
            d = out_dir / command
            entry = {
                "rc": got["rc"],
                "records": got["records"],
                "artifacts": {n: artifacts.fingerprint(d / n) for n in artifacts.list_artifacts(d)},
            }
            by_seed = out[command]["by_seed"]
            if seeded:
                by_seed[str(seed)] = entry
            elif "any" not in by_seed:
                by_seed["any"] = entry
            else:
                ref = by_seed["any"]
                diffs = [m for n, fp in ref["artifacts"].items()
                         for m in artifacts.compare(fp, entry["artifacts"].get(n, {}), n)]
                if diffs or entry["rc"] != ref["rc"]:
                    raise BenchError(f"{workload}/{command} depends on the seed: {diffs[:3]}")
        fails = [f"{c['command']}:{r['name']}" for c in result["commands"]
                 for r in c["records"] if not r["passed"]]
        print(f"{workload} seed {seed}: {result['wall_s']:.2f} s, FAIL {fails}", flush=True)
        shutil.rmtree(out_dir)
    shutil.rmtree(work)
    return {
        "workload": workload,
        "rtol": artifacts.RTOL,
        "atol": artifacts.ATOL,
        "samples_per_column": artifacts.SAMPLES,
        "commands": out,
    }


def main(argv: list[str]) -> int:
    for workload in argv or list(workloads.WORKLOADS):
        ref = record(workload)
        path = workloads.REFERENCE / f"{workload}.json"
        path.write_text(json.dumps(ref, separators=(",", ":")) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(workloads.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
