"""One benchmark sample in a fresh interpreter.

    child.py RESULT T_SPAWN [--workload NAME --out-dir DIR --seed N --trace 0|1]

T_SPAWN is the parent's time.monotonic() just before it started this process,
so set-up covers interpreter start and the imports of numpy, scipy and
absqm.cli.  Without --workload the child only measures set-up.  With it, the
child runs the workload's CLI commands through absqm.cli.main, captures the
PASS/FAIL record lines main logs, and writes everything to RESULT as JSON.

An untraced sample also probes the host's speed: every PROBE_EVERY_S a
SIGALRM handler times a fixed FFT kernel on the main thread, between the
workload's own bytecodes, and once more before and after the commands.  The
probes' time is taken out of the sample's wall time, and `wall_ref_s` scales
what is left by PROBE_REF_S / (mean probe time): the sample's time on a host
where the probe takes PROBE_REF_S.  The probe does not use absqm, so a change
to the program moves `wall_ref_s` as much as the raw wall time, while a host
that runs everything slower for a while moves it less.  `setup_s` is scaled
the same way, by SETUP_PROBES probes taken right after set-up.
"""

import time

import absqm.cli

READY = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402

PROBE_EVERY_S = 0.1
PROBE_REPS = 40
SETUP_PROBES = 20
# Mean probe time on the host of baseline.json; only sets the scale of
# wall_ref_s and setup_s.
PROBE_REF_S = 2.5e-3
_PROBE_X = np.random.default_rng(0).standard_normal(1024) + 0j


def probe() -> float:
    """Time a fixed kernel: n=1024 complex FFT round trips, as the spectral
    derivatives do."""
    t0 = time.perf_counter()
    for _ in range(PROBE_REPS):
        np.fft.ifft(np.fft.fft(_PROBE_X) * 1j)
    return time.perf_counter() - t0


class HostProbe:
    """Probes the host's speed on a timer while the workload runs."""

    def __init__(self):
        self.inside = []  # probes that ran inside the timed interval

    def __enter__(self):
        self.before = probe()
        signal.signal(signal.SIGALRM, lambda signum, frame: self.inside.append(probe()))
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.after = probe()

    def report(self, wall: float) -> dict:
        work = wall - sum(self.inside)
        mean = statistics.fmean([self.before, *self.inside, self.after])
        return {"work_s": work, "probe_s": mean, "probes": len(self.inside) + 2,
                "wall_ref_s": work * PROBE_REF_S / mean}


class RecordCapture(logging.Handler):
    """Keeps the `<name> PASS|FAIL (measured, bound)` records main logs."""

    def __init__(self):
        super().__init__(logging.INFO)
        self.records = []

    def emit(self, record):
        args = record.args
        if (record.name == "absqm" and isinstance(args, tuple) and len(args) == 4
                and args[1] in ("PASS", "FAIL")):
            self.records.append({
                "name": args[0], "passed": args[1] == "PASS",
                "measured": float(args[2]), "bound": float(args[3]),
            })


def run_workload(args) -> dict:
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(absqm)
    capture = RecordCapture()
    root = logging.getLogger()
    root.addHandler(capture)  # also keeps main's basicConfig from logging to stderr
    root.setLevel(logging.INFO)
    commands = []
    host = HostProbe() if tracer is None else None  # probes would count in the trace
    with host or contextlib.nullcontext():
        t0 = time.perf_counter()
        for command, config, _ in workloads.WORKLOADS[args.workload]:
            capture.records = []
            argv = [
                command,
                "--config", str(workloads.CONFIGS / config),
                "--out-dir", str(Path(args.out_dir) / command),
                "--seed", str(args.seed),
            ]
            try:
                rc = absqm.cli.main(argv)
            except Exception:  # a raising command fails all of its checks
                traceback.print_exc()
                rc = None
            commands.append({"command": command, "rc": rc, "records": capture.records})
        wall = time.perf_counter() - t0
    result = {"wall_s": wall, "commands": commands}
    if host is not None:
        result.update(host.report(wall))
    if tracer is not None:
        result["trace"] = tracer.report()
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("result")
    parser.add_argument("t_spawn", type=float)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--out-dir")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    module = Path(absqm.cli.__file__).resolve()
    if workloads.SRC.resolve() not in module.parents:
        print(f"absqm imported from {module}, not from {workloads.SRC}", file=sys.stderr)
        return 2
    setup = READY - args.t_spawn
    probe()  # the first FFT in a process also plans it
    probe_s = statistics.fmean(probe() for _ in range(SETUP_PROBES))
    result = {"setup_raw_s": setup, "setup_s": setup * PROBE_REF_S / probe_s}
    if args.workload:
        result.update(run_workload(args))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
