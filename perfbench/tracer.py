"""Per-function tracing of the absqm modules, installed from outside the package.

`Tracer.install` wraps every public function and public method defined in an
absqm module and swaps the wrapper into every namespace that holds the
original: module globals (`absqm.dissipative.derivative`,
`absqm.cli.dissipative_run`), module-level dicts (`cli.COMMANDS`) and
`np.vectorize` objects (`aharonov_bohm._bessel_arr`).  Each wrapper adds to
its function's calls, busy time (wall time inside the call) and self time
(busy time minus the time of wrapped callees), so numpy/scipy time counts to
the absqm function that called it.  Stage functions also record a span
(name, start, end, parent span) kept in memory until the child exits.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time

# Functions recorded as spans: one per CLI command and per pipeline stage.
STAGES = frozenset({
    "cli.main",
    "dissipative.run",
    "dissipative.diagnostics",
    "schrodinger.evolve",
    "schrodinger.Trajectory.processes",
    "aharonov_bohm.wall_sweep",
    "kleingordon.nr_limit_compare",
})
STAGE_PREFIXES = ("cli.cmd_", "absolute.residual_")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_evolve(counts, args, kwargs, result):
    spec = _arg(args, kwargs, 1, "spec")
    counts["evolve.steps"] = counts.get("evolve.steps", 0) + max(
        int(round(spec.t_final / spec.dt)), 0
    )
    counts["evolve.snapshots"] = counts.get("evolve.snapshots", 0) + len(result)


def _count_wall_sweep(counts, args, kwargs, result):
    ladder = _arg(args, kwargs, 1, "phi0_ladder")
    counts["wall_sweep.rungs"] = counts.get("wall_sweep.rungs", 0) + len(ladder)


# Work counts taken from a stage's arguments and result, as bases of ratios.
HOOKS = {
    "schrodinger.evolve": _count_evolve,
    "aharonov_bohm.wall_sweep": _count_wall_sweep,
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # qualname -> [calls, busy_s, self_s]
        self.counts: dict[str, int] = {}
        self.spans: list[dict] = []
        self._frames: list[list] = []  # [wrapped-children time, span or None]
        self._open_spans: list[dict] = []

    def install(self, package) -> None:
        """Wrap the package's public functions everywhere they are referenced."""
        import numpy as np

        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        wrappers = {}  # id(original) -> wrapper
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{name}", obj)
                elif inspect.isclass(obj):
                    for attr, fn in list(vars(obj).items()):
                        if not attr.startswith("_") and inspect.isfunction(fn):
                            setattr(obj, attr, self._wrap(f"{layer}.{name}.{attr}", fn))
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    setattr(mod, name, wrappers[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and id(val) in wrappers:
                            obj[key] = wrappers[id(val)]
                elif isinstance(obj, np.vectorize) and id(obj.pyfunc) in wrappers:
                    obj.pyfunc = wrappers[id(obj.pyfunc)]
                    obj._ufunc.clear()  # ufuncs built from the original

    def _wrap(self, qualname: str, fn):
        stat = self.stats.setdefault(qualname, [0, 0.0, 0.0])
        frames, open_spans, spans = self._frames, self._open_spans, self.spans
        stage = qualname in STAGES or qualname.startswith(STAGE_PREFIXES)
        hook = HOOKS.get(qualname)
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            if frames and frames[-1][1] is not None:
                frames[-1][1]["first_child"].setdefault(qualname, t0)
            span = None
            if stage:
                span = {
                    "id": len(spans),
                    "parent": open_spans[-1]["id"] if open_spans else None,
                    "name": qualname,
                    "start": t0,
                    "first_child": {},
                }
                spans.append(span)
                open_spans.append(span)
            frame = [0.0, span]
            frames.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                frames.pop()
                busy = t1 - t0
                stat[0] += 1
                stat[1] += busy
                stat[2] += busy - frame[0]
                if frames:
                    frames[-1][0] += busy
                if span is not None:
                    span["end"] = t1
                    open_spans.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return wrapper

    def report(self) -> dict:
        return {"stats": self.stats, "counts": self.counts, "spans": self.spans}


# ------------------------------------------------------- derived metrics ---


def _stat(trace: dict, qualname: str) -> list:
    return trace["stats"].get(qualname, [0, 0.0, 0.0])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _evolve_setup_s(trace: dict) -> float:
    """Evolve entry to its first `rhs` call: stepper construction (the dense
    matrix build and LU on dirichlet grids)."""
    return sum(
        s["first_child"]["schrodinger.rhs"] - s["start"]
        for s in trace["spans"]
        if s["name"] == "schrodinger.evolve" and "schrodinger.rhs" in s["first_child"]
    )


def _us_per_call(trace: dict, qualname: str) -> float:
    calls, busy, _ = _stat(trace, qualname)
    return 1e6 * _ratio(busy, calls)


SPECIAL = {
    "dissipative.step_absolute.us_per_call": lambda t: _us_per_call(t, "dissipative.step_absolute"),
    "kleingordon.kg_step.us_per_call": lambda t: _us_per_call(t, "kleingordon.kg_step"),
    "schrodinger.evolve.self_us_per_step": lambda t: 1e6 * _ratio(
        _stat(t, "schrodinger.evolve")[2], t["counts"].get("evolve.steps", 0)
    ),
    "schrodinger.evolve.setup_s": _evolve_setup_s,
    "wavefield.extract_per_snapshot": lambda t: _ratio(
        _stat(t, "wavefield.extract_absolute")[0], t["counts"].get("evolve.snapshots", 0)
    ),
    "aharonov_bohm.solves_per_rung": lambda t: _ratio(
        _stat(t, "aharonov_bohm.solve_radial")[0], t["counts"].get("wall_sweep.rungs", 0)
    ),
}


def layer_metric(name: str, trace: dict) -> float:
    """One per-layer metric of a traced child: `<layer>.self_s`,
    `<function>.calls`, `<function>.busy_s`, or a named ratio in SPECIAL."""
    if name in SPECIAL:
        return float(SPECIAL[name](trace))
    qualname, _, kind = name.rpartition(".")
    if kind == "self_s" and "." not in qualname:
        return sum(v[2] for q, v in trace["stats"].items() if q.split(".")[0] == qualname)
    if kind == "calls":
        return float(_stat(trace, qualname)[0])
    if kind == "busy_s":
        return _stat(trace, qualname)[1]
    raise KeyError(f"no rule for per-layer metric {name!r}")
