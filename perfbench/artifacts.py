"""Reference fingerprints of CLI artifacts and the comparison behind `correct`.

A CSV artifact is kept as its header, its '#' metadata line, its row count
and, per column, min / max / mean and SAMPLES evenly spaced values.  A JSON
artifact is kept whole.  Values match within RTOL of the column's largest
magnitude (CSV) or RTOL of the value plus ATOL (JSON numbers); headers,
strings and booleans match exactly.  manifest.json is compared without its
`wall_time_s` and `seed` (the seed is checked against the one passed), and
keys an artifact gains beyond its reference are not mismatches.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

RTOL = 1e-6
ATOL = 1e-8
SAMPLES = 8
MANIFEST = "manifest.json"
MANIFEST_VOLATILE = ("wall_time_s", "seed")


def list_artifacts(out_dir: Path) -> list[str]:
    return sorted(p.name for p in out_dir.iterdir() if p.suffix in (".csv", ".json"))


def fingerprint(path: Path) -> dict:
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        data = json.loads(text)
        if path.name == MANIFEST:
            for key in MANIFEST_VOLATILE:
                data.pop(key, None)
        return {"json": data}
    lines = text.splitlines()
    meta = None
    if lines and lines[0].startswith("# "):
        meta = json.loads(lines[0][2:])
        lines = lines[1:]
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    columns = list(zip(*rows)) if rows else [()] * len(header)
    return {
        "meta": meta,
        "header": header,
        "rows": len(rows),
        "columns": [_column(col) for col in columns],
    }


def _column(col) -> dict:
    n = len(col)
    if n == 0:
        return {"min": 0.0, "max": 0.0, "mean": 0.0, "samples": []}
    picks = sorted({round(i * (n - 1) / (SAMPLES - 1)) for i in range(SAMPLES)})
    return {
        "min": min(col),
        "max": max(col),
        "mean": math.fsum(col) / n,
        "samples": [col[i] for i in picks],
    }


def _close(ref: float, new: float, tol: float) -> bool:
    if ref == new or (math.isnan(ref) and math.isnan(new)):
        return True
    return abs(new - ref) <= tol


def _compare_json(ref, new, where: str, out: list[str]) -> None:
    if isinstance(ref, dict):
        if not isinstance(new, dict):
            out.append(f"{where}: expected a mapping")
            return
        for key, val in ref.items():
            if key not in new:
                out.append(f"{where}.{key}: missing")
            else:
                _compare_json(val, new[key], f"{where}.{key}", out)
    elif isinstance(ref, list):
        if not isinstance(new, list) or len(new) != len(ref):
            out.append(f"{where}: expected a list of {len(ref)}")
            return
        for i, (a, b) in enumerate(zip(ref, new)):
            _compare_json(a, b, f"{where}[{i}]", out)
    elif isinstance(ref, float) or (isinstance(ref, int) and not isinstance(ref, bool)):
        if isinstance(new, bool) or not isinstance(new, (int, float)) or not _close(
            float(ref), float(new), RTOL * abs(ref) + ATOL
        ):
            out.append(f"{where}: {new!r} != reference {ref!r}")
    elif ref != new:
        out.append(f"{where}: {new!r} != reference {ref!r}")


def compare(ref: dict, new: dict, name: str) -> list[str]:
    """Mismatches of one artifact against its reference; empty when it matches."""
    out: list[str] = []
    if "json" in ref:
        _compare_json(ref["json"], new.get("json"), name, out)
        return out
    if new.get("header") != ref["header"]:
        return [f"{name}: header {new.get('header')} != {ref['header']}"]
    if new["rows"] != ref["rows"]:
        return [f"{name}: {new['rows']} rows != {ref['rows']}"]
    _compare_json(ref["meta"], new["meta"], f"{name}#meta", out)
    for col, r, c in zip(ref["header"], ref["columns"], new["columns"]):
        tol = RTOL * max(abs(r["min"]), abs(r["max"]))
        pairs = [(r["min"], c["min"]), (r["max"], c["max"]), (r["mean"], c["mean"])]
        pairs += list(zip(r["samples"], c["samples"]))
        bad = [(a, b) for a, b in pairs if not _close(a, b, tol)]
        if bad:
            out.append(f"{name}:{col}: {bad[0][1]!r} != reference {bad[0][0]!r}")
    return out


def manifest_seed(out_dir: Path):
    path = out_dir / MANIFEST
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8")).get("seed")


def identical(dir_a: Path, dir_b: Path) -> list[str]:
    """Files that differ byte for byte between two output directories, the
    manifest compared without its wall time."""
    names = sorted({p.name for p in dir_a.iterdir()} | {p.name for p in dir_b.iterdir()})
    diff = []
    for name in names:
        a, b = dir_a / name, dir_b / name
        if not (a.exists() and b.exists()):
            diff.append(name)
        elif name == MANIFEST:
            ja = json.loads(a.read_text(encoding="utf-8"))
            jb = json.loads(b.read_text(encoding="utf-8"))
            ja.pop("wall_time_s", None)
            jb.pop("wall_time_s", None)
            if ja != jb:
                diff.append(name)
        elif a.read_bytes() != b.read_bytes():
            diff.append(name)
    return diff
