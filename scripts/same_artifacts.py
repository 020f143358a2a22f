#!/usr/bin/env python3
"""Byte-identity check of two artifact trees.

    python3 scripts/same_artifacts.py OLD NEW

The two directories must hold the same set of files (compared by their
paths below the roots), and every file must be byte-equal, except each
`manifest.json`, which is compared as JSON without its `wall_time_s`.
Prints one line per missing file and per difference; exits 0 only when
there are none, 1 otherwise, and 2 if OLD or NEW is not a directory.

A differing CSV or JSON file whose text is the same but for its numbers
is listed by what moved: one line per CSV column that moved, with its
max |new - old| and that over the column's largest old magnitude, and
one line per JSON number that moved, with its old and new value.  A file
whose header, row count or any other text differs is named as `differs`.
"""

import argparse
import csv
import json
import sys
from pathlib import Path

MANIFEST = "manifest.json"


def files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def manifest(path: Path) -> dict:
    data = json.loads(path.read_text(encoding="utf-8"))
    data.pop("wall_time_s", None)
    return data


def same(old: Path, new: Path) -> bool:
    if old.name == MANIFEST:
        try:
            return manifest(old) == manifest(new)
        except ValueError:  # not JSON: then only equal bytes are the same
            pass
    return old.read_bytes() == new.read_bytes()


def leaves(data, key: str = ""):
    """(key path, value) of each leaf of a JSON document."""
    if isinstance(data, dict):
        for k, v in data.items():
            yield from leaves(v, f"{key}.{k}" if key else k)
    elif isinstance(data, list):
        for i, v in enumerate(data):
            yield from leaves(v, f"{key}[{i}]")
    else:
        yield key, data


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def numbers(path: Path):
    """The numbers of a CSV (by column) or JSON file (by key path) as
    {key: [values]}, and the rest of its text, which must not move; None
    when the file is neither."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        try:
            data = manifest(path) if path.name == MANIFEST else json.loads(text)
        except ValueError:
            return None
        cols, rest = {}, []
        for key, value in leaves(data):
            if is_number(value):
                cols[key] = [value]
            else:
                rest.append((key, value))
        return cols, rest
    if path.suffix != ".csv":
        return None
    lines = text.splitlines()
    rest = [line for line in lines if line.startswith("#")]
    rows = list(csv.reader(line for line in lines if not line.startswith("#")))
    if not rows:
        return {}, rest
    try:
        cols = {name: [float(row[i]) for row in rows[1:]]
                for i, name in enumerate(rows[0])}
    except (ValueError, IndexError):
        return None
    return cols, rest + [rows[0], len(rows)]


def moved(old: Path, new: Path, name: str) -> list[str]:
    """One line per column or JSON number of a differing file that moved,
    or `differs: name` when more than its numbers differ."""
    a, b = numbers(old), numbers(new)
    if a is None or b is None or a[1] != b[1] or a[0].keys() != b[0].keys():
        return [f"differs: {name}"]
    lines = []
    for key, xs in a[0].items():
        ys = b[0][key]
        if xs == ys:
            continue
        if old.suffix == ".json":
            lines.append(f"moved: {name}:{key} {xs[0]!r} -> {ys[0]!r}")
            continue
        delta = max(abs(y - x) for x, y in zip(xs, ys))
        scale = max(abs(x) for x in xs)
        rel = delta / scale if scale else float("inf")
        lines.append(f"moved: {name}:{key} max|d| {delta:.3e} rel {rel:.3e}")
    return lines or [f"differs: {name}"]


def differences(old: Path, new: Path) -> list[str]:
    """One line per file that is missing from a tree, and per column or
    number that moved in a file that differs (`moved`)."""
    a, b = files(old), files(new)
    lines = [f"only in {old}: {name}" for name in sorted(a - b)]
    lines += [f"only in {new}: {name}" for name in sorted(b - a)]
    for name in sorted(a & b):
        if not same(old / name, new / name):
            lines += moved(old / name, new / name, name)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    for root in (args.old, args.new):
        if not root.is_dir():
            parser.error(f"{root} is not a directory")
    lines = differences(args.old, args.new)
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
