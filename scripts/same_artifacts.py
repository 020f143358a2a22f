#!/usr/bin/env python3
"""Byte-identity check of two artifact trees.

    python3 scripts/same_artifacts.py OLD NEW

The two directories must hold the same set of files (compared by their
paths below the roots), and every file must be byte-equal, except each
`manifest.json`, which is compared as JSON without its `wall_time_s`.
Prints one line per differing or missing file; exits 0 only when there
are none, 1 otherwise, and 2 if OLD or NEW is not a directory.
"""

import argparse
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


def differences(old: Path, new: Path) -> list[str]:
    """One line per file that is missing from a tree or differs."""
    a, b = files(old), files(new)
    lines = [f"only in {old}: {name}" for name in sorted(a - b)]
    lines += [f"only in {new}: {name}" for name in sorted(b - a)]
    lines += [f"differs: {name}" for name in sorted(a & b)
              if not same(old / name, new / name)]
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
