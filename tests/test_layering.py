"""Import layering of the package modules, read from their source."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "absqm"


def imported_modules(path: Path) -> set[str]:
    """The absqm modules a source file imports, by module name, whichever
    import form names them."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("absqm."))
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 0 and base != "absqm" and not base.startswith("absqm."):
                continue
            base = base.removeprefix("absqm").lstrip(".")
            if base:
                names.add(base.split(".")[0])
            else:  # from . import schrodinger / from absqm import schrodinger
                names.update(a.name for a in node.names)
    return names


def test_diagnostics_do_not_import_the_stepper():
    """The residual series and the Ehrenfest check take processes; they reach
    no wave-function stepper."""
    imports = {p.stem: imported_modules(p) for p in SRC.glob("*.py")}
    for module in ("absolute", "observables"):
        assert "schrodinger" not in imports[module], module


@pytest.mark.parametrize("source, want", [
    ("from .schrodinger import Trajectory", {"schrodinger"}),
    ("from . import schrodinger, numerics", {"schrodinger", "numerics"}),
    ("from absqm.schrodinger import evolve", {"schrodinger"}),
    ("from absqm import schrodinger", {"schrodinger"}),
    ("import absqm.schrodinger", {"schrodinger"}),
    ("from .schrodinger.sub import x", {"schrodinger"}),
    ("import numpy as np\nfrom dataclasses import dataclass", set()),
], ids=["from-relative", "import-relative", "from-absolute", "import-from-package",
        "import-dotted", "from-submodule", "other-packages"])
def test_imported_modules_reads_every_import_form(tmp_path, source, want):
    path = tmp_path / "m.py"
    path.write_text(source, encoding="utf-8")
    assert imported_modules(path) == want
