"""Import layering of the package modules, read from their source."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "absqm"


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


# The scopes (module, top-level definition) that may use a Fourier transform
# module, each with the reason.  Every other periodic Fourier multiplier goes
# through `numerics.fourier_multiply`.
FOURIER_SCOPES = {
    ("numerics", "Grid"): "the wavenumbers k, from fftfreq",
    ("numerics", "fourier_multiply"): "the one transform-multiply-invert round trip",
    ("numerics", "antiderivative_periodic"): "divides by ik, holding the k = 0 mode at 0",
    ("dissipative", "_DampedOperator"): "real-FFT workspace transforms with out=",
    ("kleingordon", "_propagate"): "one stacked transform pair around per-mode rotations",
    ("kleingordon", "_bandwidth"): "reads the spectrum, with no inverse",
}


def fourier_uses(source: str) -> list[tuple[str, str]]:
    """(top-level definition, kind) of each use of a Fourier transform module
    in a source: kind "fft" for an `np.fft`, `numpy.fft` or `scipy.fft`
    expression or an import of one, and "fftfreq" or "rfftfreq" for a
    reference to that name."""
    uses = []
    for top in ast.parse(source).body:
        scope = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            name = getattr(node, "attr", None) or getattr(node, "id", None)
            if name in ("fftfreq", "rfftfreq"):
                uses.append((scope, name))
            if (
                (isinstance(node, ast.Attribute) and node.attr == "fft"
                 and isinstance(node.value, ast.Name)
                 and node.value.id in ("np", "numpy", "scipy"))
                or (isinstance(node, ast.alias) and "fft" in node.name.split("."))
                or (isinstance(node, ast.ImportFrom)
                    and "fft" in (node.module or "").split("."))
            ):
                uses.append((scope, "fft"))
    return uses


def test_fourier_transforms_only_in_the_allowed_scopes():
    """No module outside `numerics` builds its own wavenumbers or multiplier
    round trip: `fftfreq` and `rfftfreq` appear only in `Grid`, and the
    transforms only in the scopes of FOURIER_SCOPES."""
    stray = [
        (path.stem, scope, kind)
        for path in sorted(SRC.glob("*.py"))
        for scope, kind in fourier_uses(path.read_text(encoding="utf-8"))
        if (path.stem, scope) not in FOURIER_SCOPES
        or (kind != "fft" and (path.stem, scope) != ("numerics", "Grid"))
    ]
    assert stray == []


@pytest.mark.parametrize("source, want", [
    ("import numpy as np\ny = np.fft.ifft(x)", [("<module>", "fft")]),
    ("def f(x):\n    return numpy.fft.fft(x)", [("f", "fft")]),
    ("class G:\n    k = np.fft.rfftfreq(8)", [("G", "fft"), ("G", "rfftfreq")]),
    ("def f():\n    from numpy import fft", [("f", "fft")]),
    ("import numpy.fft", [("<module>", "fft")]),
    ("from scipy.fft import dst", [("<module>", "fft")]),
    ("k = fftfreq(8)", [("<module>", "fftfreq")]),
    ("import numpy as np\ny = np.linalg.norm(x)", []),
], ids=["np-attribute", "numpy-in-function", "freq-in-class", "from-numpy",
        "import-dotted", "from-scipy", "bare-name", "other-module"])
def test_fourier_uses_reads_every_form(source, want):
    assert sorted(fourier_uses(source)) == sorted(want)


def uses_scipy_special(source: str) -> bool:
    """Whether a source imports `scipy.special`, in any import form, or
    reads it as the attribute `scipy.special`."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            module = (node.module or "").split(".")
            if module[:2] == ["scipy", "special"] or (
                    module == ["scipy"] and any(a.name == "special" for a in node.names)):
                return True
        elif isinstance(node, ast.Import):
            if any(a.name.split(".")[:2] == ["scipy", "special"] for a in node.names):
                return True
        elif (isinstance(node, ast.Attribute) and node.attr == "special"
              and isinstance(node.value, ast.Name) and node.value.id == "scipy"):
            return True
    return False


def test_bessel_functions_only_in_aharonov_bohm():
    """The Aharonov-Bohm solver is the one user of Bessel functions and
    evaluates them itself: no other module reaches `scipy.special`."""
    users = [path.stem for path in sorted(SRC.glob("*.py"))
             if uses_scipy_special(path.read_text(encoding="utf-8"))]
    assert users == ["aharonov_bohm"]


@pytest.mark.parametrize("source, want", [
    ("from scipy import special", True),
    ("from scipy.special import jv", True),
    ("import scipy.special", True),
    ("def f():\n    from scipy import linalg, special as sp", True),
    ("import scipy\ny = scipy.special.jv(0.0, 1.0)", True),
    ("from scipy import linalg\nimport scipy.optimize", False),
    ("from .special import jv\nspecial = 1", False),
], ids=["from-scipy", "from-submodule", "import-dotted", "in-function",
        "attribute", "other-submodules", "other-names"])
def test_uses_scipy_special_reads_every_form(source, want):
    assert uses_scipy_special(source) is want


def test_nyquist_rule_written_once():
    """A Fourier mode is zeroed by storing 0 into a subscript; only `Grid.ik`
    does that."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Assign)
                        and isinstance(node.value, ast.Constant)
                        and node.value.value == 0
                        and any(isinstance(t, ast.Subscript) for t in node.targets)):
                    found.append((path.stem, getattr(top, "name", "<module>")))
    assert found == [("numerics", "Grid")]


# The scopes (module, top-level definition) that may call `schrodinger.rhs`,
# each with the reason.  Every other process of a Schrodinger state comes
# from `free_processes`, so no stepper or command computes a right-hand side
# of its own.
RHS_SCOPES = {
    ("schrodinger", "free_processes"): "the one Schrodinger-side block extraction",
    ("cli", "cmd_simulate"): "the residual norms read d psi/dt and its derivative",
}


def rhs_uses(source: str, module: str) -> list[str]:
    """The top-level definitions of a source that refer to `schrodinger.rhs`:
    the bare name in `schrodinger` itself or under the name a module imports
    it as, or the attribute `rhs` of a name bound to `schrodinger`."""
    tree = ast.parse(source)
    names = {"rhs"} if module == "schrodinger" else set()
    modules = {"schrodinger"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = (node.module or "").split(".")
            for a in node.names:
                if base[-1] == "schrodinger" and a.name == "rhs":
                    names.add(a.asname or a.name)
                elif a.name == "schrodinger":
                    modules.add(a.asname or a.name)
    uses = []
    for top in tree.body:
        scope = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if (
                (isinstance(node, ast.Name) and node.id in names)
                or (isinstance(node, ast.Attribute) and node.attr == "rhs"
                    and (getattr(node.value, "id", None) in modules
                         or getattr(node.value, "attr", None) == "schrodinger"))
            ):
                uses.append(scope)
    return uses


def test_rhs_called_only_in_the_allowed_scopes():
    """The snapshot blocks carry states only: `schrodinger.rhs` is called by
    `free_processes` and by `simulate`'s residual norms, nowhere else."""
    stray = [
        (path.stem, scope)
        for path in sorted(SRC.glob("*.py"))
        for scope in rhs_uses(path.read_text(encoding="utf-8"), path.stem)
        if (path.stem, scope) not in RHS_SCOPES
    ]
    assert stray == []


@pytest.mark.parametrize("source, module, want", [
    ("def rhs(w):\n    pass\ndef f(w):\n    return rhs(w)", "schrodinger", ["f"]),
    ("from .schrodinger import rhs\ndef f(w):\n    return rhs(w)", "cli", ["f"]),
    ("from absqm.schrodinger import rhs as r\ny = r(w)", "cli", ["<module>"]),
    ("from . import schrodinger as s\ndef f(w):\n    return s.rhs(w)", "cli", ["f"]),
    ("import absqm.schrodinger\ny = absqm.schrodinger.rhs(w)", "cli", ["<module>"]),
    ("def f(ws):\n    return list(map(rhs, ws))", "schrodinger", ["f"]),
    ("from .dissipative import _rhs\ndef f(s):\n    return _rhs(s)", "cli", []),
    ("def f(rhs):\n    return rhs(x)", "cli", []),
], ids=["own-module", "from-relative", "from-absolute-as", "module-alias",
        "import-dotted", "passed-as-callback", "other-rhs", "unrelated-name"])
def test_rhs_uses_reads_every_form(source, module, want):
    assert rhs_uses(source, module) == want


# Attributes that hold one row each of a wave or process block.  A
# comprehension that reads one of them off its own loop variable rebuilds a
# stack that a block already holds.
ROW_ATTRS = {"psi", "dpsi_dt", "rho", "u", "eps", "j", "r_amp", "flagged", "time"}
RESTACK_MODULES = ("cli", "observables", "absolute", "schrodinger", "wavefield",
                   "kleingordon", "dissipative")


def restacks(source: str) -> list[str]:
    """The top-level definitions of a source holding a list, set or
    generator comprehension whose element reads a ROW_ATTRS attribute of one
    of the comprehension's own loop variables."""
    found = []
    for top in ast.parse(source).body:
        scope = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if not isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
                continue
            loop_vars = {n.id for gen in node.generators for n in ast.walk(gen.target)
                         if isinstance(n, ast.Name)}
            if any(isinstance(a, ast.Attribute) and a.attr in ROW_ATTRS
                   and isinstance(a.value, ast.Name) and a.value.id in loop_vars
                   for a in ast.walk(node.elt)):
                found.append(scope)
    return found


def test_blocks_are_not_restacked():
    """A block is one stacked `WaveField`, `AbsoluteProcess`, `KGField` or
    `DissipativeState`: the modules read its stacks and build none from
    per-row objects."""
    found = {
        (module, scope)
        for module in RESTACK_MODULES
        for scope in restacks((SRC / f"{module}.py").read_text(encoding="utf-8"))
    }
    assert found == set()


@pytest.mark.parametrize("source, want", [
    ("def f(ws):\n    return np.array([w.psi for w in ws])", ["f"]),
    ("y = [p.j * 2.0 for p in procs]", ["<module>"]),
    ("def f(ps):\n    return np.stack(p.rho for p in ps)", ["f"]),
    ("def f(a, b):\n    return [x.u - y.u for x, y in zip(a, b)]", ["f"]),
    ("def f(ts):\n    return {s.time for s in ts}", ["f"]),
    ("class C:\n    def g(self, ps):\n        return [p.flagged for p in ps]", ["C"]),
    ("def f(block):\n    return block.psi", []),
    ("def f(ws):\n    return [w.grid for w in ws]", []),
    ("def f(p, ks):\n    return [p.psi[k] for k in ks]", []),
], ids=["list-psi", "module-level", "generator", "tuple-target", "set-time",
        "method", "no-comprehension", "shared-attribute", "other-name"])
def test_restacks_reads_every_form(source, want):
    assert restacks(source) == want


def object_setattr_calls(source: str) -> list[str]:
    """The top-level definitions of a source that call
    `object.__setattr__`, the way into a frozen dataclass."""
    return [
        getattr(top, "name", "<module>")
        for top in ast.parse(source).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__setattr__"
        and getattr(node.func.value, "id", None) == "object"
    ]


def test_no_frozen_state_is_written_into():
    """Every state and block is a plain dataclass, so no module writes into
    a frozen one behind its back."""
    found = {
        (path.stem, scope)
        for path in sorted(SRC.glob("*.py"))
        for scope in object_setattr_calls(path.read_text(encoding="utf-8"))
    }
    assert found == set()


@pytest.mark.parametrize("source, want", [
    ("def f(s):\n    object.__setattr__(s, 'x', 1)", ["f"]),
    ("class C:\n    def g(self):\n        object.__setattr__(self, 'x', 1)", ["C"]),
    ("def f(s):\n    setattr(s, 'x', 1)", []),
    ("def f(s):\n    s.__setattr__('x', 1)", []),
], ids=["function", "method", "builtin-setattr", "own-setattr"])
def test_object_setattr_calls_reads_every_form(source, want):
    assert object_setattr_calls(source) == want


def unused_imports(source: str) -> list[str]:
    """The names bound by the module-level imports of a source that nothing
    else in it refers to.  `from __future__` imports bind no name."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_every_import_is_used():
    """Each module-level import of the package, its tests and its scripts is
    referenced in its module; `__init__` is skipped, since it re-exports."""
    paths = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    paths += [*(ROOT / "tests").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    unused = {
        path.relative_to(ROOT).as_posix(): names
        for path in sorted(paths)
        if (names := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}


@pytest.mark.parametrize("source, want", [
    ("import numpy as np\ny = np.pi", []),
    ("import numpy as np", ["np"]),
    ("from a import b, c\nb()", ["c"]),
    ("from a import b as c\nc", []),
    ("import os.path\nos.getcwd()", []),
    ("from a import b\ndef f(x: b):\n    pass", []),
    ("from a import b\ny = x.b", ["b"]),
    ("from __future__ import annotations", []),
    ("def f():\n    import os", []),
], ids=["used", "unused-alias", "one-of-two", "from-as", "import-dotted",
        "annotation", "attribute-only", "future", "function-level"])
def test_unused_imports_reads_every_form(source, want):
    assert unused_imports(source) == want
