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


# The scopes (module, top-level definition) that may use a Fourier transform,
# each with the reason.  Every other periodic Fourier multiplier goes through
# `numerics.fourier_multiply`.
FOURIER_SCOPES = {
    ("numerics", "Grid"): "the wavenumbers k, from fftfreq",
    ("numerics", "_pocketfft"): "loads scipy's compiled pocketfft kernel",
    ("numerics", "cfft"): "numpy.fft.fft on the kernel",
    ("numerics", "icfft"): "numpy.fft.ifft on the kernel",
    ("numerics", "rfft"): "numpy.fft.rfft on the kernel",
    ("numerics", "irfft"): "numpy.fft.irfft on the kernel",
    ("numerics", "fourier_multiply"): "the one transform-multiply-invert round trip",
    ("numerics", "antiderivative_periodic"): "divides by ik, holding the k = 0 mode at 0",
    ("dissipative", "_DampedOperator"): "real-FFT workspace transforms with out=",
    ("kleingordon", "_propagate"): "one stacked transform pair around per-mode rotations",
    ("kleingordon", "_bandwidth"): "reads the spectrum, with no inverse",
}


# The transforms of `numerics`, numpy.fft's on scipy's compiled kernel.
NUMERICS_TRANSFORMS = {"cfft", "icfft", "rfft", "irfft"}


def fourier_uses(source: str) -> list[tuple[str, str]]:
    """(top-level definition, kind) of each use of a Fourier transform in a
    source: kind "fft" for an `np.fft`, `numpy.fft` or `scipy.fft`
    expression or an import of one, a name or string naming the compiled
    pocketfft kernel (a docstring names none), or a reference to a transform
    of `numerics` (by its bare name or as an attribute of `numerics`); and
    "fftfreq" or "rfftfreq" for a reference to that name."""
    uses = []
    tree = ast.parse(source)
    docstrings = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
    for top in tree.body:
        scope = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            name = getattr(node, "attr", None) or getattr(node, "id", None)
            if name in ("fftfreq", "rfftfreq"):
                uses.append((scope, name))
            if isinstance(node, ast.Constant):
                name = None if id(node) in docstrings else node.value
            if (
                (isinstance(node, ast.Attribute) and node.attr == "fft"
                 and isinstance(node.value, ast.Name)
                 and node.value.id in ("np", "numpy", "scipy"))
                or (isinstance(node, ast.alias) and "fft" in node.name.split("."))
                or (isinstance(node, ast.ImportFrom)
                    and "fft" in (node.module or "").split("."))
                or (isinstance(name, str) and "pocketfft" in name)
                or (isinstance(node, ast.Name) and node.id in NUMERICS_TRANSFORMS)
                or (isinstance(node, ast.Attribute) and node.attr in NUMERICS_TRANSFORMS
                    and getattr(node.value, "id", None) == "numerics")
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


def test_only_grid_reads_numpy_fft():
    """Every transform runs on the compiled kernel, through the transforms
    of `numerics`: the one `numpy.fft` name the package reads is `fftfreq`,
    in `Grid`."""
    found = [
        (path.stem, getattr(top, "name", "<module>"), node.attr)
        for path in sorted(SRC.glob("*.py"))
        for top in ast.parse(path.read_text(encoding="utf-8")).body
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
        and node.value.attr == "fft" and getattr(node.value.value, "id", None) in ("np", "numpy")
    ]
    assert found == [("numerics", "Grid", "fftfreq")]


@pytest.mark.parametrize("source, want", [
    ("import numpy as np\ny = np.fft.ifft(x)", [("<module>", "fft")]),
    ("def f(x):\n    return numpy.fft.fft(x)", [("f", "fft")]),
    ("class G:\n    k = np.fft.rfftfreq(8)", [("G", "fft"), ("G", "rfftfreq")]),
    ("def f():\n    from numpy import fft", [("f", "fft")]),
    ("import numpy.fft", [("<module>", "fft")]),
    ("from scipy.fft import dst", [("<module>", "fft")]),
    ("k = fftfreq(8)", [("<module>", "fftfreq")]),
    ("import numpy as np\ny = np.linalg.norm(x)", []),
    ("def f(x):\n    return _pocketfft().c2c(x)", [("f", "fft")]),
    ("m = _scipy_extension('fft._pocketfft', 'pypocketfft')",
     [("<module>", "fft"), ("<module>", "fft")]),
    ("def f(x):\n    return rfft(x)", [("f", "fft")]),
    ("def f(x):\n    return numerics.icfft(x)", [("f", "fft")]),
    ("from .numerics import cfft\ny = np.abs(x)", []),
    ("def f(x):\n    return x.rfft, other.cfft", []),
    ('def f(x):\n    """On the pocketfft kernel."""\n    return x', []),
], ids=["np-attribute", "numpy-in-function", "freq-in-class", "from-numpy",
        "import-dotted", "from-scipy", "bare-name", "other-module", "kernel-loader",
        "kernel-name", "numerics-transform", "numerics-attribute", "import-only",
        "other-attributes", "docstring"])
def test_fourier_uses_reads_every_form(source, want):
    assert sorted(fourier_uses(source)) == sorted(want)


def uses_scipy(source: str, package: str) -> bool:
    """Whether a source imports `scipy.<package>`, in any import form, or
    reads it as the attribute `scipy.<package>`."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            module = (node.module or "").split(".")
            if module[:2] == ["scipy", package] or (
                    module == ["scipy"] and any(a.name == package for a in node.names)):
                return True
        elif isinstance(node, ast.Import):
            if any(a.name.split(".")[:2] == ["scipy", package] for a in node.names):
                return True
        elif (isinstance(node, ast.Attribute) and node.attr == package
              and isinstance(node.value, ast.Name) and node.value.id == "scipy"):
            return True
    return False


# The compiled scipy modules that `numerics._scipy_extension` loads, each
# with the one module that names it.
SCIPY_EXTENSIONS = {
    "_special_ufuncs": "aharonov_bohm",  # J, Y and the scaled I
    "_flapack": "schrodinger",  # zgetrf and zgetrs of the Dirichlet stepper
    "pypocketfft": "numerics",  # every Fourier transform
    "_zeros": "aharonov_bohm",  # brentq's Brent kernel
}


def test_scipy_kernels_named_only_by_their_callers():
    """Each compiled scipy module is named by its one caller, and no module
    imports `scipy.special`, `scipy.linalg`, `scipy.fft` or `scipy.optimize`,
    whose import costs about 0.2 s and 20 MB: the kernels are loaded without
    their packages."""
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    for module, caller in SCIPY_EXTENSIONS.items():
        assert [name for name, text in sources.items() if module in text] == [caller]
    assert [name for name, text in sources.items()
            if any(uses_scipy(text, package)
                   for package in ("special", "linalg", "fft", "optimize"))] == []


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
    assert uses_scipy(source, "special") is want


@pytest.mark.parametrize("source, want", [
    ("from scipy.linalg import lu_factor", True),
    ("def f():\n    from scipy import linalg", True),
    ("import scipy\nx = scipy.linalg.solve(a, b)", True),
    ("from scipy import special\nimport scipy.optimize", False),
    ("import numpy as np\nx = np.linalg.solve(a, b)", False),
], ids=["from-submodule", "in-function", "attribute", "other-submodules",
        "numpy-linalg"])
def test_uses_scipy_reads_linalg(source, want):
    assert uses_scipy(source, "linalg") is want


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


def stale_entries(allowed: dict, scopes) -> list[tuple[str, str]]:
    """The (module, scope) entries of an allow-list whose scope no longer
    uses what it is allowed: `scopes(source, module)` lists the scopes of a
    module's source that do."""
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    return [(module, scope) for module, scope in allowed
            if module not in sources or scope not in scopes(sources[module], module)]


@pytest.mark.parametrize("allowed, scopes", [
    (FOURIER_SCOPES, lambda source, module: [s for s, _ in fourier_uses(source)]),
    (RHS_SCOPES, rhs_uses),
], ids=["fourier", "rhs"])
def test_allow_lists_hold_no_stale_entry(allowed, scopes):
    """Every entry is still used by its scope, so a renamed or deleted scope
    leaves no exemption behind; a deleted scope and a deleted module are
    both reported."""
    assert stale_entries(allowed, scopes) == []
    gone = [("kleingordon", "_rotation"), ("no_such_module", "f")]
    assert stale_entries(dict.fromkeys(gone), scopes) == gone


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


def block_contract_uses(source: str) -> list[str]:
    """What a source writes of the block contract: "_row_times" for each
    reference to that name (bound, imported, read or an attribute), "check
    in __post_init__" for each call of `check_field` (bare or an attribute)
    inside a `__post_init__`, and "not a block" for each time a string
    constant holds that text."""
    uses = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name == "__post_init__":
            uses += ["check in __post_init__" for call in ast.walk(node)
                     if isinstance(call, ast.Call)
                     and "check_field" in (getattr(call.func, "id", None),
                                           getattr(call.func, "attr", None))]
        names = (getattr(node, key, None) for key in ("id", "attr", "name"))
        if "_row_times" in names:
            uses.append("_row_times")
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            uses += ["not a block"] * node.value.count("not a block")
    return uses


def test_block_contract_written_once():
    """The rows, shapes and times of every block are checked by `_Rows` in
    `wavefield`, and its one refusal of a block where one state is taken:
    no other module reaches `_row_times` or checks fields in a
    `__post_init__`, and "not a block" is written once."""
    uses = {path.stem: block_contract_uses(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}
    assert [m for m, u in uses.items() if "_row_times" in u] == ["wavefield"]
    assert [m for m, u in uses.items() if "check in __post_init__" in u] == ["wavefield"]
    assert sum(u.count("not a block") for u in uses.values()) == 1


@pytest.mark.parametrize("source, want", [
    ("from .wavefield import _Rows, _row_times", ["_row_times"]),
    ("import absqm.wavefield as w\nt = w._row_times(0.0, f)", ["_row_times"]),
    ("def _row_times(time, field):\n    pass", ["_row_times"]),
    ("class A:\n    def __post_init__(self):\n        self.f = check_field(self.f, g)",
     ["check in __post_init__"]),
    ("class A:\n    def __post_init__(self):\n        f = numerics.check_field(f, g)",
     ["check in __post_init__"]),
    ("def f(x):\n    return check_field(x, g)", []),
    ('raise E(f"{who} takes one state, not a block")', ["not a block"]),
    ("x = 1  # not a block", []),
], ids=["import", "attribute", "definition", "post-init-bare", "post-init-attribute",
        "other-function", "f-string", "comment"])
def test_block_contract_uses_reads_every_form(source, want):
    assert block_contract_uses(source) == want
