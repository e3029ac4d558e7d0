"""The public surface is what the CLI, perfbench and the acceptance suite call.

Every module-level ``def`` and ``class`` in ``src/mammoscope`` whose name
has no leading underscore must be reached from outside its own
definition: by a use in the package (a name in its own module, a relative
import, or ``module.name``), or by an import or ``module.name`` in
``perfbench/*.py`` or ``tests/test_acceptance.py``. Unit tests do not
count, so code that only they call is flagged for deletion.

Every module-level ``_``-prefixed ``def``, ``class`` or constant must be
used by the package itself, outside its own definition: a private helper
that only its unit test calls is flagged too.

Every public method or property of a module-level package class must be
reached by an attribute of its name (``x.name``) in the package outside
the member's own body, in ``perfbench/*.py`` or in
``tests/test_acceptance.py``. The match is by name alone, since the type
of ``x`` is unknown to ``ast``: a member named like an attribute that
other objects have is always reached. So ``Spectrum.size`` could not be
flagged, because ``ndarray.size`` is read all over the package.

The package raises one exception type on bad input: its callers turn any
failure into exit 2 or a per-image failure line, so none tells kinds apart.

Manifests and feature CSVs are one dialect with one reader: only
``features.py`` may call a ``csv`` reader.

``train`` and every CV fold fit one way: only ``evaluation.fit`` may use
``bayes.train`` or ``features.select_features``, under any name they are
imported as.

Only image parsing needs scipy, and importing it more than doubles the
package's import time, so the package imports it inside the functions
that use it, never at module or class level: ``import mammoscope`` and
the table commands stay without it.

A model's columns are fetched one way, through ``FeatureTable.select_columns``: only
``features.py`` may call ``.names.index``.

The README's "Library use" block runs as written.

``io.StringIO(text)`` stores its own copy of ``text`` at 4 bytes per
character, so the package never wraps an input's text that way: only an
empty writer buffer, ``io.StringIO()``, is allowed.
"""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import pytest

from mammoscope.errors import MammoscopeError
from mammoscope.imgio import write_pgm
from mammoscope.phantom import PhantomConfig, render_image

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "mammoscope"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFS = (*FUNCTIONS, ast.ClassDef)


def _reached(tree: ast.Module, module: str | None, modules: set[str]) -> set[tuple[str, str]]:
    """(module, name) pairs that ``tree`` reaches; ``module`` is its own package module, if any."""
    aliases = {}  # local name -> package module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in (PACKAGE, None) and node.level <= 1:
            aliases.update((a.asname or a.name, a.name) for a in node.names if a.name in modules)
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.asname and a.name.startswith(PACKAGE + "."):
                    aliases[a.asname] = a.name.split(".", 1)[1]

    found = set()

    def visit(node, own):
        if isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level == 1 and module is not None:
                found.update((source, a.name) for a in node.names)
            elif node.level == 0 and source.startswith(PACKAGE + "."):
                found.update((source.split(".", 1)[1], a.name) for a in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases:
                found.add((aliases[node.value.id], node.attr))
        elif isinstance(node, ast.Name) and module is not None and node.id != own:
            if isinstance(node.ctx, ast.Load):  # assigning a name does not use it
                found.add((module, node.id))
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    for stmt in tree.body:
        own = stmt.name if isinstance(stmt, DEFS) else None
        visit(stmt, own)
    return found


def _defined(stmt: ast.stmt, private: bool) -> list[str]:
    """Names a module-level statement defines: a def or class, or for ``private`` a constant too."""
    if isinstance(stmt, DEFS):
        names = [stmt.name]
    elif private and isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [t.id for t in targets if isinstance(t, ast.Name)]
    else:
        names = []
    return [n for n in names if n.startswith("_") == private and not n.startswith("__")]


def unreached(package: dict[str, str], outside: list[str], private: bool = False) -> list[str]:
    """``module.name`` of each checked top-level name that nothing reaches.

    ``package`` maps module names to their source; ``outside`` holds the
    sources of the callers that count besides the package itself. With
    ``private``, the names checked are the ``_``-prefixed defs, classes
    and constants instead of the public defs and classes.
    """
    modules = set(package)
    trees = {name: ast.parse(source) for name, source in package.items()}
    reached = set()
    for name, tree in trees.items():
        reached |= _reached(tree, name, modules)
    for source in outside:
        reached |= _reached(ast.parse(source), None, modules)
    return sorted(
        f"{name}.{defined}"
        for name, tree in trees.items()
        for stmt in tree.body
        for defined in _defined(stmt, private)
        if (name, defined) not in reached
    )


def _package() -> dict[str, str]:
    return {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted((ROOT / "src" / PACKAGE).glob("*.py"))
    }


def _callers() -> list[str]:
    """The sources outside the package whose uses count: perfbench and the acceptance suite."""
    paths = [*sorted((ROOT / "perfbench").glob("*.py")), ROOT / "tests/test_acceptance.py"]
    return [path.read_text(encoding="utf-8") for path in paths]


class TestSurface:
    @pytest.mark.parametrize("package, outside, flagged", [
        ({"m": "def f(): pass\n"}, [], ["m.f"]),
        ({"m": "def _f(): pass\n"}, [], []),
        ({"m": "def f(): pass\ndef g(): f()\n"}, ["from mammoscope.m import g"], []),
        ({"m": "def f(): return f()\n"}, [], ["m.f"]),
        ({"m": "class C:\n    def copy(self): return C()\n"}, [], ["m.C"]),
        ({"m": "def f(): pass\n", "n": "from .m import f\n"}, [], []),
        ({"m": "def f(): pass\n", "n": "from . import m\nm.f()\n"}, [], []),
        ({"m": "def f(): pass\n"}, ["from mammoscope import m\nm.f()\n"], []),
        ({"m": "def f(): pass\n"}, ["import mammoscope.m as mm\nmm.f()\n"], []),
        ({"m": "def f(): pass\n"}, ["from mammoscope import n\nn.f()\n"], ["m.f"]),
        ({"m": "def f(): pass\n"}, ["m.f()\n"], ["m.f"]),
        ({"m": "def f(): pass\n", "n": "f = 1\nf\n"}, [], ["m.f"]),
    ])
    def test_detector(self, package, outside, flagged):
        assert unreached(package, outside) == flagged

    @pytest.mark.parametrize("package, flagged", [
        ({"m": "def _f(): pass\n"}, ["m._f"]),
        ({"m": "class _C: pass\n"}, ["m._C"]),
        ({"m": "_X = 1\n"}, ["m._X"]),
        ({"m": "_X: int = 1\n_Y = _Z = 2\n"}, ["m._X", "m._Y", "m._Z"]),
        ({"m": "def _f(): return _f()\n"}, ["m._f"]),
        ({"m": "def _f(): pass\ndef g(): _f()\n"}, []),
        ({"m": "_X = 1\ndef g(): return _X\n"}, []),
        ({"m": "_X = 1\n_Y = _X\n"}, ["m._Y"]),
        ({"m": "def _f(): pass\n", "n": "from .m import _f\n"}, []),
        ({"m": "def _f(): pass\n", "n": "from . import m\nm._f()\n"}, []),
        ({"m": "def _f(): pass\n", "n": "_f = 1\n_f\n"}, ["m._f"]),
        ({"m": "__all__ = []\ndef f(): pass\n"}, []),
    ])
    def test_private_detector(self, package, flagged):
        assert unreached(package, [], private=True) == flagged

    def test_unit_test_use_is_not_a_reach(self):
        """A def only a unit test calls is flagged; one perfbench calls as module.attr is not."""
        package = {"wavelet": "def dwt1d(): pass\ndef dwt2d(): pass\n"}
        perfbench = "from mammoscope import wavelet\nwavelet.dwt2d()\n"
        assert unreached(package, [perfbench]) == ["wavelet.dwt1d"]

    def test_every_public_name_is_reached(self):
        assert unreached(_package(), _callers()) == []

    def test_every_private_name_is_used(self):
        """Only the package counts: a helper that just its unit test imports is dead."""
        assert unreached(_package(), [], private=True) == []


def _attributes(tree: ast.AST) -> Counter:
    """How often each name is read or set as an attribute, ``x.name``, in ``tree``."""
    return Counter(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))


def unreached_members(package: dict[str, str], outside: list[str]) -> list[str]:
    """``module.Class.member`` of each public method or property that no attribute reaches.

    ``package`` and ``outside`` are as for ``unreached``. A package attribute
    reaches a member only from outside the member's own body.
    """
    trees = {name: ast.parse(source) for name, source in package.items()}
    in_package = sum((_attributes(tree) for tree in trees.values()), Counter())
    read_outside = set().union(*(_attributes(ast.parse(source)) for source in outside))
    return sorted(
        f"{name}.{cls.name}.{member.name}"
        for name, tree in trees.items()
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for member in cls.body if isinstance(member, FUNCTIONS) and not member.name.startswith("_")
        if member.name not in read_outside
        and in_package[member.name] == _attributes(member)[member.name]
    )


class TestMembers:
    @pytest.mark.parametrize("package, outside, flagged", [
        ({"m": "class C:\n    def f(self): pass\n"}, [], ["m.C.f"]),
        ({"m": "class C:\n    @property\n    def p(self): return 1\n"}, [], ["m.C.p"]),
        ({"m": "class C:\n    def f(self): pass\ndef g(c): c.f()\n"}, [], []),
        ({"m": "class C:\n    def f(self): return self.f()\n"}, [], ["m.C.f"]),
        ({"m": "class C:\n    def f(self): return self.g\n    def g(self): pass\n"}, [],
         ["m.C.f"]),
        ({"m": "class C:\n    def f(self): pass\n", "n": "def g(c): return c.f\n"}, [], []),
        ({"m": "class C:\n    def f(self): pass\n"}, ["spec.f\n"], []),
        ({"m": "class C:\n    def f(self): pass\n"}, ["f()\nfrom mammoscope.m import f\n"],
         ["m.C.f"]),
        ({"m": "class C:\n    def f(self): pass\ndef f(): pass\nf()\n"}, [], ["m.C.f"]),
        ({"m": "class C:\n    def _f(self): pass\n    def __len__(self): pass\n"}, [], []),
        ({"m": "class C:\n    async def f(self): pass\n    x = 1\n"}, [], ["m.C.f"]),
        ({"m": "def g():\n    class C:\n        def f(self): pass\n"}, [], []),
    ])
    def test_detector(self, package, outside, flagged):
        assert unreached_members(package, outside) == flagged

    def test_every_public_member_is_reached(self):
        assert unreached_members(_package(), _callers()) == []

    def test_a_member_only_unit_tests_read_is_caught(self):
        """``Spectrum.mirrored``, which only unit tests read, is flagged if it comes back."""
        package = _package()
        package["fourier"] = package["fourier"].replace(
            "    @property\n    def values(",
            "    @property\n    def mirrored(self) -> slice:\n"
            "        return mirrored_columns(len(self.half))\n\n"
            "    @property\n    def values(",
        )
        assert unreached_members(package, _callers()) == ["fourier.Spectrum.mirrored"]


CSV_READERS = ("reader", "DictReader")


def _csv_readers(source: str) -> int:
    """How often ``source`` names a ``csv`` reader: ``csv.reader`` or ``csv.DictReader``
    under ``csv`` or an alias it imports ``csv`` as, or either imported from ``csv``."""
    tree = ast.parse(source)
    modules = {"csv"} | {
        a.asname for node in ast.walk(tree) if isinstance(node, ast.Import)
        for a in node.names if a.name == "csv" and a.asname
    }
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules and node.attr in CSV_READERS:
                count += 1
        elif isinstance(node, ast.ImportFrom) and node.module == "csv":
            count += sum(a.name in CSV_READERS for a in node.names)
    return count


def _csv_reading_modules(package: dict[str, str]) -> list[str]:
    return [name for name, source in package.items() if _csv_readers(source)]


class TestOneReader:
    @pytest.mark.parametrize("source, readers", [
        ("import csv\nrows = list(csv.reader(f))\n", 1),
        ("csv.reader(f, strict=True)\ncsv.DictReader(f)\n", 2),
        ("import csv as c\nc.reader(f)\n", 1),
        ("from csv import reader\n", 1),
        ("from csv import DictReader as R, writer\n", 1),
        ("import csv\ncsv.writer(f)\ncsv.field_size_limit()\ncsv.Error\n", 0),
        ("reader(f)\nself.reader(f)\n", 0),
    ])
    def test_detector(self, source, readers):
        assert _csv_readers(source) == readers

    def test_features_holds_the_only_csv_reader(self):
        """Manifests and feature CSVs are both parsed by ``features.table_from_csv``."""
        assert _csv_reading_modules(_package()) == ["features"]

    def test_a_manifest_reader_back_in_cli_is_caught(self):
        package = _package()
        package["cli"] += "\n\ndef _read_manifest(text):\n    return list(csv.reader(text))\n"
        assert _csv_reading_modules(package) == ["cli", "features"]


FIT_STEPS = (f"{PACKAGE}.bayes.train", f"{PACKAGE}.features.select_features")


def _fit_step_uses(package: dict[str, str]) -> list[str]:
    """``module.where: step`` for each use of a fit step outside ``evaluation.fit``.

    ``where`` is the module-level def or class around the use, or
    ``<module>``. A step is found by the dotted name it resolves to
    through the module's imports and its own module-level defs, so
    an alias or a reference that is not called is found too.
    """
    found = []
    for module, source in package.items():
        tree = ast.parse(source)
        bound = {stmt.name: f"{PACKAGE}.{module}.{stmt.name}" for stmt in tree.body
                 if isinstance(stmt, DEFS)}  # local name -> dotted name it stands for
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound.update((a.asname, a.name) if a.asname else (a.name.split(".")[0],) * 2
                             for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level in (0, 1):
                origin = ".".join(filter(None, [PACKAGE if node.level else "", node.module]))
                bound.update((a.asname or a.name, f"{origin}.{a.name}") for a in node.names)

        def resolve(node) -> str | None:
            if isinstance(node, ast.Name):
                return bound.get(node.id)
            if isinstance(node, ast.Attribute):
                head = resolve(node.value)
                return head and f"{head}.{node.attr}"
            return None

        for stmt in tree.body:
            where = stmt.name if isinstance(stmt, DEFS) else "<module>"
            if module == "evaluation" and where == "fit" and isinstance(stmt, FUNCTIONS):
                continue
            for node in ast.walk(stmt):
                step = resolve(node) if isinstance(node, (ast.Name, ast.Attribute)) else None
                if step in FIT_STEPS:
                    found.append(f"{module}.{where}: {step.split('.', 1)[1]}")
    return sorted(found)


class TestOneFitPath:
    @pytest.mark.parametrize("package, flagged", [
        ({"evaluation": "from . import bayes\ndef fit(t): return bayes.train(t)\n"}, []),
        ({"cli": "from . import bayes\ndef cmd(t): return bayes.train(t)\n"},
         ["cli.cmd: bayes.train"]),
        ({"cli": "from . import bayes as b\ndef cmd(t): b.train(t)\n"}, ["cli.cmd: bayes.train"]),
        ({"cli": "from .bayes import train as nb\ndef cmd(t): nb(t)\n"}, ["cli.cmd: bayes.train"]),
        ({"cli": "import mammoscope.bayes as mb\ndef cmd(t): mb.train(t)\n"},
         ["cli.cmd: bayes.train"]),
        ({"cli": "import mammoscope.bayes\ndef cmd(t): mammoscope.bayes.train(t)\n"},
         ["cli.cmd: bayes.train"]),
        ({"cli": "from mammoscope import features\ndef cmd(t): features.select_features(t, 2)\n"},
         ["cli.cmd: features.select_features"]),
        ({"cli": "from .features import select_features as top\ntop(t, 1)\n"},
         ["cli.<module>: features.select_features"]),
        ({"bayes": "def train(t): pass\ndef refit(t): return train(t)\n"},
         ["bayes.refit: bayes.train"]),
        ({"cli": "from . import bayes\nTRAIN = bayes.train\n"}, ["cli.<module>: bayes.train"]),
        ({"cli": "from . import bayes\ndef fit(t): return bayes.train(t)\n"},
         ["cli.fit: bayes.train"]),
        ({"evaluation": "from . import bayes\nclass C:\n    def fit(self, t): bayes.train(t)\n"},
         ["evaluation.C: bayes.train"]),
        ({"cli": "from . import bayes\nfrom .features import FeatureTable\n"
                 "def cmd(m, t, train): return bayes.scores(m, t), m.train, train(t)\n"}, []),
        ({"cli": "import mammoscope.features\ndef cmd(t): bayes.train(t)\n"}, []),
    ])
    def test_detector(self, package, flagged):
        assert _fit_step_uses(package) == flagged

    def test_only_fit_selects_and_trains(self):
        assert _fit_step_uses(_package()) == []

    def test_a_second_fit_in_cmd_train_is_caught(self):
        """``cmd_train`` as it was before it called ``fit`` is flagged."""
        package = _package()
        package["cli"] = package["cli"].replace(
            "    model = evaluation.fit(table, cfg)\n",
            "    if cfg.select_k is not None:\n"
            "        table = table.select_columns(select_features(table, cfg.select_k))\n"
            "    model = bayes.train(table)\n",
        ).replace("from .features import (\n", "from .features import (\n    select_features,\n")
        assert _fit_step_uses(package) == ["cli.cmd_train: bayes.train",
                                           "cli.cmd_train: features.select_features"]


def _name_lookups(source: str) -> int:
    """How often ``source`` calls ``index`` on a ``names`` attribute, as in
    ``table.names.index(n)``."""
    return sum(
        isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "index" and isinstance(node.func.value, ast.Attribute)
        and node.func.value.attr == "names"
        for node in ast.walk(ast.parse(source))
    )


def _name_lookup_modules(package: dict[str, str]) -> list[str]:
    return [name for name, source in package.items() if _name_lookups(source)]


class TestOneColumnLookup:
    @pytest.mark.parametrize("source, lookups", [
        ("cols = [table.names.index(n) for n in wanted]\n", 1),
        ("self.names.index(n)\nt.model.names.index(m)\n", 2),
        ("names.index(n)\nLABELS.index(SUSPICIOUS)\n", 0),
        ("table.names\nindex(n)\ntable.names.count(n)\n", 0),
        ("lookup = table.names.index\n", 0),
    ])
    def test_detector(self, source, lookups):
        assert _name_lookups(source) == lookups

    def test_only_select_columns_looks_up_names(self):
        """``FeatureTable.select_columns`` is how ``predict`` and every CV fold get their
        columns."""
        assert _name_lookup_modules(_package()) == ["features"]

    def test_an_index_lookup_back_in_out_of_fold_is_caught(self):
        """``out_of_fold`` as it was before it called ``select_columns`` is flagged."""
        package = _package()
        package["evaluation"] = package["evaluation"].replace(
            "        test = table.subset(test_rows).select_columns(model.feature_names)\n"
            "        pooled[test_rows] = bayes.scores(model, test.values)\n",
            "        columns = [table.names.index(n) for n in model.feature_names]\n"
            "        pooled[test_rows] = bayes.scores(\n"
            "            model, table.values[np.ix_(test_rows, columns)])\n",
        )
        assert _name_lookup_modules(package) == ["evaluation", "features"]


def readme_python_block() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.search(r"```python\n(.*?)```", readme, re.S).group(1)


class TestReadmeExample:
    def test_library_use_runs(self, tmp_path, monkeypatch, capsys):
        """The block reads ``scan.pgm`` from the working directory and prints the features."""
        cfg = PhantomConfig(size=64, count_per_class=1, seed=11, mass_radius=10.0)
        (tmp_path / "scan.pgm").write_bytes(write_pgm(render_image(cfg, 1)))
        monkeypatch.chdir(tmp_path)
        exec(readme_python_block(), {})
        assert "xcorr_hh" in capsys.readouterr().out


class TestOneErrorType:
    def test_no_module_subclasses_the_error(self):
        """Bad input raises ``MammoscopeError`` itself; its message names the problem."""
        for path in sorted((ROOT / "src" / PACKAGE).glob("*.py")):
            importlib.import_module(PACKAGE if path.stem == "__init__" else f"{PACKAGE}.{path.stem}")
        assert MammoscopeError.__subclasses__() == []


def _eager_scipy_imports(source: str, filename: str) -> list[str]:
    """``file:line`` of each ``scipy`` import in ``source`` that is not inside a function body."""
    found = []

    def visit(node, in_function):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            modules = []
        if not in_function and any(m.partition(".")[0] == "scipy" for m in modules):
            found.append(f"{filename}:{node.lineno}")
        in_function = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for child in ast.iter_child_nodes(node):
            visit(child, in_function)

    visit(ast.parse(source), False)
    return found


class TestLazyScipy:
    @pytest.mark.parametrize("source, lines", [
        ("import scipy.fft\n", [1]),
        ("import numpy as np\nfrom scipy import ndimage\n", [2]),
        ("import os, scipy\n", [1]),
        ("try:\n    import scipy.ndimage as nd\nexcept ImportError:\n    pass\n", [2]),
        ("class C:\n    from scipy import fft\n", [2]),
        ("def f():\n    import scipy.fft\n    from scipy import ndimage\n", []),
        ("class C:\n    def f(self):\n        from scipy import fft\n", []),
        ("async def f():\n    import scipy\n", []),
        ("import scipyish\nfrom . import scipy\n", []),
    ])
    def test_detector(self, source, lines):
        assert _eager_scipy_imports(source, "m.py") == [f"m.py:{n}" for n in lines]

    def test_package_imports_scipy_only_inside_functions(self):
        found = [
            where
            for path in sorted((ROOT / "src" / PACKAGE).glob("*.py"))
            for where in _eager_scipy_imports(path.read_text(encoding="utf-8"), path.name)
        ]
        assert found == [], f"scipy imported outside a function body, so every process pays for it: {found}"


def _stringio_copies(source: str, filename: str) -> list[str]:
    """``file:line`` of each call in ``source`` that gives ``io.StringIO`` an argument:
    ``io.StringIO`` under ``io`` or an alias it imports ``io`` as, or ``StringIO``
    imported from ``io`` under any name."""
    tree = ast.parse(source)
    modules, names = {"io"}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname for a in node.names if a.name == "io" and a.asname)
        elif isinstance(node, ast.ImportFrom) and node.module == "io" and node.level == 0:
            names.update(a.asname or a.name for a in node.names if a.name == "StringIO")

    def is_stringio(func) -> bool:
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            return func.value.id in modules and func.attr == "StringIO"
        return isinstance(func, ast.Name) and func.id in names

    return [
        f"{filename}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and is_stringio(node.func) and (node.args or node.keywords)
    ]


class TestNoStringIOCopy:
    @pytest.mark.parametrize("source, lines", [
        ("import io\nbuf = io.StringIO(text)\n", [2]),
        ("import io\nio.StringIO(initial_value=text)\n", [2]),
        ("import io as i\n\ni.StringIO(text)\n", [3]),
        ("from io import StringIO\nStringIO(text)\n", [2]),
        ("from io import StringIO as S\ndef f(t):\n    return S(t)\n", [3]),
        ("import io\ncsv.reader(io.StringIO(text))\nio.StringIO(t)\n", [2, 3]),
        ("import io\nbuf = io.StringIO()\nio.BytesIO(data)\n", []),
        ("StringIO(text)\nself.io.StringIO(text)\n", []),
        ("from . import io\nfrom .io import StringIO\nStringIO(text)\n", []),
    ])
    def test_detector(self, source, lines):
        assert sorted(_stringio_copies(source, "m.py")) == [f"m.py:{n}" for n in lines]

    def test_package_wraps_no_text_in_stringio(self):
        found = [
            where
            for path in sorted((ROOT / "src" / PACKAGE).glob("*.py"))
            for where in _stringio_copies(path.read_text(encoding="utf-8"), path.name)
        ]
        assert found == [], f"io.StringIO copies its text at 4 bytes per character: {found}"
