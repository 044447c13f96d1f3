"""The package namespace: every public name resolves on first access."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import signsum

from conftest import child_env

PUBLIC = [name for name in signsum.__all__ if name != "__version__"]


def test_public_names_are_their_defining_modules_objects():
    for name in PUBLIC:
        value = getattr(signsum, name)
        home = value.__module__
        assert home.startswith("signsum."), name
        assert value is getattr(importlib.import_module(home), name), name
        assert signsum.__getattr__(name) is value, name


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from signsum import *", namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(signsum, name)
    assert namespace["__version__"] == signsum.__version__
    assert set(signsum.__all__) <= set(dir(signsum))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        signsum.no_such_name
    assert not hasattr(signsum, "worker_count")


def test_names_load_their_module_on_first_access():
    """In a fresh process the bare package loads no submodule, a name
    loads its own module only, and submodules still import by name."""
    probe = (
        "import json, sys\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith('signsum.'))\n"
        "import signsum\n"
        "steps = [loaded()]\n"
        "signsum.solve_weight_space\n"
        "steps.append(loaded())\n"
        "from signsum import invariants\n"
        "steps.append(loaded())\n"
        "print(json.dumps([steps, invariants.__name__]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    steps, name = json.loads(proc.stdout)
    base = ["signsum.core"]
    assert steps == [[], base + ["signsum.weights"],
                     base + ["signsum.invariants", "signsum.weights"]]
    assert name == "signsum.invariants"


def test_library_modules_never_load_the_cli():
    """A fresh import of any module that defines public names loads no
    ``signsum.cli``: only the command line's handlers may reach for it."""
    probe = (
        "import importlib, json, sys\n"
        f"for name in {list(signsum._SOURCES)!r}:\n"
        "    importlib.import_module('signsum.' + name)\n"
        "    if 'signsum.cli' in sys.modules:\n"
        "        print(json.dumps(name))\n"
        "        break\n"
        "else:\n"
        "    print(json.dumps(None))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) is None


def test_only_the_entry_point_imports_the_cli():
    """No module of the package but ``__main__`` imports ``signsum.cli``,
    lazily inside a function or not: the operations hold what the
    command line dispatches to, and never reach back for its tables."""
    importers = []
    for path in sorted(Path(signsum.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                package = "signsum" if node.level else ""
                module = ".".join(filter(None, (package, node.module)))
                names = [module] + [f"{module}.{alias.name}" for alias in node.names]
            else:
                continue
            if "signsum.cli" in names:
                importers.append(path.name)
    assert importers == ["__main__.py"]


@pytest.mark.parametrize("module", list(signsum._SOURCES))
def test_module_all_is_its_sources_entry(module):
    """Each module exports exactly the public names the package resolves
    to it, besides its upper-case limits, so a moved name cannot stay
    behind in its old module's ``__all__``."""
    exported = importlib.import_module(f"signsum.{module}").__all__
    assert sorted(n for n in exported if not n.isupper()) == sorted(
        signsum._SOURCES[module]
    )


def test_only_the_cli_spells_out_its_names():
    """``_SOURCES`` is the one list of public names: no module but ``cli``
    assigns ``__all__`` a display of strings, or names in it by hand a
    public name that the table lists."""
    hand_written = []
    for path in sorted(Path(signsum.__file__).parent.glob("*.py")):
        if path.stem == "cli":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            if not any(getattr(t, "id", None) == "__all__" for t in targets):
                continue
            value = node.value
            strings = {
                n.value
                for n in ast.walk(value)
                if isinstance(n, ast.Constant) and isinstance(n.value, str)
            }
            literal = isinstance(value, (ast.List, ast.Tuple, ast.Set)) and all(
                isinstance(n, ast.Constant) for n in value.elts
            )
            if literal or strings & set(signsum._MODULE_OF):
                hand_written.append((path.name, node.lineno))
    assert hand_written == []


def test_package_imports_only_the_standard_library():
    """Every absolute import in the package, lazy ones included, names a
    standard-library module: the package declares no dependencies, and
    mpmath is only a test oracle."""
    outside = []
    for path in sorted(Path(signsum.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                (path.name, name)
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []
