import importlib
import json
import os
import subprocess
import sys

import pytest

import spectower


def _src():
    return os.path.dirname(os.path.dirname(os.path.abspath(spectower.__file__)))


def test_every_export_is_the_object_in_its_home_module():
    # the table is the one list of exports: each name resolves, on first
    # use, to the very object its module defines, and `import *` takes them all
    assert spectower.__all__ == sorted(spectower._HOME)
    for name in spectower.__all__:
        home = importlib.import_module("spectower." + spectower._HOME[name])
        assert getattr(spectower, name) is getattr(home, name)
        assert name in getattr(home, "__all__", [name])
    namespace = {}
    exec("from spectower import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == spectower.__all__


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        spectower.no_such_name
    assert not hasattr(spectower, "_no_such_private_name")


def test_import_spectower_imports_no_module_until_a_name_is_used():
    code = ("import sys, spectower; before = sorted(m for m in sys.modules if m.startswith('spectower.')); "
            "spectower.Field; print(before, 'spectower.field' in sys.modules, 'spectower.spectral' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=_src()),
                         capture_output=True, text=True, check=True).stdout
    assert out == "[] True False\n"


def test_submodules_and_exports_resolve_and_are_listed_before_first_use():
    # a bare `import spectower` still reaches each submodule as an attribute,
    # and dir() lists every export whether or not it has been used yet
    code = ("import spectower; names = dir(spectower); "
            "print(spectower.matrix.__name__, spectower.spectral.Page.__name__, "
            "set(spectower.__all__) <= set(names), 'spectral' in names)")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=_src()),
                         capture_output=True, text=True, check=True).stdout
    assert out == "spectower.matrix Page True True\n"


DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

# each run loads only what its subcommand and document kind use: without
# cached bytecode every module loaded is a module compiled from source
LAZY_CASES = [
    ("homology_circle", ["homology", "circle.json"], {"spectral", "fibration", "localsystems", "morse"}),
    ("extend_wedge", ["extend", "wedge2_subsystem.json", "wedge2_graph.json"], {"spectral", "fibration", "morse"}),
    ("oracle_interval_filtered", ["oracle-check", "interval_filtered.json"], {"fibration", "localsystems", "morse"}),
    ("kunneth_torus", ["kunneth", "circle.json", "circle.json"], {"spectral"}),
    ("e2_cochain", ["e2", "circle.json"], {"fibration"}),  # the kind is refused before fibration is needed
]


@pytest.mark.parametrize("name,argv,unloaded", LAZY_CASES, ids=[c[0] for c in LAZY_CASES])
def test_a_cli_run_loads_only_the_modules_it_uses(name, argv, unloaded):
    code = ("import contextlib, io, json, sys; from spectower.cli import main; out, err = io.StringIO(), io.StringIO()\n"
            "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err): rc = main(sys.argv[1:])\n"
            "print(json.dumps([rc, out.getvalue(), err.getvalue(), "
            "sorted(m[10:] for m in sys.modules if m.startswith('spectower.'))]))")
    command, *files = argv
    run = subprocess.run([sys.executable, "-c", code, command] + [os.path.join(DATA, f) for f in files],
                         env=dict(os.environ, PYTHONPATH=_src()), capture_output=True, text=True, check=True)
    rc, out, err, loaded = json.loads(run.stdout)
    assert not unloaded & set(loaded), loaded
    if name == "e2_cochain":
        assert (rc, out, err) == (4, "", "precondition violation: e2 needs a fibration_data document\n")
    else:
        with open(os.path.join(DATA, "golden", name + ".txt"), "r", encoding="utf-8") as fh:
            assert (rc, out, err) == (0, fh.read(), "")
