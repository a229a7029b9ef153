"""Which modules a command imports, each checked in a fresh interpreter."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import epiqmap

SRC = str(Path(epiqmap.__file__).resolve().parents[1])

# what the quantum pair, its classical image and the acceptance gate need
QUANTUM_SIDE = ("epiqmap.acceptance", "epiqmap.mapping", "epiqmap.quantum", "epiqmap.density")

SUBMODULES = ("numkit", "epidemic", "coupled", "density", "quantum", "mapping")

TABLE_EPIDEMIC2 = {
    "schema": 1, "model": "epidemic2", "t0": 0.0, "t1": 0.5, "dt": 0.01,
    "generator": {"s11": [[0.0, -0.3], [0.5, -0.1]], "s12": 0.4, "s21": 0.6, "s22": -0.2},
    "initial_state": [0.7, 0.3],
}

EPIDEMIC_N = {
    "schema": 1, "model": "epidemicN", "t0": 0.0, "t1": 0.5, "dt": 0.01,
    "generator": {"matrix": [[-0.2, [[0.0, 0.1], [0.5, 0.3]]], [0.2, -0.1]]},
    "initial_state": [0.6, 0.4],
}

COUPLED4 = {
    "schema": 1, "model": "coupled4", "t0": 0.0, "t1": 0.5, "dt": 0.01,
    "generator": {
        "form": "kron_sum",
        "sa": {"s11": -0.3, "s12": 0.2, "s21": 0.3, "s22": -0.2},
        "sb": {"s11": -0.1, "s12": 0.4, "s21": 0.1, "s22": -0.4},
    },
    "initial_state": [0.25, 0.25, 0.25, 0.25],
}


def run_fresh(code, cwd):
    """Run code in a new interpreter that finds the package; fail on a nonzero exit."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_bare_import_loads_no_submodule_and_no_numpy(tmp_path):
    run_fresh("""
        import sys
        import epiqmap
        loaded = sorted(m for m in sys.modules if m.startswith("epiqmap.") or m == "numpy")
        assert loaded == ["epiqmap.errors"], loaded
        assert epiqmap.FloorViolationError.__module__ == "epiqmap.errors"
    """, tmp_path)


def test_classical_commands_skip_the_quantum_side(tmp_path):
    for name, config in (("epidemic2", TABLE_EPIDEMIC2), ("coupled4", COUPLED4)):
        (tmp_path / (name + ".json")).write_text(json.dumps(config))
    run_fresh("""
        import sys
        from epiqmap import cli

        quantum_side = %r
        for name in ("epidemic2", "coupled4"):
            cli.load_scenario(name + ".json")
            assert cli.main(["simulate", "--config", name + ".json", "--out-dir", name]) == 0
            loaded = [m for m in quantum_side if m in sys.modules]
            assert not loaded, (name, loaded)
        assert cli.main(["verify", "--filter", "aharonov_bohm"]) == 0
        assert all(m in sys.modules for m in quantum_side)
    """ % (QUANTUM_SIDE,), tmp_path)
    assert (tmp_path / "coupled4" / "series.csv").exists()


def test_only_coupled4_loads_coupled(tmp_path):
    configs = (("epidemic2", TABLE_EPIDEMIC2), ("epidemicN", EPIDEMIC_N), ("coupled4", COUPLED4))
    for name, config in configs:
        (tmp_path / (name + ".json")).write_text(json.dumps(config))
    run_fresh("""
        import sys
        from epiqmap import cli

        for name in ("epidemic2", "epidemicN"):
            assert cli.main(["simulate", "--config", name + ".json", "--out-dir", name]) == 0
            assert "epiqmap.coupled" not in sys.modules, name
        assert cli.main(["simulate", "--config", "coupled4.json", "--out-dir", "coupled4"]) == 0
        assert "epiqmap.coupled" in sys.modules
    """, tmp_path)
    assert all((tmp_path / name / "series.csv").exists() for name, _ in configs)


@pytest.mark.parametrize("access", [
    "exported = {name: getattr(epiqmap, name) for name in epiqmap.__all__}",
    "exported = {}; exec('from epiqmap import *', exported)",
], ids=["attribute", "star"])
def test_every_exported_name_resolves(tmp_path, access):
    run_fresh("""
        import sys
        import types
        import epiqmap

        %s
        for name in %r:
            assert name in epiqmap.__all__, name
            assert isinstance(exported[name], types.ModuleType), name
            assert exported[name] is sys.modules["epiqmap." + name]
        assert all(exported[name] is getattr(epiqmap, name) for name in epiqmap.__all__)
        try:
            epiqmap.no_such_module
        except AttributeError as exc:
            assert "no_such_module" in str(exc)
        else:
            raise AssertionError("unknown attribute resolved")
    """ % (access, SUBMODULES), tmp_path)
