"""No package module reads another package module's private names.

A private name (one leading underscore, not a dunder) stays behind the
module that defines it: the block and replay policy of numkit's RK4, for
one, is reached only through numkit.rk4_path.
"""

import ast
from pathlib import Path

import epiqmap

PACKAGE = Path(epiqmap.__file__).resolve().parent


def is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(path):
    """(line, 'module._name') for each private name path reads from a sibling module."""
    tree = ast.parse(path.read_text(), str(path))
    siblings = {}
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    siblings[alias.asname or alias.name] = alias.name
                elif is_private(alias.name):
                    reads.append((node.lineno, "%s.%s" % (node.module, alias.name)))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and is_private(node.attr)):
            reads.append((node.lineno, "%s.%s" % (siblings[node.value.id], node.attr)))
    return sorted(reads)


def test_no_module_reads_a_sibling_private_name():
    found = {path.name: private_reads(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: reads for name, reads in found.items() if reads} == {}


def test_scan_sees_attribute_and_import_reads(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from . import numkit as nk, __version__\n"
        "from .numkit import _sample_times, MAX_DIM\n"
        "nk._rk4_block, nk.rk4_path, nk.__name__, __version__\n"
    )
    assert private_reads(module) == [(2, "numkit._sample_times"), (3, "numkit._rk4_block")]
