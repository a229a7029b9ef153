"""No package module reads another package module's private names, and
every public definition of the package is used by a program.

A private name (one leading underscore, not a dunder) stays behind the
module that defines it: the block and replay policy of numkit's RK4, for
one, is reached only through numkit.rk4_path.  A public function or
class that nothing in src, demos or benchmarks names is an unused
helper, unless it is a paper quantity kept on purpose.
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


ROOT = Path(__file__).resolve().parents[1]

# public names no program calls, kept as paper quantities
UNCALLED_BY_DESIGN = {"quantum.coulomb_energy"}


def public_definitions(path):
    """'module.name' for each public top-level function and class of path."""
    tree = ast.parse(path.read_text(), str(path))
    return {
        "%s.%s" % (path.stem, node.name) for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }


def named(paths):
    """Every identifier the files read, import or take as an attribute.

    Names are matched without their module, so a definition counts as
    used when any module names something of the same name.
    """
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_public_definition_is_used_by_a_program():
    programs = [path for folder in ("src", "demos", "benchmarks")
                for path in sorted((ROOT / folder).rglob("*.py"))]
    defined = set().union(*(public_definitions(path) for path in sorted(PACKAGE.glob("*.py"))))
    used = named(programs)
    unused = {name for name in defined if name.split(".")[1] not in used}
    assert unused == UNCALLED_BY_DESIGN


def test_use_scan_sees_reads_imports_and_attributes(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from .quantum import polar_split as split\n"
        "class Report:\n"
        "    pass\n"
        "def helper():\n"
        "    return split, numkit.rk4_path, Report\n"
        "def _private():\n"
        "    pass\n"
    )
    assert public_definitions(module) == {"module.Report", "module.helper"}
    assert named([module]) >= {"polar_split", "split", "numkit", "rk4_path", "Report"}
    assert "helper" not in named([module])
