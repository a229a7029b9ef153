"""No package module reads another package module's private names, and
every public definition, and every defaulted parameter, of the package is
used by a program.

A private name (one leading underscore, not a dunder) stays behind the
module that defines it: the block and replay policy of numkit's RK4, for
one, is reached only through numkit.rk4_path.  A public function or
class that nothing in src, demos or benchmarks names is an unused
helper, unless it is a paper quantity kept on purpose; a defaulted
parameter that no call there sets is a module constant in disguise.
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


def defaulted_parameters(path):
    """(callee, position, name) of each defaulted parameter of path's functions and classes.

    A class is called for its __init__, or for a dataclass, its fields (a
    field(...) default only with default= or default_factory=); a method
    is called on an object, so position does not count self.  position
    is None for a keyword-only parameter.
    """
    tree = ast.parse(path.read_text(), str(path))
    owner = {id(item): node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
             for item in node.body}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            fields = [item for item in node.body if isinstance(item, ast.AnnAssign)]
            for k, item in enumerate(fields):
                value = item.value
                if value is not None and not (
                        isinstance(value, ast.Call) and ast.unparse(value.func) == "field"
                        and not {kw.arg for kw in value.keywords} & {"default", "default_factory"}):
                    found.add((node.name, k, item.target.id))
        elif isinstance(node, ast.FunctionDef):
            args, cls = node.args, owner.get(id(node))
            params = args.posonlyargs + args.args
            pairs = list(zip(params, [None] * (len(params) - len(args.defaults)) + args.defaults))
            if cls is not None and "staticmethod" not in map(ast.unparse, node.decorator_list):
                pairs = pairs[1:]
            callee = cls.name if cls is not None and node.name == "__init__" else node.name
            found |= {(callee, k, p.arg) for k, (p, d) in enumerate(pairs) if d is not None}
            found |= {(callee, None, p.arg) for p, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None}
    return found


def call_arguments(paths):
    """callee name -> [(positional count, starred, keywords)] of every call in paths.

    A call's callee is its bare name or attribute, as named() matches
    definitions; starred is True for *args or **kwargs, which may set any
    parameter after the positional ones.
    """
    calls = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                callee = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                positional = [a for a in node.args if not isinstance(a, ast.Starred)]
                starred = len(positional) < len(node.args) or any(
                    kw.arg is None for kw in node.keywords)
                keywords = {kw.arg for kw in node.keywords}
                calls.setdefault(callee, []).append((len(positional), starred, keywords))
    return calls


def unset_defaults(package_paths, program_paths):
    """'callee(name)' for each defaulted parameter that no call of the programs sets."""
    calls = call_arguments(program_paths)
    defaulted = set().union(*(defaulted_parameters(path) for path in package_paths))
    return {
        "%s(%s)" % (callee, name) for callee, position, name in defaulted
        if not any(starred or name in keywords or (position is not None and position < n)
                   for n, starred, keywords in calls.get(callee, ()))
    }


def test_every_defaulted_parameter_is_set_by_a_program():
    # a parameter no caller outside the tests sets is a module constant
    programs = [path for folder in ("src", "demos", "benchmarks")
                for path in sorted((ROOT / folder).rglob("*.py"))]
    assert unset_defaults(sorted(PACKAGE.glob("*.py")), programs) == set()


def test_default_scan_sees_positions_keywords_methods_and_dataclasses(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "@dataclass(frozen=True)\n"
        "class Report:\n"
        "    name: str\n"
        "    kind: str = 'max'\n"
        "    held: list = field(repr=False)\n"
        "    extra: list = field(default_factory=list)\n"
        "class Error(ValueError):\n"
        "    def __init__(self, value, message=None):\n"
        "        super().__init__(message)\n"
        "    def scaled(self, factor=1.0, *, offset=0.0):\n"
        "        return factor\n"
        "def run(x, steps=None, *, floor=1e-12):\n"
        "    return Report(x, 'min'), Error(x).scaled(2.0), run(x, floor=0.0)\n"
    )
    assert defaulted_parameters(module) == {
        ("Report", 1, "kind"), ("Report", 3, "extra"), ("Error", 1, "message"),
        ("scaled", 0, "factor"), ("scaled", None, "offset"),
        ("run", 1, "steps"), ("run", None, "floor"),
    }
    assert unset_defaults([module], [module]) == {
        "Report(extra)", "Error(message)", "scaled(offset)", "run(steps)"}
    caller = tmp_path / "caller.py"
    caller.write_text("run(1, *rest)\nError(1, **options)\nReport('a', 'b', [], extra=[])\n")
    assert unset_defaults([module], [module, caller]) == {"scaled(offset)"}
