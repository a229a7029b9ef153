"""No package module reads another package module's private names, and
every public definition, and every defaulted parameter, of the package is
used by a program, and the programs vary every required parameter.

A private name (one leading underscore, not a dunder) stays behind the
module that defines it: the block and replay policy of numkit's RK4, for
one, is reached only through numkit.rk4_path, and other modules step a
run only through numkit's streams.  A public function or
class that nothing in src, demos or benchmarks names is an unused
helper, unless it is a paper quantity kept on purpose; a defaulted
parameter that no call there sets, or a required one that every call
there sets to the same literal, is a module constant in disguise.
"""

import ast
from pathlib import Path

import epiqmap

PACKAGE = Path(epiqmap.__file__).resolve().parent


def is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def sibling_reads(path):
    """(line, 'module.name') for each name path reads from a sibling module.

    A read is an import from a sibling, or an attribute of a sibling
    module imported by name.
    """
    tree = ast.parse(path.read_text(), str(path))
    siblings = {}
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    siblings[alias.asname or alias.name] = alias.name
                else:
                    reads.append((node.lineno, "%s.%s" % (node.module, alias.name)))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings):
            reads.append((node.lineno, "%s.%s" % (siblings[node.value.id], node.attr)))
    return sorted(reads)


def private_reads(path):
    """(line, 'module._name') for each private name path reads from a sibling module."""
    return [(line, name) for line, name in sibling_reads(path)
            if is_private(name.split(".", 1)[1])]


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


# the package's one RK4: a module other than numkit steps a run through
# numkit's streams (ode_chunks, and for the sqrt flow's own fast pass,
# density's rk4_chunks), never by a step matrix or an rk4_path call
RK4_ENTRIES = ("numkit.rk4_step_matrix", "numkit.rk4_path", "numkit.rk4_chunks")


def rk4_readers(paths):
    """{entry: modules} of the modules other than numkit that read each RK4_ENTRIES name."""
    readers = {entry: set() for entry in RK4_ENTRIES}
    for path in paths:
        if path.stem != "numkit":
            for _, name in sibling_reads(path):
                if name in readers:
                    readers[name].add(path.stem)
    return readers


def test_only_numkit_steps_rk4():
    assert rk4_readers(sorted(PACKAGE.glob("*.py"))) == {
        "numkit.rk4_step_matrix": set(), "numkit.rk4_path": set(),
        "numkit.rk4_chunks": {"density"},
    }


def test_rk4_scan_sees_attribute_and_import_reads(tmp_path):
    (tmp_path / "acceptance.py").write_text(
        "from . import numkit as nk\n"
        "nk.rk4_step_matrix(a, a, a)\n"
    )
    (tmp_path / "density.py").write_text(
        "from .numkit import rk4_path\n"
        "from . import numkit\n"
        "numkit.rk4_chunks, numkit.ode_chunks\n"
    )
    (tmp_path / "numkit.py").write_text("from . import numkit\nnumkit.rk4_path\n")
    assert rk4_readers(sorted(tmp_path.glob("*.py"))) == {
        "numkit.rk4_step_matrix": {"acceptance"}, "numkit.rk4_path": {"density"},
        "numkit.rk4_chunks": {"density"},
    }


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


def parameters(path):
    """(callee, position, name, defaulted) of each parameter of path's functions and classes.

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
                defaulted = value is not None and not (
                    isinstance(value, ast.Call) and ast.unparse(value.func) == "field"
                    and not {kw.arg for kw in value.keywords} & {"default", "default_factory"})
                found.add((node.name, k, item.target.id, defaulted))
        elif isinstance(node, ast.FunctionDef):
            args, cls = node.args, owner.get(id(node))
            params = args.posonlyargs + args.args
            pairs = list(zip(params, [None] * (len(params) - len(args.defaults)) + args.defaults))
            if cls is not None and "staticmethod" not in map(ast.unparse, node.decorator_list):
                pairs = pairs[1:]
            callee = cls.name if cls is not None and node.name == "__init__" else node.name
            found |= {(callee, k, p.arg, d is not None) for k, (p, d) in enumerate(pairs)}
            found |= {(callee, None, p.arg, d is not None)
                      for p, d in zip(args.kwonlyargs, args.kw_defaults)}
    return found


def call_arguments(paths):
    """callee name -> [(positional, starred, keywords)] of every call in paths.

    A call's callee is its bare name or attribute, as named() matches
    definitions; positional lists the argument nodes before any *args,
    keywords maps each named argument to its node, and starred is True
    for *args or **kwargs, which may set any parameter after the
    positional ones.
    """
    calls = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                callee = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                positional = [a for a in node.args if not isinstance(a, ast.Starred)]
                starred = len(positional) < len(node.args) or any(
                    kw.arg is None for kw in node.keywords)
                keywords = {kw.arg: kw.value for kw in node.keywords}
                calls.setdefault(callee, []).append((positional, starred, keywords))
    return calls


def unset_defaults(package_paths, program_paths):
    """'callee(name)' for each defaulted parameter that no call of the programs sets."""
    calls = call_arguments(program_paths)
    found = set().union(*(parameters(path) for path in package_paths))
    return {
        "%s(%s)" % (callee, name) for callee, position, name, defaulted in found
        if defaulted and not any(
            starred or name in keywords or (position is not None and position < len(positional))
            for positional, starred, keywords in calls.get(callee, ()))
    }


def literal(node):
    """The source of node if it is a literal (a number, string, tuple...), else None."""
    try:
        ast.literal_eval(node)
    except ValueError:
        return None
    return ast.unparse(node)


# the times and steps a caller runs at are inputs, even when every
# program runs at the same ones
RUN_INPUTS = {"t0", "t", "t1", "dt"}


def constant_arguments(package_paths, program_paths):
    """'callee(name) = value' of each required public parameter every call sets to one literal.

    The run inputs are left out.
    """
    calls = call_arguments(program_paths)
    found = set()
    for callee, position, name, defaulted in set().union(
            *(parameters(path) for path in package_paths)):
        if defaulted or callee.startswith("_") or callee not in calls or name in RUN_INPUTS:
            continue
        values = set()
        for positional, _, keywords in calls[callee]:
            if name in keywords:
                values.add(literal(keywords[name]))
            elif position is not None and position < len(positional):
                values.add(literal(positional[position]))
            else:  # through *args or **kwargs, or not at all
                values.add(None)
        if len(values) == 1 and None not in values:
            found.add("%s(%s) = %s" % (callee, name, values.pop()))
    return found


def test_every_defaulted_parameter_is_set_by_a_program():
    # a defaulted parameter no caller outside the tests sets, or a required
    # one every caller sets to the same literal, is a module constant
    programs = [path for folder in ("src", "demos", "benchmarks")
                for path in sorted((ROOT / folder).rglob("*.py"))]
    package = sorted(PACKAGE.glob("*.py"))
    assert unset_defaults(package, programs) == set()
    assert constant_arguments(package, programs) == set()


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
    assert {p[:3] for p in parameters(module) if p[3]} == {
        ("Report", 1, "kind"), ("Report", 3, "extra"), ("Error", 1, "message"),
        ("scaled", 0, "factor"), ("scaled", None, "offset"),
        ("run", 1, "steps"), ("run", None, "floor"),
    }
    assert unset_defaults([module], [module]) == {
        "Report(extra)", "Error(message)", "scaled(offset)", "run(steps)"}
    caller = tmp_path / "caller.py"
    caller.write_text("run(1, *rest)\nError(1, **options)\nReport('a', 'b', [], extra=[])\n")
    assert unset_defaults([module], [module, caller]) == {"scaled(offset)"}


def test_constant_scan_sees_required_parameters_set_to_one_literal(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "@dataclass\n"
        "class Span:\n"
        "    start: float\n"
        "    width: float = 1.0\n"
        "class Stepper:\n"
        "    def step(self, h, *, order):\n"
        "        return h\n"
        "def residual(generator, h, t1):\n"
        "    return Stepper().step(h, order=4), Span(0.0)\n"
        "def _helper(h):\n"
        "    return h\n"
    )
    assert {p for p in parameters(module) if not p[3]} == {
        ("Span", 0, "start", False), ("step", 0, "h", False), ("step", None, "order", False),
        ("residual", 0, "generator", False), ("residual", 1, "h", False),
        ("residual", 2, "t1", False), ("_helper", 0, "h", False),
    }
    caller = tmp_path / "caller.py"
    caller.write_text(
        "residual(g, 1e-5, 2.0)\nresidual(s, h=1e-5, t1=2.0)\n_helper(0.5)\n"
        "Stepper().step(0.1, order=4)\nSpan(start=-0.0)\n"
    )
    # t1 is a run input; the module's own call sets step's h to a name,
    # and Span's start to 0.0
    assert constant_arguments([module], [module, caller]) == {"residual(h) = 1e-05",
                                                                "step(order) = 4"}
    assert constant_arguments([module], [caller]) == {
        "residual(h) = 1e-05", "step(h) = 0.1", "step(order) = 4", "Span(start) = -0.0"}
