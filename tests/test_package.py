"""The package's public names are the modules' __all__ lists, joined."""

import ast
import collections
import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import theta_factor
from theta_factor import branching, codimension, factorization, parabolic, partitions, symmetric_functions

MODULES = (branching, codimension, factorization, parabolic, partitions, symmetric_functions)

# the package's public names; each one is read somewhere outside the unit
# tests (test_every_public_name_is_read)
EXPORTED = [
    "BoundaryData", "BoxViolationError", "BranchingTable", "ContainmentError",
    "DecompositionTree", "FlagType", "LeafOracleError", "MarkedPoint", "ModuliSpec",
    "Partition", "SchurExpansion", "StratumDatum", "WeightVector", "__version__",
    "aggregate_dimension", "box_count", "build_tree", "check_star",
    "complement_in_box", "complete_intersection_height", "decompose_rectangular", "degenerate",
    "dim_schur", "double_det_dim", "enumerate_in_box", "gps_codim_bounds", "lr_coefficient",
    "lr_expand", "mu_indices", "mu_to_boundary", "partial_sums", "partitions_of",
    "quot_codim_bounds", "rectangular_lr_is_delta", "schubert_codim", "skew_schur_expand",
    "stability_gap", "telescoping_check", "verify_boundary_balance", "verify_branching_identity",
]

# The files whose reads keep a public name: the package, the demos, the
# benchmark and the acceptance test.  A name only its unit tests read has no
# caller, and goes; so does a public attribute of an exported class.
READERS = ("src/theta_factor/*.py", "demos/*.py", "bench/*.py", "tests/test_acceptance.py")


def reader_sources():
    root = Path(__file__).resolve().parent.parent
    for pattern in READERS:
        paths = sorted(root.glob(pattern))
        assert paths, pattern
        yield from (path.read_text() for path in paths)


def test_all_is_the_module_lists_joined():
    names = theta_factor.__all__
    assert names == [name for module in MODULES for name in module.__all__] + ["__version__"]
    assert len(set(names)) == len(names)
    assert sorted(names) == sorted(EXPORTED)


def test_each_name_is_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(theta_factor, name) is getattr(module, name), (module.__name__, name)
    namespace = {}
    exec("from theta_factor import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(theta_factor.__all__)


def test_init_defines_only_the_version_and_the_list():
    tree = ast.parse(inspect.getsource(theta_factor))
    defined = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            assert node.level == 1 and [alias.name for alias in node.names] == ["*"]
        elif isinstance(node, ast.Assign):
            defined += [target.id for target in node.targets]
        else:
            # only the docstring
            assert isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
    assert defined == ["__version__", "__all__"]


def loaded_names(source: str) -> set[str]:
    """The names and attribute names that source reads (a Load, not a store or an import)."""
    loaded = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            loaded.add(node.attr)
    return loaded


def test_loaded_names_are_found():
    source = (
        "from .a import imported\n"
        "__all__ = ['listed']\n"
        "stored = module.attribute(called())\n"
        "module.assigned = stored\n"
    )
    assert loaded_names(source) == {"module", "attribute", "called", "stored"}


def test_every_public_name_is_read():
    read = set().union(*map(loaded_names, reader_sources()))
    assert [name for name in theta_factor.__all__ if name != "__version__" and name not in read] == []


def read_attributes(source: str) -> set[str]:
    """The attribute names that source reads: name in x.name as a Load."""
    return {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def public_attributes(cls) -> set[str]:
    """The public methods, properties and dataclass or namedtuple fields that cls itself defines."""
    names = {field.name for field in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
    names.update(getattr(cls, "_fields", ()))
    for name, value in vars(cls).items():
        if not name.startswith("_") and (
            inspect.isfunction(value) or isinstance(value, (property, classmethod, staticmethod))
        ):
            names.add(name)
    return names


def test_attribute_reads_are_found():
    source = (
        "from .a import imported\n"
        "value = module.attribute(name).method()\n"
        "module.assigned = value\n"
        "del module.deleted\n"
    )
    assert read_attributes(source) == {"attribute", "method"}


def test_public_attributes_are_found():
    @dataclasses.dataclass
    class Example:
        field: int
        derived: int = dataclasses.field(init=False)

        def method(self):
            pass

        @property
        def prop(self):
            pass

        @classmethod
        def maker(cls):
            pass

        def _private(self):
            pass

    assert public_attributes(Example) == {"field", "derived", "method", "prop", "maker"}

    # a record, as the package's are: a subclass of _Record and of a namedtuple of its fields
    class Record(partitions._Record, collections.namedtuple("Record", "field derived")):
        __slots__ = ()

        def method(self):
            pass

        @property
        def prop(self):
            pass

        @staticmethod
        def _private():
            pass

    assert public_attributes(Record) == {"field", "derived", "method", "prop"}


def test_every_public_attribute_is_read():
    read = set().union(*map(read_attributes, reader_sources()))
    classes = [getattr(theta_factor, name) for name in theta_factor.__all__]
    unread = [
        f"{cls.__name__}.{name}"
        for cls in classes
        if isinstance(cls, type)
        for name in sorted(public_attributes(cls) - read)
    ]
    assert unread == []


def unused_imports(source: str) -> list[str]:
    """Names a module imports at its top level and never reads.

    A name counts as read where it appears as a name in the code (an
    annotation included) or as a string in __all__; star imports and
    __future__ imports bind nothing to check.
    """
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names if alias.name != "*"]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read |= {item.value for item in ast.walk(node.value) if isinstance(item, ast.Constant)}
    return [name for name in imported if name not in read]


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "import json.encoder\n"
        "from .a import *\n"
        "from .b import kept, listed, dropped as alias\n"
        "__all__ = ['listed']\n"
        "def f(x: kept):\n"
        "    return json.encoder\n"
    )
    assert unused_imports(source) == ["os", "osp", "alias"]


def test_no_module_imports_a_name_it_never_uses():
    paths = sorted(Path(theta_factor.__file__).parent.glob("*.py"))
    assert len(paths) == len(MODULES) + 2
    for path in paths:
        assert unused_imports(path.read_text()) == [], path.name


def test_no_module_asserts():
    # python -O drops assert statements, so a check the package relies on raises
    for path in sorted(Path(theta_factor.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)] == [], path.name


def test_the_cli_loads_no_fractions():
    # only codimension.stability_gap uses Fraction, and it imports fractions when called
    env = dict(os.environ, PYTHONPATH=str(Path(theta_factor.__file__).parents[1]))
    code = "import sys, theta_factor.cli; print('fractions' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stdout, run.stderr) == (0, "False\n", "")


@pytest.mark.parametrize("argv", [
    ["dims", "--partition", "[2,1]", "--vars", "3"],
    ["decompose", "SPEC", "--oracle", "const:1", "--format", "text"],
    ["decompose", "SPEC"],
    ["verify-star", "SPEC"],
    ["identities", "--max-rank", "3", "--max-level", "3"],
    ["branch", "--rank", "2", "--power", "3"],
    ["codim", "schubert", "--r1", "2", "--n", "[2,2]", "--m", "[0,2]"],
], ids=lambda argv: " ".join(argv[:3]))
def test_no_cli_command_loads_dataclasses_inspect_or_fractions(tmp_path, argv):
    # each command in a fresh interpreter: the records are tuples, and only stability_gap imports fractions
    spec = tmp_path / "spec.json"
    spec.write_text('{"genus": 2, "rank": 2, "degree": 4, "level": 3, "ell": 3, "points": []}')
    argv = [str(spec) if arg == "SPEC" else arg for arg in argv]
    env = dict(os.environ, PYTHONPATH=str(Path(theta_factor.__file__).parents[1]))
    code = (
        "import sys\nfrom theta_factor import cli\nstatus = cli.run(sys.argv[1:])\n"
        "loaded = [name for name in ('dataclasses', 'fractions', 'inspect') if name in sys.modules]\n"
        "sys.stderr.write(repr(loaded))\nsys.exit(status)\n"
    )
    run = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stderr) == (0, "[]")
    assert run.stdout


def defined_functions():
    """(qualified name, function) for each function and method a src/theta_factor/*.py file defines.

    A method is a class's function, staticmethod, classmethod or property
    getter; a cached function is unwrapped; methods a class inherits (a
    record's namedtuple base makes its field getters, and __new__ where the
    record defines none) are not its own, and are left out.
    """
    for path in sorted(Path(theta_factor.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"theta_factor.{path.stem}" if path.stem != "__init__" else "theta_factor")
        values = [value for value in vars(module).values() if getattr(value, "__module__", None) == module.__name__]
        members = [member for cls in values if inspect.isclass(cls) for member in vars(cls).values()]
        for value in values + members:
            value = inspect.unwrap(getattr(value, "fget", None) or getattr(value, "__func__", value))
            if inspect.isfunction(value) and Path(value.__code__.co_filename) == path:
                yield f"{module.__name__}.{value.__qualname__}", value


def test_every_annotation_resolves():
    # an annotation names only what its module binds at run time, so typing can read it
    found = dict(defined_functions())
    assert {"theta_factor.codimension.stability_gap", "theta_factor.cli._check_work"} <= set(found)
    assert "theta_factor.parabolic.ModuliSpec.from_json_dict" in found
    for name, function in found.items():
        try:
            typing.get_type_hints(function)
        except NameError as exc:
            raise AssertionError(f"{name}: {exc}") from None


BENCH = Path(__file__).resolve().parent.parent / "bench"


def assigned_value(path: Path, name: str):
    """The literal a module assigns to name at its top level, read with ast, not imported."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(target, "id", None) == name for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} assigns no {name}")


def wrapped_by_name(path: Path) -> set[str]:
    """The span names a module passes as a string literal to a .wrap(...) call."""
    return {
        node.args[0].value
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "wrap"
        and node.args and isinstance(node.args[0], ast.Constant)
    }


def defined_function(dotted: str) -> bool:
    """Whether layer.function or layer.Class.method names a function or method theta_factor defines there."""
    layer, *names = dotted.split(".")
    try:
        owner = importlib.import_module(f"theta_factor.{layer}")
    except ModuleNotFoundError:
        return False
    for name in names[:-1]:
        owner = vars(owner).get(name) if owner is not None else None
    value = vars(owner).get(names[-1]) if owner is not None else None
    value = value.__func__ if isinstance(value, classmethod) else value
    return inspect.isfunction(value) and value.__module__ == f"theta_factor.{layer}"


def test_defined_functions_are_found():
    assert all(map(defined_function, ["cli.run", "factorization.build_tree", "parabolic.ModuliSpec.from_json_dict"]))
    assert not any(map(defined_function, [
        "cli.nothing", "nothing.run", "factorization.check_star", "factorization.DecompositionTree.nothing",
        "parabolic.ModuliSpec.genus", "factorization.leaf_oracle",
    ]))


def test_the_benchmark_names_only_functions_that_exist():
    # bench/tracer.py wraps each METHODS entry by name, and bench/run.py reports a
    # span per SPANNED name; a rename under src/ would break a traced run or read 0
    wrapped = assigned_value(BENCH / "tracer.py", "METHODS")
    methods = [f"{layer}.{dotted}" for layer, names in wrapped.items() for dotted in names]
    spanned = assigned_value(BENCH / "run.py", "SPANNED")
    # spans the benchmark records around its own callables, such as the leaf oracle
    own = set().union(*map(wrapped_by_name, sorted(BENCH.glob("*.py"))))
    assert methods and spanned and own == {"factorization.leaf_oracle"}
    assert [name for name in [*methods, *spanned] if name not in own and not defined_function(name)] == []
