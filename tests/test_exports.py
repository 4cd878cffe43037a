"""The export lists name exactly what the package and its modules provide,
the modules import each other without a cycle, none reads the environment,
and each release contract in ``verify`` runs in both of its suites.

A deleted function must leave every ``__all__`` that named it, a name the
package offers must be in the package's ``__all__``, and the package offers
every library module's ``__all__``.
"""

import ast
import graphlib
import importlib
import pkgutil
import types
from pathlib import Path

import pytest

import extremal_info

MODULES = sorted(info.name for info in pkgutil.iter_modules(extremal_info.__path__))
SOURCES = sorted(Path(extremal_info.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_every_module_export_resolves(name):
    module = importlib.import_module(f"extremal_info.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_every_package_export_resolves():
    exported = extremal_info.__all__
    assert [n for n in exported if not hasattr(extremal_info, n)] == []
    assert len(set(exported)) == len(exported)


def test_no_name_is_exported_by_two_modules():
    # a name is declared once, where it is defined
    owners = {}
    for name in MODULES:
        for export in importlib.import_module(f"extremal_info.{name}").__all__:
            owners.setdefault(export, []).append(name)
    assert {export: names for export, names in owners.items() if len(names) > 1} == {}


def _reads_the_environment(node) -> bool:
    """``os.environ``, ``os.getenv`` or either imported from ``os``."""
    if isinstance(node, ast.Attribute):
        return isinstance(node.value, ast.Name) and node.value.id == "os" and node.attr in ("environ", "getenv")
    if isinstance(node, ast.ImportFrom):
        return node.module == "os" and any(a.name in ("environ", "getenv") for a in node.names)
    return False


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_no_module_reads_the_environment(path):
    # a call's result and a command's output depend on its arguments alone
    tree = ast.parse(path.read_text())
    assert [node.lineno for node in ast.walk(tree) if _reads_the_environment(node)] == []


def test_package_exports_every_library_module():
    # the package re-exports each module's __all__, so a new module or name
    # cannot be left out; the CLI and the verification suite stay outside
    library = [name for name in MODULES if name not in ("cli", "verify")]
    exported = {n for name in library for n in importlib.import_module(f"extremal_info.{name}").__all__}
    assert set(extremal_info.__all__) == exported


def test_version_is_the_pyproject_version():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with (Path(__file__).resolve().parents[1] / "pyproject.toml").open("rb") as f:
        assert extremal_info.__version__ == tomllib.load(f)["project"]["version"]


def test_package_public_attributes_are_its_exports():
    public = {
        name
        for name, value in vars(extremal_info).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(extremal_info.__all__)


def _package_modules(node) -> list[str]:
    """Package modules an import statement loads; a name that is not a
    module comes from the package itself, ``__init__``."""
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    elif isinstance(node, ast.ImportFrom):
        module = ".".join(filter(None, ["extremal_info" if node.level else "", node.module]))
        if module == "extremal_info":
            return [a.name if a.name in MODULES else "__init__" for a in node.names]
        names = [module]
    else:
        return []
    return [name.split(".")[1] for name in names if name.startswith("extremal_info.")]


def _import_graph():
    """(module -> modules it imports at load time, {(module, function, target)}
    for imports made inside a function)."""
    graph, local = {}, set()
    for path in SOURCES:
        graph[path.stem] = set()

        def visit(node, function):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit(child, child.name if function is None else f"{function}.{child.name}")
                    continue
                for target in _package_modules(child):
                    if function is None:
                        graph[path.stem].add(target)
                    else:
                        local.add((path.stem, function, target))
                visit(child, function)

        visit(ast.parse(path.read_text()), None)
    return graph, local


def test_module_level_imports_form_a_dag():
    graph, _ = _import_graph()
    assert set(MODULES) <= set(graph)
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError on a cycle


def test_the_only_function_local_import_is_verify_in_the_cli():
    _, local = _import_graph()
    assert local == {("cli", "cmd_verify", "verify")}


def _private_numerics_names() -> set[tuple[str, str]]:
    """(module, name) of every private ``numerics`` name another module of
    the package reads, as ``numerics._name`` or ``from .numerics import
    _name``."""
    names = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "numerics":
                read = [node.attr]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "numerics":
                read = [a.name for a in node.names]
            else:
                continue
            names |= {(path.stem, name) for name in read if name.startswith("_")}
    return names


def test_numerics_keeps_its_quadrature_state_to_itself():
    # The panels, the factor tables and the adaptive loop are numerics'
    # own: measures hands it a (member, n) cell and takes both Monte Carlo
    # estimates of one draw, verify takes its Monte Carlo sweep and the CLI
    # its sample-count and seed rules, and no other module reads a private
    # numerics name.
    assert _private_numerics_names() == {
        ("measures", "_cell"),
        ("measures", "_mc"),
        ("verify", "_mc_sweep"),
        ("cli", "_check_samples"),
        ("cli", "_check_seed"),
    }


def _contracts_and_their_callers():
    """(the ``@_contract`` functions of ``verify``, the functions ``run_all``
    reaches through its body's names, the ``verify.<name>`` calls of the
    acceptance suite)."""
    functions = {
        node.name: node
        for node in ast.parse((Path(extremal_info.__file__).parent / "verify.py").read_text()).body
        if isinstance(node, ast.FunctionDef)
    }
    contracts = {
        name
        for name, node in functions.items()
        if any(isinstance(d, ast.Name) and d.id == "_contract" for d in node.decorator_list)
    }
    reached, todo = set(), ["run_all"]
    while todo:
        name = todo.pop()
        if name in functions and name not in reached:
            reached.add(name)
            todo.extend(n.id for n in ast.walk(functions[name]) if isinstance(n, ast.Name))
    suite = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text())
    called = {
        node.func.attr
        for node in ast.walk(suite)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "verify"
    }
    return contracts, reached, called


def test_every_contract_runs_in_verify_and_in_the_acceptance_suite():
    # a release check is written once, as a contract, so that neither suite
    # restates it and none is orphaned
    contracts, reached, called = _contracts_and_their_callers()
    assert contracts
    assert sorted(contracts - reached) == []
    assert sorted(contracts - called) == []


def _object_new_sites() -> set[tuple[str, str | None]]:
    """(module, enclosing function) of every ``object.__new__`` in the package."""
    sites = set()
    for path in SOURCES:

        def visit(node, function):
            for child in ast.iter_child_nodes(node):
                inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
                if (
                    isinstance(child, ast.Attribute)
                    and child.attr == "__new__"
                    and isinstance(child.value, ast.Name)
                    and child.value.id == "object"
                ):
                    sites.add((path.stem, function))
                visit(child, inner)

        visit(ast.parse(path.read_text()), None)
    return sites


def test_only_the_one_builder_skips_a_dataclass_s_checks():
    # a result built from checked parts goes through special._from_checked,
    # so no module skips a public dataclass's __init__ on its own
    assert _object_new_sites() == {("special", "_from_checked")}


def _sites(wanted: str) -> set[tuple[str, str]]:
    """(module, top-level function) of every read of the name ``wanted`` in
    the package, bare or as an attribute."""
    sites = set()
    for path in SOURCES:
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
                if name == wanted and isinstance(node.ctx, ast.Load):
                    sites.add((path.stem, getattr(top, "name", None)))
    return sites


def test_only_the_one_helper_takes_an_extropy_in_decimal():
    # a closed J past the direct form's doubles is taken from ln|J| in
    # decimal by distributions._closed_extropy alone, so no record keeps a
    # fallback of its own
    assert _sites("localcontext") == {("distributions", "_closed_extropy")}


def test_one_core_chooses_every_route():
    # measures._measures alone maps a method alias, runs a quadrature cell
    # and, within measures, draws Monte Carlo; every public measure, bounds
    # report, the CLI and verify reach a route through it
    assert _sites("_METHOD_ALIASES") == {("measures", "_measures")}
    assert _sites("_quadrature") == {("measures", "_measures")}
    assert {site for site in _sites("_mc") if site[0] == "measures"} == {("measures", "_measures")}
