import ast
import importlib
import inspect
import json
import re
from pathlib import Path

from hybridbcs import cli

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = README.parent / "src" / "hybridbcs"


def first_block(language):
    pattern = rf"```{language}\n(.*?)```"
    return re.search(pattern, README.read_text(), re.DOTALL).group(1)


def test_library_example_runs_as_written():
    # The first ```python block of README, executed exactly as it stands.
    exec(compile(first_block("python"), str(README), "exec"), {})


def test_config_example_resolves():
    # The first ```json block of README is a config the CLI accepts as it stands.
    cli.resolve_config(json.loads(first_block("json")))


def defined_names(path):
    """The functions, classes, variables and attributes a module assigns."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return names


def test_private_names_in_readme_are_defined():
    # Every backticked private name, `_name` or `module._name`, is defined in
    # the package (in that module when one is named), so the docs cannot go on
    # naming a helper after it is deleted.
    defined = {path.stem: defined_names(path) for path in SRC.glob("*.py")}
    anywhere = set().union(*defined.values())
    stale = [f"{module}.{name}" if module else name
             for module, name in re.findall(r"`(?:(\w+)\.)?(_\w+)`", README.read_text())
             if name not in (defined.get(module, ()) if module else anywhere)]
    assert not stale, stale


def test_signatures_in_readme_match_the_code():
    # Every backticked call `name(a, b)` or `module.name(a, b)` of a hybridbcs
    # function or class whose arguments are all names gives the leading
    # parameter names of its signature, so a signature change must reach README.
    modules = {path.stem: importlib.import_module(f"hybridbcs.{path.stem}")
               for path in SRC.glob("*.py") if path.stem != "__init__"}
    public = {name: obj for module in modules.values() for name, obj in vars(module).items()
              if (inspect.isfunction(obj) or inspect.isclass(obj))
              and obj.__module__.startswith("hybridbcs.")}
    stale, checked = [], 0
    for module, name, args in re.findall(r"`(?:(\w+)\.)?(\w+)\(([^`()]*)\)`",
                                         README.read_text()):
        if module and module not in modules:  # a method, as in `cluster.random_state(rng)`
            continue
        obj = getattr(modules[module], name, None) if module else public.get(name)
        args = [arg.strip() for arg in args.split(",")] if args.strip() else []
        if obj is None or not all(arg.isidentifier() for arg in args):
            continue
        checked += 1
        if list(inspect.signature(obj).parameters)[:len(args)] != args:
            stale.append(f"{module + '.' if module else ''}{name}({', '.join(args)})")
    assert checked and not stale, stale


def functions_in(path):
    """The names of the module-level functions of a Python file; none if it is missing."""
    if not path.exists():
        return set()
    return {node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.FunctionDef)}


def test_test_references_in_readme_exist():
    # Every backticked `test_file::test_name` (or `tests/test_file.py::test_name`)
    # names a test function of that file, so a law cannot go on citing a test
    # after it is renamed or deleted.
    refs = re.findall(r"`(?:tests/)?(test_\w+?)(?:\.py)?::(\w+)`", README.read_text())
    stale = [f"{module}::{name}" for module, name in refs
             if name not in functions_in(README.parent / "tests" / f"{module}.py")]
    assert refs and not stale, stale
