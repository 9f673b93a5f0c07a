import ast
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
