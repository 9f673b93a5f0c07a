import json
import re
from pathlib import Path

from hybridbcs import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def first_block(language):
    pattern = rf"```{language}\n(.*?)```"
    return re.search(pattern, README.read_text(), re.DOTALL).group(1)


def test_library_example_runs_as_written():
    # The first ```python block of README, executed exactly as it stands.
    exec(compile(first_block("python"), str(README), "exec"), {})


def test_config_example_resolves():
    # The first ```json block of README is a config the CLI accepts as it stands.
    cli.resolve_config(json.loads(first_block("json")))
