"""The README's CLI examples, run through cli.main: each example that shows
output must print exactly that output.  A terminal expands tabs to 8
columns, and so does the README; elapsed_ms is wall time and only its key
is compared."""

import os
import re
import shlex

import pytest

from hankelrise.cli import main

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
_ELAPSED = re.compile(r'"elapsed_ms": \d+')


def _cli_examples():
    with open(README, encoding="utf-8") as stream:
        text = stream.read()
    block = re.search(r"^## CLI\n.*?^```\n(.*?)^```", text, re.M | re.S).group(1)
    examples = []
    for chunk in re.split(r"^(?=\$ hankelrise )", block, flags=re.M):
        if not chunk.startswith("$ hankelrise "):
            continue
        command, _, output = chunk.partition("\n")
        output = output.rstrip("\n")
        if output:
            examples.append((command[len("$ hankelrise "):], output + "\n"))
    return examples


EXAMPLES = _cli_examples()


def test_examples_were_found():
    assert len(EXAMPLES) == 5


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[command for command, _ in EXAMPLES])
def test_cli_example_prints_its_readme_output(command, expected, capsys):
    code = main(shlex.split(command))
    out = capsys.readouterr().out.expandtabs()
    assert code == 0
    assert _ELAPSED.sub('"elapsed_ms": _', out) == _ELAPSED.sub('"elapsed_ms": _', expected)
