"""The README's CLI examples, run through cli.main: each example that shows
output must print exactly that output.  A terminal expands tabs to 8
columns, and so does the README; elapsed_ms is wall time and only its key
is compared."""

import ast
import importlib
import os
import re
import shlex

import pytest

from hankelrise.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
README = os.path.join(ROOT, "README.md")
SRC = os.path.join(ROOT, "src", "hankelrise")
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


def _package_modules():
    names = sorted(name[:-3] for name in os.listdir(SRC) if name.endswith(".py") and not name.startswith("_"))
    return {name: importlib.import_module(f"hankelrise.{name}") for name in names}


def _docstrings():
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as stream:
                tree = ast.parse(stream.read())
            for node in ast.walk(tree):
                if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield name, ast.get_docstring(node) or ""


def test_docs_name_only_attributes_that_exist():
    # every `module.name` code span in README.md, and every module.name in
    # a src/hankelrise docstring, names an attribute of that module
    modules = _package_modules()
    pattern = "({})\\.([A-Za-z_]\\w*)".format("|".join(modules))
    with open(README, encoding="utf-8") as stream:
        references = [("README.md", m) for m in re.findall("`" + pattern, stream.read())]
    for where, doc in _docstrings():
        references += [(where, m) for m in re.findall(r"\b" + pattern, doc)]
    assert references
    missing = [(where, f"{module}.{name}") for where, (module, name) in references if not hasattr(modules[module], name)]
    assert missing == []
