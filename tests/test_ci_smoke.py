"""The install-smoke job of .github/workflows/tests.yml, replayed on this
checkout: each of its steps whose run: calls hankelrise runs under bash -e,
as the job's default shell does, in its own temporary directory.  A
hankelrise shim on PATH runs ``python -m hankelrise`` on this checkout's
src/, so the pins (sha256 sums, counts, exit codes) live in the workflow
file only and are checked here too."""

import os
import shlex
import shutil
import subprocess
import sys

import pytest

yaml = pytest.importorskip("yaml")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKFLOW = os.path.join(ROOT, ".github", "workflows", "tests.yml")


def _smoke_steps():
    with open(WORKFLOW, encoding="utf-8") as stream:
        steps = yaml.safe_load(stream)["jobs"]["install-smoke"]["steps"]
    return [step for step in steps if "hankelrise" in step.get("run", "")]


STEPS = _smoke_steps()


@pytest.mark.skipif(shutil.which("bash") is None, reason="the steps are bash scripts")
@pytest.mark.parametrize("step", STEPS, ids=[step["name"] for step in STEPS])
def test_install_smoke_step_passes(step, tmp_path):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "hankelrise"
    src = os.path.join(ROOT, "src")
    shim.write_text(
        f'#!/bin/sh\nPYTHONPATH={shlex.quote(src)} exec {shlex.quote(sys.executable)} -m hankelrise "$@"\n'
    )
    shim.chmod(0o755)
    script = tmp_path / "step.sh"
    script.write_text(step["run"])
    work = tmp_path / "work"
    work.mkdir()
    env = dict(os.environ, PATH=f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}")
    result = subprocess.run(["bash", "-e", str(script)], cwd=work, env=env, capture_output=True, text=True)
    assert result.returncode == 0, (result.stdout[-2000:], result.stderr[-2000:])
