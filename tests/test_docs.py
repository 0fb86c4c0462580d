"""The documentation runs: every demo script and every README command line."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from sigmabuild.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def readme_commands():
    """(argv, expected exit code) of each `sigmabuild` line of the README's Command line block."""
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## Command line.*?```sh\n(.*?)```", text, re.S).group(1)
    out = []
    for line in block.splitlines():
        if line.startswith("sigmabuild "):
            argv = shlex.split(line, comments=True)[1:]
            out.append(pytest.param(argv, 1 if "# exit 1" in line else 0, id=" ".join(argv)))
    return out


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout and not run.stderr


@pytest.mark.parametrize("argv, code", readme_commands())
def test_readme_command_line(argv, code, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if argv[:2] == ["homology", "betti"]:
        # the input is an exported complex: a tree, whose reduced Betti numbers vanish
        assert main(["building", "grow", "--n", "2", "--p", "2", "--radius", "2", "--export-cells"]) == 0
        (tmp_path / "complex.json").write_text(capsys.readouterr().out)
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert out if code == 0 else err
    if argv[:2] == ["homology", "betti"]:
        assert out == "dim,betti\n0,0\n1,0\n"


def test_readme_block_is_read():
    codes = [param.values[1] for param in readme_commands()]
    assert len(codes) == 15 and codes.count(1) == 1


RETRACT_TREE = """\
{
  "retraction": {
    "((Fraction(1, 1), Fraction(0, 1)), (Fraction(0, 1), Fraction(1, 1)))": [
      "0"
    ],
    "((Fraction(1, 1), Fraction(0, 1)), (Fraction(0, 1), Fraction(2, 1)))": [
      "1/2"
    ],
    "((Fraction(2, 1), Fraction(0, 1)), (Fraction(0, 1), Fraction(1, 1)))": [
      "-1/2"
    ],
    "((Fraction(2, 1), Fraction(1, 1)), (Fraction(0, 1), Fraction(1, 1)))": [
      "-1/2"
    ],
    "((Fraction(4, 1), Fraction(0, 1)), (Fraction(0, 1), Fraction(1, 1)))": [
      "-1"
    ],
    "((Fraction(4, 1), Fraction(2, 1)), (Fraction(0, 1), Fraction(1, 1)))": [
      "-1"
    ]
  },
  "vertices": 6
}
"""


def test_building_retract_output_is_pinned(capsys):
    # the six vertices of the radius-1 tree ball at p = 2, keyed by their
    # printed Fraction forms, with the kappa-value of their retraction image
    assert main(["building", "retract", "--n", "2", "--p", "2", "--radius", "1", "--format", "json"]) == 0
    assert capsys.readouterr().out == RETRACT_TREE
