"""The command-line surface: subcommands, exit codes, formats."""

import json
import re

import pytest

from sigmabuild.building import grow_truncation
from sigmabuild.cli import main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rootsys_show_json(capsys):
    code, out, _ = run(capsys, ["rootsys", "show", "--family", "A", "--rank", "2", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["root_count"] == 6
    assert data["cartan_matrix"] == [["2", "-1"], ["-1", "2"]]
    # exact rationals serialize as p/q strings
    assert all(isinstance(x, str) for row in data["gram"] for x in row)


def test_rootsys_rejects_bad_rank(capsys):
    code, _, err = run(capsys, ["rootsys", "show", "--family", "C", "--rank", "1"])
    assert code == 1
    assert "rank" in err


def test_sigma_verdict_exit_codes(capsys):
    code, out, _ = run(
        capsys,
        ["sigma", "verdict", "--n", "3", "--primes", "2", "--chi", "1,-1", "--k", "9", "--format", "json"],
    )
    assert code == 0
    assert json.loads(out)["kind"] == "certain-in"


def test_sigma_fintype(capsys):
    code, out, _ = run(
        capsys,
        ["sigma", "fintype", "--n", "3", "--primes", "2,3",
         "--kernel-of", "1,1,1,3", "--k", "4", "--format", "json"],
    )
    assert code == 0
    assert json.loads(out)["kind"] == "certain-out"


def test_building_grow_dot_vertex_count(capsys):
    code, out, _ = run(capsys, ["building", "grow", "--n", "2", "--p", "2", "--radius", "2", "--format", "dot"])
    assert code == 0
    assert out.count("label") == 10  # 1 + 3 + 6 vertices


def test_coxeter_deconstruct_error_path(capsys):
    code, _, err = run(
        capsys,
        ["coxeter", "deconstruct", "--family", "A", "--rank", "2",
         "--window=-2:1", "--full-window", "--gapped"],
    )
    assert code == 1
    assert "witness" in err


def test_coxeter_deconstruct_sector(capsys):
    code, out, _ = run(
        capsys,
        ["coxeter", "deconstruct", "--family", "A", "--rank", "2", "--window=-2:1", "--format", "json"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["all_certificates_ok"]
    assert data["steps"] >= 1


def test_sphere_opp(capsys):
    code, out, _ = run(capsys, ["sphere", "opp", "--n", "3", "--q", "2", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["betti"][0] == 0 and data["betti"][1] >= 1


def test_homology_betti_roundtrip(tmp_path, capsys):
    code, out, _ = run(
        capsys, ["coxeter", "export", "--family", "A", "--rank", "1", "--window=-1:0", "--format", "json"]
    )
    assert code == 0
    path = tmp_path / "complex.json"
    path.write_text(out)
    code, out, _ = run(capsys, ["homology", "betti", "--input", str(path), "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "dim,betti"
    assert lines[1] == "0,0"  # interval: connected
    assert lines[2] == "1,0"


def test_sigma_fintype_multiple_generators(capsys):
    # span of two characters: contains a support-1 non-negative ray
    code, out, _ = run(
        capsys,
        ["sigma", "fintype", "--n", "3", "--primes", "2,3",
         "--kernel-of", "1,1,0,0;0,1,0,0", "--k", "1", "--format", "json"],
    )
    assert code == 0
    assert json.loads(out)["kind"] == "certain-out"


def test_building_outputs_print_canonical_forms(capsys):
    # cells are int tuples inside a truncation; the CLI prints their forms
    trunc = grow_truncation(3, 2, 1)

    def forms(cell):
        return str(tuple(trunc.vertices[v] for v in cell))

    argv = ["building", "grow", "--n", "3", "--p", "2", "--radius", "1"]
    code, out, _ = run(capsys, argv + ["--export-cells"])
    assert code == 0
    assert [c["key"] for c in json.loads(out)["cells"]] == [forms(c) for c in trunc.complex.cells()]
    code, out, _ = run(capsys, argv + ["--format", "dot"])
    assert code == 0
    labels = re.findall(r'label="(.*)"\]', out)
    assert labels == [forms(c) for c in trunc.complex.cells(2)]
    assert all("Fraction(" in label for label in labels)
    code, out, _ = run(capsys, ["building", "retract", "--n", "3", "--p", "2", "--radius", "1",
                                "--format", "json"])
    assert code == 0
    assert sorted(json.loads(out)["retraction"]) == sorted(str(f) for f in trunc.vertices)


def test_building_superlevel_and_cone_chain(capsys):
    code, out, _ = run(
        capsys,
        ["building", "superlevel", "--n", "2", "--p", "2", "--radius", "3",
         "--height", "-1", "--r", "0", "--format", "json"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["cells"] > 0
    code, out, _ = run(
        capsys,
        ["building", "cone-chain", "--n", "2", "--p", "2", "--radius", "6",
         "--height", "-1", "--r", "3", "--format", "json"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["boundary_size"] == 2
    # level beyond the radius: precondition failure with exit 1
    code, _, err = run(
        capsys,
        ["building", "cone-chain", "--n", "2", "--p", "2", "--radius", "2",
         "--height", "-1", "--r", "10"],
    )
    assert code == 1
    assert "realizable" in err


def test_cone_chain_internal_error_is_not_a_precondition_failure(monkeypatch, capsys):
    # only a BuildingError is a mathematical precondition; a bug must surface
    def broken(*args):
        raise RuntimeError("internal bug")

    monkeypatch.setattr("sigmabuild.cli.cone_chain", broken)
    with pytest.raises(RuntimeError, match="internal bug"):
        main(["building", "cone-chain", "--n", "2", "--p", "2", "--radius", "2",
              "--height", "-1", "--r", "1"])
    assert "precondition failed" not in capsys.readouterr().err


def test_certify_small_suite_deterministic(capsys):
    code1, out1, _ = run(capsys, ["certify", "--suite", "sigma", "--seed", "42"])
    code2, out2, _ = run(capsys, ["certify", "--suite", "sigma", "--seed", "42"])
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["passed"]


def test_certify_relations_suite(capsys):
    code, out, _ = run(capsys, ["certify", "--suite", "relations", "--seed", "7"])
    assert code == 0
    report = json.loads(out)
    assert [c["name"] for c in report["criteria"]] == [
        "steinberg-relations",
        "character-machinery",
    ]


def test_certify_rejects_threads_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_sigma_verdict_rejects_non_prime(capsys):
    code, _, err = run(
        capsys, ["sigma", "verdict", "--n", "3", "--primes", "4", "--chi", "1,-1", "--k", "1"]
    )
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


def assert_usage_error(code, err, *fragments):
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    for fragment in fragments:
        assert fragment in err


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["verdict", "--chi", "1,-1,3"], "length 3, expected 2"),
        (["fintype", "--kernel-of", "1,1;1,-1,3"], "length 3, expected 2"),
        (["verdict", "--chi", "1,x"], "'1,x'"),
        (["verdict", "--chi", "1/0,1"], "'1/0,1'"),
        (["verdict", "--primes", "2,y", "--chi", "1,1"], "'y'"),
        (["verdict", "--chi", "0,0"], "zero vector"),
        (["verdict", "--n", "1", "--chi", "1"], "rank"),
    ],
)
def test_sigma_bad_input_is_usage_error(capsys, argv, fragment):
    defaults = {"--n": "3", "--primes": "2", "--k": "1"}
    for flag, value in defaults.items():
        if flag not in argv:
            argv = argv + [flag, value]
    code, _, err = run(capsys, ["sigma"] + argv)
    assert_usage_error(code, err, fragment)


def test_building_grow_rejects_negative_radius(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["building", "grow", "--radius", "-1"])
    assert exc.value.code == 2
    assert "--radius" in capsys.readouterr().err


@pytest.mark.parametrize("chamber", ["999", "-1", "21"])
def test_sphere_chamber_out_of_range(capsys, chamber):
    # F_2^3 has 21 complete flags, indexed 0..20
    code, _, err = run(capsys, ["sphere", "opp", "--n", "3", "--q", "2", "--chamber", chamber])
    assert_usage_error(code, err, "--chamber", chamber)


def test_homology_betti_missing_input(tmp_path, capsys):
    missing = tmp_path / "nonexistent.json"
    code, _, err = run(capsys, ["homology", "betti", "--input", str(missing)])
    assert_usage_error(code, err, str(missing))


@pytest.mark.parametrize(
    "text, fragment",
    [
        ('{"cells": [{"id": "e", "dim": 1, "faces": ["a", "b"]}]}', "missing facet"),
        ('{"complex": []}', "'cells'"),
        ('{"cells": [{"id": "a", "dim": 0}]}', "'faces'"),
        ("[1, 2]", "malformed"),
        ("{", "not JSON"),
        # a 2-cell whose facet's boundary does not cancel: d o d != 0
        ('{"cells": [{"id": "a", "dim": 0, "faces": []}, {"id": "b", "dim": 0, "faces": []}, '
         '{"id": "e", "dim": 1, "faces": ["a", "b"]}, {"id": "f", "dim": 2, "faces": ["e"]}]}',
         "boundary of boundary"),
        # an edge with one vertex: the augmentation of its boundary is non-zero
        ('{"cells": [{"id": "a", "dim": 0, "faces": []}, {"id": "e", "dim": 1, "faces": ["a"]}]}',
         "boundary of boundary"),
    ],
)
def test_homology_betti_malformed_json(tmp_path, capsys, text, fragment):
    path = tmp_path / "complex.json"
    path.write_text(text)
    code, _, err = run(capsys, ["homology", "betti", "--input", str(path)])
    assert_usage_error(code, err, fragment)


@pytest.mark.parametrize("window", ["1:2,3:4,5:6", "1", "a:b", "3:2"])
def test_coxeter_bad_window_is_usage_error(capsys, window):
    code, _, err = run(capsys, ["coxeter", "deconstruct", "--rank", "2", f"--window={window}"])
    assert_usage_error(code, err, "window")


def test_building_superlevel_sl3_height(capsys):
    # several coefficients need the = form: argparse reads -1,-2 as an option
    code, out, _ = run(
        capsys,
        ["building", "superlevel", "--n", "3", "--p", "2", "--radius", "2",
         "--height=-1,-2", "--r", "0", "--format", "json"],
    )
    assert code == 0
    assert json.loads(out) == {"betti": [0, 0, 0], "cells": 105}


@pytest.mark.parametrize("height", ["-1,-2", "", "x"])
def test_building_bad_height_is_usage_error(capsys, height):
    code, _, err = run(capsys, ["building", "superlevel", "--radius", "1", f"--height={height}"])
    assert_usage_error(code, err, repr(height))


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["chevalley", "check-relations", "--n", "3"], "--n"),
        (["sigma", "verdict", "--family", "A", "--n", "3", "--primes", "2", "--chi", "1,1",
          "--k", "1"], "--family"),
        (["sigma", "fintype", "--family", "A", "--n", "3", "--primes", "2", "--kernel-of", "1,1",
          "--k", "1"], "--family"),
        (["building", "retract", "--format", "dot"], "--format"),
        (["building", "superlevel", "--format", "dot"], "--format"),
        (["building", "cone-chain", "--format", "dot"], "--format"),
        (["coxeter", "deconstruct", "--format", "dot"], "--format"),
        (["sphere", "apartment", "--n", "3", "--q", "2", "--format", "dot"], "--format"),
        (["certify", "--skip-sl3"], "--skip-sl3"),
    ],
)
def test_removed_options_are_rejected(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["sigma", "verdict", "--n", "3", "--primes", "2", "--chi", "1,1", "--k", "-1"],
        ["sigma", "fintype", "--n", "3", "--primes", "2", "--kernel-of", "1,1", "--k", "-1"],
        ["chevalley", "check-relations", "--trials", "-5"],
    ],
)
def test_negative_counts_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert f"argument {argv[-2]}: must be non-negative, got {argv[-1]}" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["building", "superlevel", "--r", "abc"], "argument --r: not a rational number: 'abc'"),
        (["building", "superlevel", "--r", "1/0"], "argument --r: not a rational number: '1/0'"),
        (["building", "grow", "--n", "5"], "argument --n: invalid choice: 5"),
        (["building", "grow", "--p", "4"], "argument --p: must be a prime, got 4"),
        (["sphere", "opp", "--n", "3", "--q", "4"], "argument --q: must be a prime, got 4"),
        (["rootsys", "show", "--family", "A", "--rank", "-2"], "argument --rank: must be positive, got -2"),
    ],
)
def test_bad_option_values_are_usage_errors(capsys, argv, message):
    # checked at parse time, before any library call
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert message in err


def test_python_dash_m_sigmabuild_runs_the_cli():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import sigmabuild

    env = dict(os.environ)
    src = str(Path(sigmabuild.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = ["certify", "--suite", "sigma"]
    runs = [
        subprocess.run([sys.executable, "-m", module, *argv], capture_output=True, env=env)
        for module in ("sigmabuild", "sigmabuild.cli")
    ]
    assert [r.returncode for r in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout
    assert json.loads(runs[0].stdout)["passed"] is True
