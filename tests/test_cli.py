"""The command-line surface: subcommands, exit codes, formats."""

import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import sigmabuild
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
    assert_usage_error(code, err, "rank")


@pytest.mark.parametrize("family", ["A", "C", "D"])
def test_rootsys_rank_above_16_is_usage_error(capsys, family):
    # rank 32 would take about 20 s; the bound is checked before any root is built
    code, _, err = run(capsys, ["rootsys", "show", "--family", family, "--rank", "17"])
    assert_usage_error(code, err, "--rank must be at most 16, got 17")


def test_rootsys_rank_16_answers(capsys):
    code, out, _ = run(capsys, ["rootsys", "show", "--family", "A", "--rank", "16", "--format", "json"])
    assert code == 0
    assert json.loads(out)["root_count"] == 16 * 17


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["rootsys", "show", "--family", "D", "--rank", "2"], "family D needs rank >= 3"),
        (["coxeter", "deconstruct", "--family", "D", "--rank", "2"], "family D needs rank >= 3"),
        (["coxeter", "export", "--family", "C", "--rank", "1"], "family C needs rank >= 2"),
    ],
)
def test_bad_family_rank_pair_is_usage_error(capsys, argv, fragment):
    # a family and rank that each parse but do not fit together
    code, _, err = run(capsys, argv)
    assert_usage_error(code, err, fragment)


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


def test_coxeter_deconstruct_a3_default_window_answers(capsys):
    # the A_3 sector corner of the default window -3:2: 162 chambers
    t0 = time.perf_counter()
    code, out, _ = run(capsys, ["coxeter", "deconstruct", "--family", "A", "--rank", "3", "--format", "json"])
    assert time.perf_counter() - t0 < 10
    assert code == 0
    data = json.loads(out)
    assert data["all_certificates_ok"]
    assert data["steps"] == 162


def test_coxeter_window_past_the_chamber_bound_is_usage_error(capsys):
    # A_4 at the default window -3:2 has 31,104 chambers
    t0 = time.perf_counter()
    code, _, err = run(capsys, ["coxeter", "export", "--family", "A", "--rank", "4"])
    assert time.perf_counter() - t0 < 5
    assert_usage_error(code, err, "window has more than 10,000 chambers")


@pytest.mark.parametrize("command", ["deconstruct", "export"])
def test_coxeter_rank_above_16_is_usage_error(capsys, command):
    # the rank bound of `rootsys`, checked before any root is built
    code, _, err = run(capsys, ["coxeter", command, "--family", "A", "--rank", "17"])
    assert_usage_error(code, err, "--rank must be at most 16, got 17")


def test_coxeter_rank_16_window_is_rejected_by_its_size(capsys):
    # 16! 6^16 chambers, counted before the geometry is built (37-51 s before)
    t0 = time.perf_counter()
    code, _, err = run(capsys, ["coxeter", "deconstruct", "--family", "A", "--rank", "16"])
    assert time.perf_counter() - t0 < 1
    assert_usage_error(code, err, "window has more than 10,000 chambers")


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["sphere", "opp", "--n", "12", "--q", "2"], "exceeds the guard"),
        (["building", "grow", "--p", "97", "--radius", "3"], "chamber guard exceeded"),
        # 131,069 chambers; radius 14 (65,533 chambers) still grows
        (["building", "grow", "--n", "2", "--p", "2", "--radius", "15"], "more than 100,000 chambers"),
        # 251,680 and 1,050,906 complete flags
        (["sphere", "opp", "--n", "5", "--q", "3"], "exceeds the guard of 100,000"),
        (["sphere", "opp", "--n", "3", "--q", "101"], "exceeds the guard of 100,000"),
        # six unit vectors in dimension 58: C(58, 5) = 4,582,116 zero sets
        (["sigma", "fintype", "--n", "30", "--primes", "2,3", "--k", "1", "--kernel-of",
          ";".join(",".join("1" if j == i else "0" for j in range(58)) for i in range(6))],
         "more than 14,000,000"),
        (["chevalley", "check-relations", "--trials", "10001"], "--trials must be at most 10,000"),
        # the flag count is multiplied up only until it passes the guard
        (["sphere", "opp", "--n", "5000", "--q", "2"], "exceeds the guard of 100,000"),
        (["sphere", "opp", "--n", "100000", "--q", "2"], "exceeds the guard of 100,000"),
        (["sphere", "apartment", "--n", "3000", "--q", "99991"], "exceeds the guard of 100,000"),
    ],
)
def test_size_guards_are_usage_errors(capsys, argv, fragment):
    t0 = time.perf_counter()
    code, _, err = run(capsys, argv)
    assert time.perf_counter() - t0 < 1
    assert_usage_error(code, err, fragment)


@pytest.mark.parametrize(
    "prime, code, fragment",
    [
        # 2**61 - 1, a Mersenne prime; trial division took longer than the time limit
        ("2305843009213693951", 0, ""),
        ("2305843009213693953", 2, "is not a prime"),
        ("3317044064679887385961981", 2, "is not decided"),
    ],
)
def test_large_primes_are_decided_quickly(prime, code, fragment):
    argv = ["sigma", "verdict", "--n", "3", "--primes", prime, "--chi", "1,1", "--k", "1"]
    run_ = subprocess.run(
        [sys.executable, "-m", "sigmabuild", *argv],
        capture_output=True,
        env=_env_with_src(),
        text=True,
        timeout=5,
    )
    assert run_.returncode == code
    assert fragment in run_.stderr
    if code == 0:
        assert run_.stdout.startswith("kind: certain-in")


def test_a3_full_window_deconstruction_peak_rss():
    # the stages of the filtration are rebuilt on demand, not kept: 235 MB
    # before.  A child that imports nothing runs the CLI in a grandchild and
    # reads its peak, since a process started from this one inherits this
    # one's peak resident size as its own.
    script = (
        "import resource, subprocess, sys\n"
        "argv = ['coxeter', 'deconstruct', '--family', 'A', '--rank', '3',"
        " '--window=-3:2', '--full-window', '--format', 'json']\n"
        "run = subprocess.run([sys.executable, '-m', 'sigmabuild', *argv])\n"
        "print(run.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, file=sys.stderr)\n"
    )
    run_ = subprocess.run([sys.executable, "-c", script], capture_output=True, env=_env_with_src(), text=True)
    code, max_rss_kb = map(int, run_.stderr.split())
    assert code == 0 and json.loads(run_.stdout)["steps"] == 1296
    assert max_rss_kb < 60 * 1024


def test_sphere_opp(capsys):
    code, out, _ = run(capsys, ["sphere", "opp", "--n", "3", "--q", "2", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["betti"][0] == 0 and data["betti"][1] >= 1


def test_sphere_opp_dot_is_pinned(capsys):
    # Opp(C) is built from the chains on the vertices opposite C, and its
    # drawing groups its chambers by panel from their facets; the digest is
    # that of the drawing made when Opp(C) was a restriction of the whole
    # flag complex that still copied its own cofacet sets
    code, out, _ = run(capsys, ["sphere", "opp", "--n", "3", "--q", "2", "--format", "dot"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9799d4cbc2596b87a6f65deea5d4855dedb8c45b75072a7ddd8a1f59797dd15b"
    )
    # the q^3 chambers opposite C, and the panels they share
    assert out.count("label=") == 8 and out.count(" -- ") == 8


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["coxeter", "export", "--family", "A", "--rank", "2", "--window=-2:1", "--format", "dot"],
         "257c75ad72b54122f35494c0adeee6d0af016292062c67c7c549e8030dde6937"),
        (["building", "grow", "--n", "3", "--p", "2", "--radius", "2", "--format", "dot"],
         "1a99a991636a49cd4471983fbf4f56d4306c39021a36d50a227e17df99013368"),
        # the tree's vertex ball, the same under every PYTHONHASHSEED
        (["building", "grow", "--n", "2", "--p", "2", "--radius", "2", "--format", "dot"],
         "a0264248e9fda09b29bc021f68ed210f24adcb17a1f9ac5f378c44e2ac9ce98d"),
        (["sphere", "opp", "--n", "4", "--q", "2", "--chamber", "7", "--format", "dot"],
         "55246dc696e609edb5ac1492360e3f657c1357c54850998bc2247d84245afd22"),
        (["sphere", "opp", "--n", "3", "--q", "3", "--chamber", "5", "--format", "dot"],
         "4da3ea05c5efdfc0fe9d72e9068ff3b98d88b82c95cc08b991550fb816e9d537"),
    ],
)
def test_chamber_graph_dot_is_pinned(capsys, argv, digest):
    # the digests of the drawings made when a complex kept a cofacet table,
    # the tree's ball had a breadth-first search of its own and Opp(C) was a
    # restriction of the whole flag complex
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
        return str(tuple(trunc.form(v) for v in cell))

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
    assert sorted(json.loads(out)["retraction"]) == sorted(str(trunc.form(v)) for (v,) in trunc.complex.cells(0))


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

    monkeypatch.setattr("sigmabuild.building.cone_chain", broken)
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


def test_certify_suite_choices_are_the_suites():
    from sigmabuild import acceptance
    from sigmabuild.cli import CERTIFY_SUITES

    assert CERTIFY_SUITES == tuple(sorted(acceptance.SUITES))


def test_certify_unknown_suite_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--suite", "nope"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "sigmabuild certify: error: argument --suite: invalid choice: 'nope' "
        "(choose from 'all', 'building', 'coxeter', 'relations', 'sigma', 'spherical')"
    )


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
        # a context keeps one copy of a repeated prime: neither length may pass
        (["verdict", "--primes", "2,2", "--chi", "1,-1"], "--primes repeats 2"),
        (["verdict", "--primes", "2,2", "--chi", "1,-1,1,1"], "--primes repeats 2"),
        (["fintype", "--primes", "3,2,3", "--kernel-of", "1,1,1,1,1,1"], "--primes repeats 3"),
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


def test_prime_options_beyond_the_decided_range_are_rejected(capsys):
    for argv in (
        ["building", "grow", "--p", "3317044064679887385961981"],
        ["sphere", "opp", "--q", str(2**89 - 1)],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "is not decided" in capsys.readouterr().err


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
        ('{"cells": [{"id": "a", "dim": 0, "faces": []}, {"id": "a", "dim": 0, "faces": []}]}',
         "listed twice"),
        ('{"cells": [{"id": "a", "dim": 0, "faces": []}, {"id": "f", "dim": 2, "faces": ["a"]}]}',
         "wrong dimension"),
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
        # a cell of positive dimension needs a facet, and no dimension is negative
        ('{"cells": [{"id": "a", "dim": 0, "faces": []}, {"id": "f", "dim": 2, "faces": []}]}',
         "has no facet"),
        ('{"cells": [{"id": "a", "dim": -1, "faces": []}]}', "negative dimension"),
        # refused before a chain group is allocated for every degree up to 10^9
        ('{"cells": [{"id": 0, "dim": 1000000000, "faces": []}]}', "has no facet"),
    ],
)
def test_homology_betti_malformed_json(tmp_path, capsys, text, fragment):
    path = tmp_path / "complex.json"
    path.write_text(text)
    t0 = time.perf_counter()
    code, _, err = run(capsys, ["homology", "betti", "--input", str(path)])
    assert time.perf_counter() - t0 < 1
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


def _env_with_src():
    """The environment with this checkout's src/ first on PYTHONPATH, for child interpreters."""
    env = dict(os.environ)
    src = str(Path(sigmabuild.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_python_dash_m_sigmabuild_runs_the_cli():
    argv = ["certify", "--suite", "sigma"]
    env = _env_with_src()
    runs = [
        subprocess.run([sys.executable, "-m", module, *argv], capture_output=True, env=env)
        for module in ("sigmabuild", "sigmabuild.cli")
    ]
    assert [r.returncode for r in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout
    assert json.loads(runs[0].stdout)["passed"] is True


CLI_MODULES = ["sigmabuild", "sigmabuild.chevalley", "sigmabuild.cli", "sigmabuild.linalg",
               "sigmabuild.root_system"]


def _loaded_modules(code):
    """The sigmabuild modules loaded after running `code` in a fresh interpreter."""
    script = f"{code}\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules if 'sigmabuild' in m)))"
    run_ = subprocess.run([sys.executable, "-c", script], capture_output=True, env=_env_with_src(), text=True)
    assert run_.returncode == 0, run_.stderr
    return json.loads(run_.stdout.splitlines()[-1])


def test_importing_the_cli_loads_only_its_option_checks():
    assert _loaded_modules("import sigmabuild.cli") == CLI_MODULES


def test_sigma_verdict_loads_only_sigma_besides_the_cli():
    code = ("from sigmabuild.cli import main\n"
            "main(['sigma', 'verdict', '--n', '3', '--primes', '2,3', '--chi', '1,0,0,1', '--k', '1'])")
    assert _loaded_modules(code) == sorted(CLI_MODULES + ["sigmabuild.sigma"])
