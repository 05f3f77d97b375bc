"""End-to-end tests for the command-line interface."""

import csv
import hashlib
import json
import os
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import momentmap
from momentmap.cli import _build_parser, main
from momentmap.nekrasov import (
    DiagonalMetric,
    build_truncation,
    nekrasov_residual,
    solve_nekrasov,
    truncation_from_json,
)
from momentmap.quiver import Arrow, Quiver, Representation, problem_to_json


@pytest.fixture
def loop_problem(tmp_path):
    """Normal loop matrix: the identity metric already solves it."""
    q = Quiver(("v",), (Arrow("loop", "v", "v"),))
    rep = Representation(q, {"v": 2}, {"loop": np.diag([1.0 + 0j, 2.0])})
    path = tmp_path / "normal.json"
    path.write_text(problem_to_json(q, {"v": 2}, {"v": 0.0}, rep=rep))
    return path


@pytest.fixture
def nonnormal_problem(tmp_path):
    q = Quiver(("v",), (Arrow("loop", "v", "v"),))
    rep = Representation(
        q, {"v": 2}, {"loop": np.array([[1.0, 1.0], [0.0, 2.0]], dtype=complex)}
    )
    path = tmp_path / "nonnormal.json"
    path.write_text(problem_to_json(q, {"v": 2}, {"v": 0.0}, rep=rep))
    return path


@pytest.fixture
def nilpotent_problem(tmp_path):
    q = Quiver(("v",), (Arrow("loop", "v", "v"),))
    rep = Representation(
        q, {"v": 2}, {"loop": np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)}
    )
    path = tmp_path / "nilpotent.json"
    path.write_text(problem_to_json(q, {"v": 2}, {"v": 0.0}, rep=rep))
    return path


@pytest.fixture
def three_vertex_problem(tmp_path):
    q = Quiver(
        ("x", "y", "z"),
        (Arrow("a", "x", "y"), Arrow("b", "y", "z"), Arrow("c", "z", "x")),
    )
    path = tmp_path / "three.json"
    path.write_text(
        problem_to_json(
            q,
            {"x": 3, "y": 2, "z": 3},
            {"x": 1.0, "y": -0.5, "z": -(3.0 * 1.0 - 0.5 * 2.0) / 3.0},
        )
    )
    return path


@pytest.fixture
def rank_one_problem(tmp_path):
    q = Quiver(
        ("x", "y", "z"),
        (Arrow("a", "x", "y"), Arrow("b", "y", "z"), Arrow("c", "z", "x")),
    )
    path = tmp_path / "rank1.json"
    path.write_text(
        problem_to_json(q, {"x": 1, "y": 1, "z": 1}, {"x": 1.0, "y": 1.0, "z": -2.0})
    )
    return path


@pytest.fixture
def ideal_problem(tmp_path):
    path = tmp_path / "idealz.json"
    path.write_text(
        json.dumps({"n": 1, "module": {"ideal": [[1]]}, "D": 14, "hbar": 0.7, "m": 1})
    )
    return path


class TestKingSolve:
    def test_normal_instance_converges_to_identity(self, loop_problem, tmp_path, capsys):
        out = tmp_path / "result.json"
        code = main(["king", "solve", str(loop_problem), "--out", str(out)])
        assert code == 0
        result = json.loads(out.read_text())
        assert result["status"] == "Converged"
        metric = result["metric"]["v"]
        for i in range(2):
            for j in range(2):
                expect = 1.0 if i == j else 0.0
                assert metric[i][j][0] == pytest.approx(expect, abs=1e-8)
                assert metric[i][j][1] == pytest.approx(0.0, abs=1e-8)

    def test_history_iterations_strictly_increase(self, nonnormal_problem, tmp_path):
        out = tmp_path / "result.json"
        hist = tmp_path / "history.csv"
        code = main(
            ["king", "solve", str(nonnormal_problem), "--out", str(out), "--history", str(hist)]
        )
        assert code == 0
        with open(hist, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["iteration", "functional", "residual"]
        iterations = [int(r[0]) for r in rows[1:]]
        assert iterations == sorted(set(iterations))
        assert float(rows[-1][2]) <= 1e-10

    def test_nilpotent_diverges_with_certificate(self, nilpotent_problem, tmp_path):
        out = tmp_path / "result.json"
        code = main(["king", "solve", str(nilpotent_problem), "--out", str(out)])
        assert code == 2
        result = json.loads(out.read_text())
        assert result["status"] == "Diverged"
        cert = result["certificate"]
        assert cert["subdims"] == {"v": 1}
        assert cert["slope"] == 0.0
        # candidate subspace is span{e1}
        basis = np.array([[complex(re, im) for re, im in row] for row in cert["basis"]["v"]])
        assert abs(abs(basis[0, 0]) - 1.0) < 1e-6

    def test_iteration_budget_exhaustion(self, nonnormal_problem, tmp_path):
        out = tmp_path / "result.json"
        code = main(
            ["king", "solve", str(nonnormal_problem), "--out", str(out), "--max-iters", "1"]
        )
        assert code == 3
        assert json.loads(out.read_text())["status"] == "MaxIters"

    def test_malformed_json_is_an_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code = main(["king", "solve", str(bad)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file_is_an_input_error(self, tmp_path, capsys):
        code = main(["king", "solve", str(tmp_path / "absent.json")])
        assert code == 1

    def test_problem_without_matrices_rejected(self, rank_one_problem, capsys):
        code = main(["king", "solve", str(rank_one_problem), "--allow-nonzero-slope"])
        assert code == 1
        assert "matrices" in capsys.readouterr().err


class TestVerifyUniversal:
    def test_random_three_vertex_quiver(self, three_vertex_problem, tmp_path):
        out = tmp_path / "result.json"
        code = main(
            [
                "king", "verify-universal", str(three_vertex_problem),
                "--samples", "20", "--allow-nonzero-slope", "--out", str(out),
            ]
        )
        assert code == 0
        result = json.loads(out.read_text())
        assert result["samples"] == 20
        assert result["max_deviation"] < 1e-10

    def test_rank_one_instance_is_sharper(self, rank_one_problem, tmp_path):
        out = tmp_path / "result.json"
        code = main(
            [
                "king", "verify-universal", str(rank_one_problem),
                "--samples", "30", "--allow-nonzero-slope", "--out", str(out),
            ]
        )
        assert code == 0
        assert json.loads(out.read_text())["max_deviation"] < 1e-12

    def test_zero_samples_invalid(self, three_vertex_problem, capsys):
        code = main(
            [
                "king", "verify-universal", str(three_vertex_problem),
                "--samples", "0", "--allow-nonzero-slope",
            ]
        )
        assert code == 1

    def test_seeded_runs_are_byte_identical(self, three_vertex_problem, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (out1, out2):
            assert (
                main(
                    [
                        "king", "verify-universal", str(three_vertex_problem),
                        "--samples", "10", "--seed", "7",
                        "--allow-nonzero-slope", "--out", str(out),
                    ]
                )
                == 0
            )
        assert out1.read_bytes() == out2.read_bytes()


class TestAdhmSolve:
    def test_small_instance(self, tmp_path):
        out = tmp_path / "result.json"
        code = main(
            ["adhm", "solve", "--N", "2", "--k", "1", "--eta", "1", "--out", str(out)]
        )
        assert code == 0
        result = json.loads(out.read_text())
        assert result["stabilizer_dimension"] == 0
        assert result["residuals"]["sup_real"] <= 1e-10
        assert result["residuals"]["sup_complex"] <= 1e-10
        assert result["residuals"]["trace_defect"] < 1e-12

    def test_rank_one_scalar_solution(self, tmp_path):
        out = tmp_path / "result.json"
        code = main(
            ["adhm", "solve", "--N", "1", "--k", "1", "--eta", "1", "--out", str(out)]
        )
        assert code == 0
        result = json.loads(out.read_text())
        b = complex(*result["b"][0][0])
        a = complex(*result["a"][0][0])
        assert abs(abs(b) ** 2 - 1.0) < 1e-8
        assert abs(a) < 1e-8

    def test_undeformed_parameter_is_guided_away(self, capsys):
        code = main(["adhm", "solve", "--N", "1", "--k", "1", "--eta", "0"])
        assert code == 1
        assert "eta = 0" in capsys.readouterr().err

    def test_exhausted_budget_exits_three(self, capsys):
        code = main(["adhm", "solve", "--N", "2", "--k", "1", "--eta", "1", "--max-iters", "3"])
        assert code == 3
        assert capsys.readouterr().err.startswith("solver failure: no convergence")

    def test_mirror_flag_flips_the_convention(self, tmp_path):
        out = tmp_path / "result.json"
        code = main(
            [
                "adhm", "solve", "--N", "1", "--k", "1", "--eta", "-1",
                "--mirror", "--out", str(out),
            ]
        )
        assert code == 0
        result = json.loads(out.read_text())
        assert result["eta"] == 1.0
        b = complex(*result["b"][0][0])
        assert abs(abs(b) ** 2 - 1.0) < 1e-8


class TestNekrasovSolve:
    def test_principal_ideal_run(self, ideal_problem, tmp_path):
        out = tmp_path / "result.json"
        code = main(["nekrasov", "solve", str(ideal_problem), "--out", str(out)])
        assert code == 0
        result = json.loads(out.read_text())
        c1 = next(w["c"] for w in result["weights"] if w["monomial"] == [1])
        assert c1 == pytest.approx(12 * 0.7, rel=1e-6)
        assert result["solved_max_abs"] <= 1e-10
        levels = [entry["degree"] for entry in result["residual_profile"]]
        assert levels == sorted(levels)
        assert len(result["commutator_profile"]) == 14

    def test_exit_zero_result_revalidates(self, ideal_problem, tmp_path):
        out = tmp_path / "result.json"
        assert main(["nekrasov", "solve", str(ideal_problem), "--out", str(out)]) == 0
        result = json.loads(out.read_text())
        t = build_truncation(1, [(1,)], 14)
        values = np.empty(len(t.basis))
        for entry in result["weights"]:
            values[t.index(tuple(entry["monomial"]))] = entry["c"]
        res = nekrasov_residual(t, DiagonalMetric(t, values), 0.7, 1)
        free_max = max(abs(v) for k, v in res.items() if sum(k) <= 14 - 3)
        assert free_max <= 1e-10

    def test_weights_byte_identical_to_the_per_monomial_lookup(self, tmp_path):
        problem = tmp_path / "maximal.json"
        problem.write_text(
            json.dumps({"n": 2, "module": {"ideal": [[1, 0], [0, 1]]}, "D": 10, "hbar": 0.8})
        )
        out = tmp_path / "result.json"
        assert main(["nekrasov", "solve", str(problem), "--out", str(out)]) == 0
        t, hbar, m, buffer = truncation_from_json(problem.read_text())
        metric = solve_nekrasov(t, hbar, m, buffer=buffer)
        result = json.loads(out.read_text())
        result["weights"] = [
            {"monomial": list(mono), "c": metric.weight(mono)} for mono in t.basis
        ]
        assert out.read_text() == json.dumps(result, sort_keys=True, indent=2) + "\n"

    def test_cap_below_generators_is_an_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 2, "module": {"ideal": [[0, 3]]}, "D": 2, "hbar": 1.0}))
        code = main(["nekrasov", "solve", str(bad)])
        assert code == 1
        assert "generator degree" in capsys.readouterr().err


class TestFockCheck:
    def test_exact_sweep_passes(self, tmp_path):
        out = tmp_path / "result.json"
        code = main(
            [
                "fock", "check-state", "--n", "2", "--degree", "4",
                "--rho", "2/3", "--hbar", "1/5", "--out", str(out),
            ]
        )
        assert code == 0
        result = json.loads(out.read_text())
        assert result["deviation"] == 0.0
        assert result["rho"] == "2/3"

    def test_degree_zero_is_vacuous_but_valid(self):
        assert (
            main(["fock", "check-state", "--n", "1", "--degree", "0", "--rho", "1", "--hbar", "1"])
            == 0
        )

    def test_degree_cap(self, capsys):
        code = main(
            ["fock", "check-state", "--n", "1", "--degree", "11", "--rho", "1", "--hbar", "1"]
        )
        assert code == 1
        assert "cap" in capsys.readouterr().err

    def test_irrational_parameter_rejected(self, capsys):
        code = main(
            ["fock", "check-state", "--n", "1", "--degree", "2", "--rho", "pi", "--hbar", "1"]
        )
        assert code == 1


class TestManifestsAndDeterminism:
    def test_manifest_digest_matches_input(self, loop_problem, tmp_path):
        out = tmp_path / "result.json"
        assert main(["king", "solve", str(loop_problem), "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "result.json.manifest.json").read_text())
        expected = hashlib.sha256(loop_problem.read_bytes()).hexdigest()
        assert manifest["input_digest"] == expected
        assert manifest["status"] == "Converged"
        assert manifest["seed"] is None
        assert manifest["duration_seconds"] >= 0
        assert manifest["command_line"].startswith("momentmap king solve")

    def test_manifest_records_the_seed_where_one_is_read(self, tmp_path):
        out = tmp_path / "result.json"
        argv = ["adhm", "solve", "--N", "1", "--k", "1", "--eta", "1", "--seed", "7"]
        assert main(argv + ["--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "result.json.manifest.json").read_text())
        assert manifest["seed"] == 7

    def test_result_json_is_byte_identical_across_runs(self, nonnormal_problem, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["king", "solve", str(nonnormal_problem), "--out", str(out1)]) == 0
        assert main(["king", "solve", str(nonnormal_problem), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_manifest_on_stderr_without_out(self, loop_problem, capsys):
        assert main(["king", "solve", str(loop_problem)]) == 0
        captured = capsys.readouterr()
        result = json.loads(captured.out)
        assert result["status"] == "Converged"
        manifest = json.loads(captured.err)
        assert manifest["version"] == "0.1.0"


class TestArgumentHandling:
    def test_unknown_group_is_an_error(self, capsys):
        assert main(["conquer"]) == 1
        capsys.readouterr()

    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()


def _malformed_king(patch):
    obj = {
        "vertices": ["v"],
        "arrows": [{"id": "l", "src": "v", "dst": "v"}],
        "dims": {"v": 1},
        "eta": {"v": 0.0},
        "rep": {"l": [[[1.0, 0.0]]]},
    }
    obj.update(patch)
    return obj


class TestMalformedInputExitsCleanly:
    @pytest.mark.parametrize(
        "group,problem",
        [
            ("king", _malformed_king({"eta": {"v": "zero"}})),
            ("king", _malformed_king({"eta": 0.0})),
            ("king", _malformed_king({"dims": 2})),
            ("king", _malformed_king({"metric": {"v": [[[1.0, 0.0]]]}})),
            ("nekrasov", {"n": 1, "module": "full", "D": 6, "hbar": "one"}),
            ("nekrasov", {"n": 1, "module": {"ideal": 5}, "D": 6, "hbar": 1.0}),
            ("nekrasov", {"n": 1, "module": "full", "D": 6, "hbar": 1.0, "m": None}),
            # 171! overflows a float: a NumericError, once a bare OverflowError
            ("nekrasov", {"n": 1, "module": "full", "D": 171, "hbar": 1.0}),
        ],
    )
    def test_error_not_traceback(self, tmp_path, capsys, group, problem):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(problem))
        assert main([group, "solve", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_non_utf8_input(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{")
        assert main(["king", "solve", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_infinite_tolerance(self, loop_problem, capsys):
        assert main(["king", "solve", str(loop_problem), "--tol", "inf"]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_unwritable_output(self, loop_problem, tmp_path, capsys):
        out = tmp_path / "missing" / "result.json"
        assert main(["king", "solve", str(loop_problem), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("i/o error: ")


#: The flags each subcommand takes besides its own operands.
FLAGS = {
    "king solve": {"--out", "--tol", "--max-iters", "--history", "--allow-nonzero-slope"},
    "king verify-universal": {"--seed", "--out", "--allow-nonzero-slope", "--samples"},
    "adhm solve": {"--seed", "--out", "--tol", "--max-iters", "--N", "--k", "--eta", "--mirror"},
    "nekrasov solve": {"--out", "--tol", "--max-iters"},
    "fock check-state": {"--out", "--n", "--degree", "--rho", "--hbar"},
}


class TestEveryFlagIsRead:
    def test_flags_per_subcommand(self):
        found = {}
        parser = _build_parser()
        for group, group_parser in parser._subparsers._group_actions[0].choices.items():
            commands = group_parser._subparsers._group_actions[0].choices
            for command, command_parser in commands.items():
                found[f"{group} {command}"] = {
                    flag
                    for action in command_parser._actions
                    for flag in action.option_strings
                    if flag not in ("-h", "--help")
                }
        assert found == FLAGS
        assert sum(map(len, found.values())) == 25

    @pytest.mark.parametrize(
        "argv",
        [
            ["fock", "check-state", "--n", "1", "--degree", "0", "--rho", "1", "--hbar", "1",
             "--tol", "1e-3"],
            ["fock", "check-state", "--n", "1", "--degree", "0", "--rho", "1", "--hbar", "1",
             "--max-iters", "3"],
            ["adhm", "solve", "--N", "1", "--k", "1", "--eta", "1", "--history", "h.csv"],
            ["adhm", "solve", "--N", "1", "--k", "1", "--eta", "1", "--allow-nonzero-slope"],
            ["fock", "check-state", "--n", "1", "--degree", "0", "--rho", "1", "--hbar", "1",
             "--seed", "3"],
        ],
    )
    def test_unread_flags_are_rejected(self, argv, capsys):
        assert main(argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err


def test_every_module_imports_without_scipy():
    # scipy is a test dependency only: the package must import without it.
    names = ["momentmap"] + [
        f"momentmap.{info.name}" for info in pkgutil.iter_modules(momentmap.__path__)
    ]
    assert "momentmap.cli" in names and "momentmap.solver" in names
    src = os.path.dirname(os.path.dirname(momentmap.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import importlib, sys\n"
        "sys.modules['scipy'] = None\n"
        "for name in sys.argv[1:]:\n"
        "    importlib.import_module(name)\n"
        "assert sys.modules['scipy'] is None\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, *names], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
