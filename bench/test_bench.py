"""Tests of the benchmark itself: metric reporting, failure counting and the
span arithmetic of traced runs.

    python3 -m pytest bench/test_bench.py -q
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import OP_SPAN, SETUP_OP, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def small_program_ops(m, seed, workdir):
    """A few fast operations that reach every numeric layer the King and
    ADHM/Nekrasov workloads use."""
    q = workloads._quivers(m)
    opts = m.solver.SolveOptions(max_iters=workloads.KING_MAX_ITERS)
    rng = np.random.default_rng(seed)
    a2 = workloads._rotated(m, m.quiver.random_representation(q.a2, {"1": 1, "2": 1}, 2), rng)
    trunc = m.nekrasov.build_truncation(2, ((1, 0), (0, 1)), 8)
    return [
        workloads._king_op(m, "a2.converge", a2, {"1": 1.0, "2": -1.0}, opts),
        workloads._king_op(m, "a2.diverge", a2, {"1": -1.0, "2": 1.0}, opts, {"1": 0, "2": 1}),
        workloads._adhm_op(m, 2, 1, 7),
        workloads._nekrasov_op(m, "nekrasov.small", trunc, 1.0, 2),
    ]


def trivial_ops(m, seed, workdir):
    return [workloads.Op(f"noop{i}", lambda i=i: i, lambda r: None) for i in range(12)]


@pytest.fixture
def bench_out(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    return tmp_path


def printed_metrics(text):
    lines = text.strip().splitlines()
    final = json.loads(lines[-1])
    rows = {line.split()[0]: line.split()[1:] for line in lines[:-1]}
    return rows, final


def test_every_end_to_end_metric_prints_with_its_unit(monkeypatch, capsys, bench_out):
    monkeypatch.setitem(workloads.WORKLOADS, "trivial", trivial_ops)
    values, notes, passes = run.end_to_end("trivial", 0, 0.05)
    run.report(SPEC["end_to_end"], values, notes, passes)
    rows, final = printed_metrics(capsys.readouterr().out)
    for metric in SPEC["end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        assert rows[name][1] == unit
        assert final["metrics"][name] == {"value": float(rows[name][0]), "unit": unit}
        assert final["metrics"][name]["value"] > 0
    assert set(final["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert rows["fail_ratio"][:2] == ["0.0", "ratio"]
    assert final["correct"] is True and final["failed"] == 0


def test_every_per_layer_metric_prints_with_its_unit(monkeypatch, capsys, bench_out):
    monkeypatch.setitem(workloads.WORKLOADS, "small", small_program_ops)
    names = [m["name"] for m in SPEC["per_layer"]]
    values, notes, passes = run.per_layer("small", 0, names)
    run.report(SPEC["per_layer"], values, notes, passes)
    rows, final = printed_metrics(capsys.readouterr().out)
    for metric in SPEC["per_layer"]:
        assert rows[metric["name"]][1] == metric["unit"]
    assert list(final["metrics"]) == names
    assert final["correct"] is True
    assert values["solver.solve_metric.calls"] == 2
    assert values["adhm.solve_adhm.calls"] == 1
    assert values["adhm.ADHMData.constructions"] > 0
    assert values["solver.iters_per_solve"] > 0
    assert (bench_out / "spans-small.npz").is_file()


def test_corrupted_results_are_counted_in_fail_ratio(monkeypatch, capsys, bench_out):
    m = workloads.load_program()
    converge, diverge, adhm, nekrasov = small_program_ops(m, 0, bench_out)
    solved, escaped = converge.run(), diverge.run()
    assert converge.check(solved) is None and diverge.check(escaped) is None

    # A common scale of all vertices is a symmetry; perturb one vertex only.
    perturbed = {**solved.metric, "1": 1.5 * solved.metric["1"]}
    bad_metric = dataclasses.replace(solved, metric=perturbed)
    bad_cert = dataclasses.replace(
        escaped,
        certificate=dataclasses.replace(escaped.certificate, subdims={"1": 1, "2": 0}),
    )
    calls = []

    def raising():
        calls.append(1)
        raise RuntimeError("boom")

    ops = [
        dataclasses.replace(converge, run=lambda: bad_metric),
        dataclasses.replace(diverge, run=lambda: bad_cert),
        workloads.Op("raises", raising, lambda r: None),
        adhm,
    ]
    result = run.run_pass(ops)
    assert calls == [1]  # never retried
    reasons = {op.name: reason for op, reason, _ in result.failures}
    assert "king_residual" in reasons["a2.converge"]
    assert "subdims" in reasons["a2.diverge"]
    assert "RuntimeError: boom" in reasons["raises"]

    line = run.report([], {}, {}, [result])
    assert (line["attempted"], line["failed"], line["correct"]) == (4, 3, False)
    assert "fail_ratio 0.75 ratio (3/4)" in capsys.readouterr().out


def test_only_a_known_defect_signature_keeps_the_run_correct(capsys):
    def stalls(result):
        return "stalls" if result == "MaxIters" else ""

    stall = workloads.Op("stall", lambda: "MaxIters", lambda r: f"status {r}", stalls)
    other = workloads.Op("other", lambda: "Diverged", lambda r: f"status {r}", stalls)
    line = run.report([], {}, {}, [run.run_pass([stall])])
    assert (line["failed"], line["correct"]) == (1, True)
    assert "[known defect: stalls]" in capsys.readouterr().out
    line = run.report([], {}, {}, [run.run_pass([stall, other])])
    assert (line["failed"], line["correct"]) == (2, False)


def test_exact_critical_point_defect_matches_only_max_iters_within_tol():
    m = workloads.load_program()
    converge = small_program_ops(m, 0, None)[0]
    solved = converge.run()
    opts = m.solver.SolveOptions()
    match = workloads._max_iters(workloads.EXACT_CRITICAL_POINT, opts)
    stalled = dataclasses.replace(solved, status=m.solver.SolveStatus.MAX_ITERS, final_sup=0.0)
    assert converge.check(stalled) is not None
    assert match(stalled) == workloads.EXACT_CRITICAL_POINT
    assert match(dataclasses.replace(stalled, final_sup=1e-3)) == ""
    assert match(solved) == ""


def test_self_times_are_nonnegative_and_sum_to_each_operation(bench_out):
    tracer = Tracer()
    m = workloads.load_program()
    tracer.install()
    try:
        ops = small_program_ops(m, 0, bench_out)
        result = run.run_pass(ops, tracer)
    finally:
        tracer.uninstall()
    assert not result.failures
    names, start, end, parent, op, self_s = tracer.arrays()
    assert self_s.min() >= -1e-9
    assert np.all(end >= start)
    root = names == tracer.names.index(OP_SPAN)
    assert sorted(op[root]) == list(range(len(ops)))
    for index, wall in enumerate(result.op_s):
        span = np.flatnonzero(root & (op == index))[0]
        duration = end[span] - start[span]
        assert self_s[op == index].sum() == pytest.approx(duration, abs=1e-9)
        assert 0 < duration <= wall
    assert np.any(op == SETUP_OP)  # inputs were generated under the tracer


def test_tracer_patches_every_importing_namespace_and_restores_it():
    m = workloads.load_program()
    originals = (m.linalg.hermitian_exp, m.solver.hermitian_exp, m.linalg.frechet_exp)
    assert originals[0] is originals[1]
    tracer = Tracer()
    tracer.install()
    try:
        assert m.solver.hermitian_exp is m.moment.hermitian_exp is m.linalg.hermitian_exp
        assert m.linalg.hermitian_exp is not originals[0]
        assert m.linalg.frechet_exp is not originals[2]
    finally:
        tracer.uninstall()
    assert (m.linalg.hermitian_exp, m.solver.hermitian_exp, m.linalg.frechet_exp) == originals


def test_call_counts_repeat_exactly(bench_out):
    counts = []
    for _ in range(2):
        tracer = Tracer()
        m = workloads.load_program()
        tracer.install()
        try:
            run.run_pass(small_program_ops(m, 3, bench_out), tracer)
        finally:
            tracer.uninstall()
        counts.append(
            ({k: c for k, (c, _) in tracer.layer_totals().items()}, dict(tracer.constructions))
        )
    assert counts[0] == counts[1]


def test_tail_percentile_leaves_ten_samples_beyond_it():
    assert run.tail_percentile(30) == pytest.approx(200 / 3)
    assert run.tail_percentile(10) is None
    assert run.tail_percentile(11) == pytest.approx(100 / 11)


def test_harrell_davis_quantiles():
    samples = np.random.default_rng(0).permutation(np.arange(1.0, 32.0))
    assert run.harrell_davis(samples, 0.5) == pytest.approx(16.0)
    assert run.harrell_davis([0.25] * 20, 0.9) == pytest.approx(0.25)
    low, high = (run.harrell_davis(samples, p) for p in (0.5, run.tail_percentile(31) / 100))
    assert 16.0 < high < 31.0 and low < high


def test_benchmark_spec_matches_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["command"] == ["python3", "bench/run.py"]
