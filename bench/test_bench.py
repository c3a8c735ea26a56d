"""Tests of the benchmark itself: python3 -m pytest bench -q"""
from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from knots import nu_plus_of  # noqa: E402


def tiny(name: str, tmp_path: Path, tracer=None):
    """Two jobs of a workload's pool, one round, then the checks."""
    workload = workloads.WORKLOADS[name]
    cfk, items, _times = run.set_up(workload, 7, tmp_path)
    items = items[:2]
    if tracer is not None:
        tracer.install()
    try:
        _times, _refs, _wall, seen = run.timed_loop(workload, cfk, items, 0, 1, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return run.check(workload, cfk, items, seen)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_without_failures(name, tmp_path):
    attempted, failed, problems = tiny(name, tmp_path)
    assert attempted >= 2 and failed == 0 and problems == []


def test_two_traced_runs_give_identical_counts(tmp_path):
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tiny("high_genus", tmp_path, tracer)
        metrics = tracer.metrics()
        counts.append({k: v for k, v in metrics.items() if tracing.METRICS[k][0] != "s"})
    assert counts[0] == counts[1]
    assert counts[0]["invariants.homology_over_U.calls"] > 0


@pytest.fixture(scope="module")
def paper():
    """The 45-generator paper example's reports with their expected V."""
    cfk = run.import_cfk()
    item = workloads.Item(workloads.PAPER_45, p=3, vk=3)
    wl = workloads.WORKLOADS["paper_reports"]
    reports = {argv[0]: json.loads(out[1])
               for argv, out in zip(wl.commands(item), wl.run(cfk, item))}
    V, V_mirror = wl.V_pair(cfk, item)
    return item, reports, V, V_mirror


def test_checkers_accept_the_true_reports(paper):
    item, reports, V, V_mirror = paper
    assert checks.invariants(reports["invariants"], item.knot, V, V_mirror) == []
    assert checks.genus(reports["genus"], item.knot, V, V_mirror) == []
    assert checks.cable_bounds(reports["cable-bounds"], item.knot, V, 2, 3) == []
    assert checks.dinv(reports["dinv"], item.knot, V, 3) == []
    assert checks.paper_values(reports["genus"], annotated=True) == []
    assert nu_plus_of(V) == 2


@pytest.mark.parametrize("command", ["invariants", "genus", "cable-bounds"])
def test_checkers_reject_tau_off_by_one(paper, command):
    item, reports, V, V_mirror = paper
    report = copy.deepcopy(reports[command])
    report["tau"] += 1
    check = {"invariants": lambda r: checks.invariants(r, item.knot, V, V_mirror),
             "genus": lambda r: checks.genus(r, item.knot, V, V_mirror),
             "cable-bounds": lambda r: checks.cable_bounds(r, item.knot, V, 2, 3)}[command]
    assert check(report)


def test_checkers_reject_one_changed_V(paper):
    item, reports, V, V_mirror = paper
    report = copy.deepcopy(reports["invariants"])
    report["V"]["1"] += 1
    assert checks.invariants(report, item.knot, V, V_mirror)
    assert checks.ladder(report)  # the identities alone catch it too


def test_checkers_reject_one_changed_hfk_rank(paper):
    item, reports, V, V_mirror = paper
    report = copy.deepcopy(reports["invariants"])
    report["hfk"][0]["rank"] += 1
    assert checks.invariants(report, item.knot, V, V_mirror)
    hfk = {"hfk": report["hfk"], "total_rank": sum(r["rank"] for r in report["hfk"]),
           "seifert_genus": item.knot.genus}
    assert checks.hfk(hfk, item.knot)


def test_checkers_reject_a_changed_d_invariant(paper):
    item, reports, V, _V_mirror = paper
    report = copy.deepcopy(reports["dinv"])
    report["d_invariants"][0] = "0"
    assert checks.dinv(report, item.knot, V, 3)


def test_file_check_rejects_wrong_library_values(tmp_path):
    workload = workloads.WORKLOADS["file_check"]
    cfk, items, _ = run.set_up(workload, 3, tmp_path)
    item = items[0]
    outputs = workload.run(cfk, item)
    assert all(not failed and not problems for failed, problems in workload.check(cfk, item, outputs))
    bad = list(outputs)
    bad[3] += 1  # tau off by one
    bad[4] = outputs[4] + 1  # nu off by one
    verdicts = workload.check(cfk, item, bad)
    assert [bool(problems) for _failed, problems in verdicts] == [False, False, False, True, True, False]


def test_failed_operations_are_counted_apart_from_wrong_ones():
    assert workloads.verdict((3, "", "error: boom\n"), lambda o: []) == (True, ["exit code 3: error: boom"])
    assert workloads.verdict(("raised", "ValueError()"), lambda o: [])[0]
    assert workloads.verdict(5, lambda o: ["wrong"]) == (False, ["wrong"])


def test_run_refuses_a_directory_without_cfk(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "paper_reports", "--seed", "1", "--seconds", "1"]) == 2
