"""Tests of the benchmark's own logic: request order, the tail rule, self
time, and the failure count.  Run with ``python -m pytest perfbench``."""

import argparse
import os

import pytest

from perfbench import pool, run, tracing


@pytest.mark.parametrize("workload", pool.WORKLOADS)
def test_request_order_is_a_pure_function_of_the_seed(workload):
    ids = sorted(rid for rid, _ in pool.requests(workload))
    assert len(ids) == len(set(ids))
    first = pool.order(workload, 7, 2)
    assert first == pool.order(workload, 7, 2)
    assert first != pool.order(workload, 8, 2)
    assert sorted(first[:len(ids)]) == ids
    assert sorted(first[len(ids):]) == ids
    assert pool.order(workload, 7, 1) == first[:len(ids)]


def test_tail_is_the_highest_percentile_with_ten_values_beyond():
    values = [float(v) for v in range(40, 0, -1)]
    assert run.tail(values) == (30.0, 75.0, 40)
    value, pct, n = run.tail([float(v) for v in range(1, 12)])
    assert (value, n) == (1.0, 11)
    assert pct == pytest.approx(100 / 11)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_self_time_of_nested_and_overlapping_spans():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 3.0, 6.0, 0),      # overlaps a
        ("a.kid", 2.0, 3.0, 1),
        ("late", 9.0, 12.0, 0),  # overhangs its parent
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0,
                                                       3.0])


def test_summarize_counts_recursion_once_in_busy_time():
    dump = {"names": ["fincat.enumerate_functors", "cli.main"],
            "spans": [(1, 0.0, 10.0, -1, True), (0, 1.0, 5.0, 0, True),
                      (0, 2.0, 3.0, 1, False)],
            "counts": {"simpset.MonotoneMap": 4}}
    summary = tracing.summarize([dump])
    fn = summary["functions"]["fincat.enumerate_functors"]
    assert fn["calls"] == 2 and fn["returned"] == 1
    assert fn["busy_s"] == pytest.approx(4.0)
    assert fn["self_s"] == pytest.approx(4.0)
    assert summary["modules"]["cli"] == pytest.approx(6.0)
    assert summary["functions"]["simpset.MonotoneMap"]["calls"] == 4
    assert summary["top_level_s"] == pytest.approx(10.0)


@pytest.fixture
def one_request_pool(monkeypatch):
    argv = ["--json", "suite", "stability", "--seed", "0", "--trunc", "2",
            "--samples", "1"]
    monkeypatch.setattr(pool, "requests", lambda workload: [("s0", argv)])
    return argv


def _measure(tmp_path, expected, trace=0):
    args = argparse.Namespace(workload="algebra", seed=1, seconds=0,
                              trace=trace)
    workdir = str(tmp_path)
    return run.measure(args, run.source_dir(), workdir, expected)


def test_wrong_digest_or_exit_code_counts_as_failure(tmp_path,
                                                     one_request_pool):
    src = run.source_dir()
    probe = run.spawn(one_request_pool, str(tmp_path), src, False,
                      float("inf"))
    good = {"s0": {"argv": one_request_pool, "exit": probe["exit"],
                   "sha256": probe["digest"]}}
    assert probe["exit"] == 0

    result = _measure(tmp_path, good)
    assert (result["attempted"], len(result["failures"])) == (1, 0)

    wrong_digest = {"s0": dict(good["s0"], sha256="0" * 64)}
    result = _measure(tmp_path, wrong_digest)
    assert (result["attempted"], len(result["failures"])) == (1, 1)
    assert "digest" in result["failures"][0]["why"]

    wrong_exit = {"s0": dict(good["s0"], exit=1)}
    result = _measure(tmp_path, wrong_exit)
    assert (result["attempted"], len(result["failures"])) == (1, 1)
    assert "exit 0" in result["failures"][0]["why"]


def test_traced_request_gives_the_same_report(tmp_path, one_request_pool):
    src = run.source_dir()
    plain = run.spawn(one_request_pool, str(tmp_path), src, False,
                      float("inf"))
    traced = run.spawn(one_request_pool, str(tmp_path), src, True,
                       float("inf"))
    assert traced["digest"] == plain["digest"]
    names = set(traced["trace"]["names"])
    assert {"cli.main", "suites.run_suite",
            "algebra.sset_stability_check"} <= names
    assert os.listdir(tmp_path) == []


def test_end_to_end_takes_each_requests_median_over_its_executions():
    def execution(rid, latency, total, rss=10.0):
        return {"request": rid, "latency_s": latency, "total_s": total,
                "setup_s": 0.1, "rss_mb": rss}
    runs = [execution("a", 1.0, 2.0), execution("a", 3.0, 4.0),
            execution("b", 5.0, 6.0, rss=20.0), execution("b", 5.0, 8.0)]
    metrics = run.end_to_end(runs)
    assert metrics["latency_p50_s"] == pytest.approx(3.5)
    assert metrics["latency_tail_s"] == pytest.approx(5.0)
    assert metrics["latency_requests"] == 2
    assert metrics["wall_s"] == pytest.approx(3.0 + 7.0)
    assert metrics["peak_rss_mb"] == 20.0
    assert metrics["setup_s"] == pytest.approx(0.1)
