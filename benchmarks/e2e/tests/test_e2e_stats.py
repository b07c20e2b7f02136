"""Percentiles count failures as misses; the ledger adds up exactly."""

import math

import pytest

import ab
import checks
import ledger
import loadgen


def _result(latency_ms, ok=True):
    res = loadgen.Result(due_ns=0, sent_ns=0,
                         done_ns=int(latency_ms * 1e6), status=200)
    if not ok:
        res.error = "TimeoutError: "
    return res


def test_failures_count_as_misses():
    results = [_result(10.0 * i) for i in range(1, 11)]
    results += [_result(1.0, ok=False) for _ in range(10)]
    lat = loadgen.latencies(results)
    assert sum(math.isinf(v) for v in lat) == 10
    # half the requests failed, so even the median misses every limit
    assert math.isinf(loadgen.percentile(lat, 55))
    assert loadgen.percentile(lat, 50) == pytest.approx(0.1)
    # a failed fast request never improves a percentile
    assert loadgen.percentile(lat, 25) == pytest.approx(0.05)


def test_nearest_rank_percentile():
    values = list(range(1, 201))
    assert loadgen.percentile(values, 50) == 100
    assert loadgen.percentile(values, 95) == 190
    assert loadgen.percentile(values, 100) == 200


def test_tail_percentile_leaves_ten_samples():
    assert loadgen.tail_percentile(200) == 95
    assert loadgen.tail_percentile(1000) == 95
    for count in (20, 37, 45, 120, 199):
        pct = loadgen.tail_percentile(count)
        assert count - math.ceil(pct / 100 * count) >= 10
        assert count - math.ceil((pct + 1) / 100 * count) < 10
    assert loadgen.tail_percentile(14) == 0


def test_backlog_growth_ignores_a_passing_burst():
    def report(backlog, late_ms=0.1):
        return loadgen.LoadReport(0, 1, [], [late_ms] * len(backlog),
                                  backlog)
    assert not report([0] * 40 + [1, 3, 6, 4, 2] + [0] * 15).backlog_grew
    assert report(list(range(60))).backlog_grew
    assert report([0, 1, 0] * 20).valid
    assert not report([0, 1, 0] * 20, late_ms=6.0).valid


def _span(layer, start, end, sid, parent=None, rid=None, pid=1):
    return ledger.Span(layer, start, end, sid, parent, rid, None, pid)


def test_self_times_add_up_on_a_span_tree():
    spans = [
        _span("exec.engine", 0, 100, 1),
        _span("exec.cache_get", 5, 15, 2, parent=1),
        _span("core.simulate", 20, 80, 3, parent=1),
        _span("exec.fingerprint", 30, 50, 4, parent=3),
        _span("exec.fingerprint", 40, 60, 5, parent=3),   # overlaps 4
        _span("exec.cache_put", 85, 95, 6, parent=1),
        _span("power.report", 120, 150, 7),
    ]
    selfs = ledger.self_times(spans, (0, 200))
    assert selfs[(1, 1)] == 100 - 10 - 60 - 10
    assert selfs[(1, 3)] == 60 - 30              # union of 30..60
    assert selfs[(1, 4)] == 20 and selfs[(1, 5)] == 20
    # self times of a tree tile the root exactly, overlaps counted once
    tree = [k for k in selfs if k[1] <= 6 and k[1] not in (4, 5)]
    covered = sum(selfs[k] for k in tree) + 30
    assert covered == 100


def test_self_times_clip_to_the_window():
    spans = [_span("core.simulate", 0, 100, 1),
             _span("exec.codec", 90, 130, 2, parent=1)]
    selfs = ledger.self_times(spans, (50, 120))
    assert selfs[(1, 1)] == 50 - 10
    assert selfs[(1, 2)] == 120 - 90


def test_fetch_children_cross_processes():
    spans = [
        _span("cluster.upstream", 0, 100, 1, rid="a", pid=1),
        _span("serve.http", 10, 20, 1, rid="a", pid=2),
        _span("exec.engine", 30, 70, 2, rid="a", pid=2),
        _span("core.simulate", 35, 65, 3, parent=2, pid=2),
        _span("exec.engine", 75, 90, 4, rid="b", pid=2),   # other request
    ]
    selfs = ledger.self_times(spans, (0, 200))
    assert selfs[(1, 1)] == 100 - 10 - 40


def test_ledger_sum_identity():
    spans = [_span("exec.engine", 0, 50_000_000, 1, rid="r1"),
             _span("core.simulate", 10_000_000, 40_000_000, 2, parent=1),
             _span("serve.http", 60_000_000, 61_000_000, 3, rid="r2")]
    ops = [ledger.Operation("r1", 0.08, 0.01),
           ledger.Operation("r2", 0.02, 0.0)]
    access = [{"id": "r1", "queue_ms": 1.0, "batch_ms": 2.0,
               "exec_ms": 50.0, "finalize_ms": 1.0},
              {"id": "other", "batch_ms": 99.0}]
    doc = ledger.build(spans, (0, 100_000_000), ops, access)
    assert doc["total_s"] == pytest.approx(0.10)
    assert doc["sum_s"] == pytest.approx(doc["total_s"], abs=1e-12)
    m = doc["metrics"]
    assert m["serve.batch_s"] == pytest.approx(0.002)
    assert m["serve.batch_calls"] == 1
    assert m["bench.client_wait_s"] == pytest.approx(0.01)
    assert m["unattributed_s"] == pytest.approx(
        0.10 - 0.01 - 0.05 - 0.001 - 0.002)
    assert set(m) <= {name for name, _unit in ledger.PER_LAYER}


def test_verdict_keeps_pairs_aligned_when_a_run_breaks():
    parent = [100.0 + i for i in range(10)]
    change = [90.0 + i for i in range(10)]
    row = ab.verdict(parent, change, "lower", 0.1)
    assert row["wins"] == 10 and row["verdict"] == "gain"
    # pair 3's change run broke: it loses that pair, and every other
    # pair still compares run i with run i
    broken = change[:3] + [None] + change[4:]
    row = ab.verdict(parent, broken, "lower", 0.1)
    assert row["wins"] == 9 and row["pairs"] == 10
    assert row["change"]["n"] == 9 and row["verdict"] == "gain"
    # a broken parent run hands the pair to the change; two broken
    # change runs leave too few wins for a gain
    assert ab.verdict(parent[:5] + [None] + parent[6:], change,
                      "lower", 0.1)["wins"] == 10
    twice = [None, None] + change[2:]
    assert ab.verdict(parent, twice, "lower", 0.1)["verdict"] == "same"
    assert ab.verdict([None] * 10, change, "lower",
                      0.1)["verdict"] == "unresolved"


def test_reference_check_has_teeth():
    expected = {"ok": True, "result": {"power_w": 5.126948208016033}}
    body = b'{"ok": true, "result": {"power_w": 5.126948208016033}}'
    assert checks.body_problem(body, expected) is None
    off_by_one_ulp = math.nextafter(5.126948208016033, 6.0)
    assert checks.body_problem(
        body, {"ok": True, "result": {"power_w": off_by_one_ulp}})
    assert checks.body_problem(b'{"ok": false}', None)
    assert checks.body_problem(b"not json", None)
