"""Schedules are a pure function of the seed, and keep their shape."""

import json

import pytest

import workloads

SERVING = ("serve-cold", "serve-hot", "cluster-mixed")


def _flat(schedule):
    return [(r.due_s, r.route, r.body, r.rid) for r in schedule]


@pytest.mark.parametrize("name", SERVING)
def test_schedule_is_identical_for_one_seed(name):
    assert _flat(workloads.build_schedule(name, 7, 12)) == \
        _flat(workloads.build_schedule(name, 7, 12))


@pytest.mark.parametrize("name", SERVING)
def test_schedule_differs_across_seeds(name):
    a = workloads.build_schedule(name, 7, 12)
    b = workloads.build_schedule(name, 8, 12)
    assert [r.due_s for r in a] != [r.due_s for r in b]
    assert [r.body for r in a] != [r.body for r in b]


@pytest.mark.parametrize("name", SERVING)
def test_work_multiset_is_fixed_across_seeds(name):
    """Seeds reorder and jitter the work; they never change its mix."""
    def mix(seed):
        out = {}
        for r in workloads.build_schedule(name, seed, 12):
            doc = json.loads(r.body)
            key = (r.route, r.kind, doc.get("config"),
                   doc.get("workload") or tuple(doc["workloads"]))
            if r.kind == "hot":
                key += (doc["instructions"],)
            out[key] = out.get(key, 0) + 1
        return out
    assert mix(1) == mix(2) == mix(3)


@pytest.mark.parametrize("name", SERVING)
def test_arrivals_span_the_run(name):
    schedule = workloads.build_schedule(name, 3, 12)
    dues = [r.due_s for r in schedule if not r.rid.endswith("r")]
    assert dues == sorted(dues)
    assert dues[-1] == pytest.approx(12.0)
    assert len(dues) == workloads.request_count(name, 12)


def test_cold_requests_never_repeat():
    for name in ("serve-cold", "cluster-mixed"):
        cold = [r for r in workloads.build_schedule(name, 5, 30)
                if r.kind == "cold" and not r.rid.endswith("r")]
        keys = set()
        for r in cold:
            doc = json.loads(r.body)
            n = doc["instructions"]
            assert workloads.COLD_MIN <= n <= workloads.COLD_MAX
            assert n % workloads.COLD_STEP == 0
            for w in doc.get("workloads") or [doc["workload"]]:
                gens = ([doc["config"]] if "config" in doc
                        else list(workloads.GENERATIONS))
                for g in gens:
                    assert (w, n, g) not in keys
                    keys.add((w, n, g))


def test_mma_only_on_power10():
    for r in workloads.build_schedule("serve-cold", 2, 60):
        doc = json.loads(r.body)
        if "dgemm-mma" in (doc.get("workloads") or [doc.get("workload")]):
            assert doc.get("config") == "power10"


def test_hot_keys_follow_zipf():
    schedule = workloads.build_schedule("serve-hot", 4, 12)
    sims = [r for r in schedule if r.route == "/v1/simulate"]
    counts = {}
    for r in sims:
        counts[r.body] = counts.get(r.body, 0) + 1
    ranked = [counts.get(workloads.hot_body(k), 0)
              for k in workloads.HOT_KEYS]
    assert ranked == workloads.zipf_counts(len(sims),
                                           len(workloads.HOT_KEYS))
    assert ranked == sorted(ranked, reverse=True)
    estimates = sum(r.route == "/v1/estimate" for r in schedule)
    assert estimates == round(len(schedule) * workloads.HOT_ESTIMATE_SHARE)


def test_cluster_resends_follow_within_20ms():
    schedule = workloads.build_schedule("cluster-mixed", 9, 12)
    by_rid = {r.rid: r for r in schedule}
    resends = [r for r in schedule if r.rid.endswith("r")]
    assert resends and len(resends) == sum(
        r.kind == "cold" and not r.rid.endswith("r") for r in schedule)
    for r in resends:
        original = by_rid[r.rid[:-1]]
        assert r.body == original.body
        assert 0 <= r.due_s - original.due_s <= workloads.RESEND_MAX_S
