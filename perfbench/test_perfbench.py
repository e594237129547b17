"""Tests of the benchmark itself: span arithmetic, percentiles, failure
accounting, the tracer's rebinding and the consistency of BENCHMARK.json."""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
import time

import pytest

import bench
import tracer
import workloads

if str(bench.SRC) not in sys.path:
    sys.path.insert(0, str(bench.SRC))


def test_self_times_subtract_the_union_of_overlapping_children():
    spans = [
        ("root", 0.0, 10.0, -1, "j"),
        ("a", 1.0, 4.0, 0, "j"),
        ("b", 3.0, 6.0, 0, "j"),      # overlaps a: [1, 6] is covered once
        ("c", 8.0, 12.0, 0, "j"),     # clipped to the parent's end
        ("a.leaf", 1.5, 2.0, 1, "j"),
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.5, 3.0, 4.0, 0.5])


def test_self_time_of_nested_child_inside_sibling():
    spans = [
        ("root", 0.0, 4.0, -1, "j"),
        ("x", 0.5, 3.0, 0, "j"),
        ("y", 1.0, 2.0, 0, "j"),      # wholly inside x
    ]
    assert tracer.self_times(spans) == pytest.approx([1.5, 2.5, 1.0])


@pytest.mark.parametrize("values", [[3.0], [4, 1, 3, 2], [5, 1, 9, 2, 7, 3],
                                    [0.25, 0.5, 0.125, 2, 1, 8, 4]])
def test_percentile_matches_inclusive_quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive") \
        if len(values) > 1 else (values[0],) * 3
    assert bench.percentile(values, 25) == pytest.approx(q1)
    assert bench.percentile(values, 50) == pytest.approx(statistics.median(values))
    assert bench.percentile(values, 50) == pytest.approx(q2)
    assert bench.percentile(values, 75) == pytest.approx(q3)
    assert bench.percentile(values, 0) == min(values)
    assert bench.percentile(values, 100) == max(values)


def test_percentile_of_nothing_raises():
    with pytest.raises(ValueError):
        bench.percentile([], 50)


def _fake_workload(check=lambda out, expected: None):
    ok = b"ok\n"
    return workloads.Workload("fake", (), hashlib.sha256(ok).hexdigest(),
                              len(ok), check, lambda: None)


def _loop(code: str, workload, job_timeout: float = 30.0) -> bench.Loop:
    cmd = [sys.executable, "-c", code]
    return bench.closed_loop(
        cmd, bench.child_env(),
        lambda job: bench.job_failure(job, workload, None),
        seconds=0, deadline=time.perf_counter() + 60, job_timeout=job_timeout)


def test_correct_job_does_not_fail():
    loop = _loop("print('ok')", _fake_workload())
    assert (loop.attempted, loop.failed, loop.fail_frac) == (1, 0, 0.0)
    assert loop.jobs[0].cpu_s >= 0 and loop.jobs[0].rss_mb > 0


@pytest.mark.parametrize("code, reason", [
    ("print('ko')", "differs from the reference"),
    ("print('ok'); raise SystemExit(3)", "exit code 3"),
])
def test_corrupted_or_nonzero_job_counts_as_failed(code, reason):
    loop = _loop(code, _fake_workload())
    assert loop.fail_frac == 1.0
    assert reason in loop.failures[0]


def test_failed_semantic_check_counts_as_failed():
    loop = _loop("print('ok')", _fake_workload(lambda out, e: "wrong answer"))
    assert loop.fail_frac == 1.0 and loop.failures == ["wrong answer"]


def test_timeout_kills_the_job_and_counts_as_failed():
    start = time.perf_counter()
    loop = _loop("import time; time.sleep(30)", _fake_workload(),
                 job_timeout=0.5)
    assert time.perf_counter() - start < 10
    assert loop.jobs[0].exit_code is None
    assert loop.failures == ["timeout"] and loop.fail_frac == 1.0


@pytest.mark.parametrize("name, stdout, reason", [
    ("frame-2k-k6",
     {"results": {"passed": False, "classes": [{"nonzero": True}]}},
     "did not pass"),
    ("frame-2k-k6",
     {"results": {"passed": True, "classes": [{"nonzero": False}]}},
     "zero"),
    ("cohomology-q8", {"results": {"dims": {"0": 1}}}, "oracle"),
])
def test_semantic_checks_reject_wrong_answers(name, stdout, reason):
    w = workloads.WORKLOADS[name]
    expected = {"0": 1, "5": 2} if name == "cohomology-q8" else None
    assert reason in w.check(json.dumps(stdout).encode(), expected)


def test_cohomology_oracle_adds_the_unit_class():
    dims = workloads.cohomology_oracle()
    assert dims["0"] == 1
    assert sum(dims.values()) == 3874


def test_tracer_rebinds_names_imported_into_dga_and_frames():
    from secclasses import algebra, dga, frames, weil
    original = algebra.basis_of_degree
    t = tracer.Tracer("test")
    t.install()
    try:
        assert dga.basis_of_degree is not original
        assert frames.basis_of_degree is not original
        gens, d = weil.weil_complex(2)
        dga.cohomology(gens, d)
        frames.certify_projective_family(2)
    finally:
        t.uninstall()
    assert dga.basis_of_degree is original
    assert frames.basis_of_degree is original
    assert algebra.basis_of_degree is original
    original.cache_info()  # the lru_cache is still the one called

    names = [s[0] for s in t.spans]
    parents = {names[s[3]] for s in t.spans
               if s[0] == "algebra.basis_of_degree" and s[3] >= 0}
    assert {"dga.cohomology", "frames.certify"} <= parents
    assert t.counts["algebra.element_init.calls"] > 0
    assert t.counts["algebra.mono_mul.calls"] > 0
    metrics = tracer.layer_metrics({
        "spans": t.spans, "counts": {**t.counts, **t.cache_counts()},
        "import_s": 0.1, "tracemalloc_peak_mb": 1.0, "output_bytes": 1})
    assert metrics["algebra.basis_of_degree.calls"] == names.count(
        "algebra.basis_of_degree")
    assert metrics["dga.differential.calls"] > 0
    assert metrics["linalg.echelon_add.calls"] > 0
    assert metrics["frames.model_dimension"] > 0


def test_benchmark_json_lists_the_metrics_and_workloads_reported():
    doc = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == \
        list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == \
        list(tracer.LAYER_METRICS)
