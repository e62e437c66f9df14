"""Unit tests of the end-to-end benchmark's own logic (no timing)."""

from __future__ import annotations

import asyncio
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import compare  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from spans import Tracer, covered, self_times, totals_by_name  # noqa: E402
from summary import summarize, tail  # noqa: E402


# -- the percentile rule ----------------------------------------------------


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert tail(range(10)) is None
    assert tail(range(1, 12)) == (100 * 1 / 11, 1)
    pct, value = tail(range(1, 1001))
    assert pct == 99.0 and value == 990
    assert sum(sample > value for sample in range(1, 1001)) == 10
    pct, value = tail([5.0] * 5 + list(range(100, 120)))
    assert value == 109 and pct == pytest.approx(60.0)


def test_summary_uses_statistics_quartiles():
    summary = summarize([4, 1, 3, 2, 5, 6, 7, 8])
    assert summary["median"] == 4.5 and summary["n"] == 8
    assert (summary["q1"], summary["q3"]) == (2.25, 6.75)
    assert "tail" not in summary
    single = summarize([2.5])
    assert single["q1"] == single["median"] == single["q3"] == 2.5


# -- spans and self time ----------------------------------------------------


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_the_union_of_children():
    spans = [(0, None, "root", 0.0, 10.0, 1, {}),
             (1, 0, "a", 1.0, 3.0, 1, {}),
             (2, 0, "b", 2.0, 5.0, 1, {}),    # overlaps a
             (3, 0, "c", 8.0, 12.0, 1, {}),   # runs past the parent
             (4, 2, "leaf", 2.5, 3.5, 1, {})]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10 - (4 + 2))
    assert selfs[2] == pytest.approx(3 - 1)
    assert selfs[4] == pytest.approx(1)
    assert covered([(1, 3), (2, 5), (8, 12)], 0, 10) == pytest.approx(6)


def test_nested_wrapped_calls_record_parents_and_self_time():
    clock = _Clock()
    tracer = Tracer(clock=clock)

    def inner():
        clock.now += 2.0
        return 7

    inner = tracer.wrap("inner", inner)

    def outer():
        clock.now += 1.0
        value = inner() + inner()
        clock.now += 0.5
        return value

    assert tracer.wrap("outer", outer)() == 14
    totals = totals_by_name(tracer.spans)
    assert totals["outer"]["total"] == pytest.approx(5.5)
    assert totals["outer"]["self"] == pytest.approx(1.5)
    assert totals["inner"]["count"] == 2
    by_name = {span[2]: span for span in tracer.spans}
    assert by_name["inner"][1] == by_name["outer"][0]
    assert by_name["outer"][1] is None


def test_concurrent_tasks_keep_their_own_parent_chain():
    tracer = Tracer()

    async def leaf():
        await asyncio.sleep(0)

    async def handler(name):
        with tracer.span(name):
            await asyncio.sleep(0)
            await tracer.wrap(f"{name}.leaf", leaf)()

    async def main():
        await asyncio.gather(handler("one"), handler("two"))

    asyncio.run(main())
    ids = {span[2]: span[0] for span in tracer.spans}
    parents = {span[2]: span[1] for span in tracer.spans}
    assert parents["one.leaf"] == ids["one"]
    assert parents["two.leaf"] == ids["two"]


class _Target:
    def method(self, x):
        return x + 1

    @classmethod
    def build(cls, x):
        return (cls, x)

    @staticmethod
    def helper(x):
        return x * 2


def test_wrappers_restore_the_original_functions():
    originals = {key: vars(_Target)[key]
                 for key in ("method", "build", "helper")}
    registry = {"fig": lambda: "table"}
    original_entry = registry["fig"]
    from repro.timing import batched

    original_decode = batched.decode
    tracer = Tracer()
    for key in originals:
        tracer.install(_Target, key, f"target.{key}",
                       on_result=lambda result, args: {"calls": 1})
    tracer.install(registry, "fig", "harness.experiment")
    tracer.install_path("timing.decode", "repro.timing.batched", "decode")
    assert batched.decode is not original_decode
    assert _Target().method(1) == 2
    assert _Target.build(3) == (_Target, 3)
    assert _Target.helper(4) == 8
    assert registry["fig"]() == "table"
    assert {span[2] for span in tracer.spans} == {
        "target.method", "target.build", "target.helper",
        "harness.experiment"}
    assert totals_by_name(tracer.spans)["target.build"]["calls"] == 1
    tracer.restore()
    assert batched.decode is original_decode
    assert registry["fig"] is original_entry
    for key, original in originals.items():
        assert vars(_Target)[key] is original


# -- comparator verdicts ----------------------------------------------------


def _summary(samples, bound=0.1, better="lower"):
    return {**summarize(samples), "samples": list(samples), "bound": bound,
            "better": better, "unit": "s"}


def _side(*sets):
    """One side of a row from the samples of each of its sets."""
    return compare.side([_summary(samples) for samples in sets])


def test_comparator_verdicts():
    base = _side([1.00, 1.01, 0.99, 1.00, 1.02])
    assert compare.verdict(base, _side([1.05] * 5), 0.1,
                           "lower") == "within bound"
    assert compare.verdict(base, _side([1.2] * 5), 0.1, "lower") == "worse"
    assert compare.verdict(base, _side([0.8] * 5), 0.1,
                           "lower") == "improved"
    higher = _side([100, 101, 99])
    assert compare.verdict(higher, _side([80] * 3), 0.1,
                           "higher") == "worse"


def test_comparator_unresolved_when_base_spread_exceeds_bound():
    # one set: the spread is its samples' quartile distance over their median
    noisy = _side([0.7, 1.0, 1.3, 0.8, 1.2])
    assert noisy["spread"] == pytest.approx((1.25 - 0.75) / 1.0)
    assert compare.verdict(noisy, _side([1.5] * 5), 0.1,
                           "lower") == "unresolved"
    assert compare.verdict(noisy, _side([0.6, 0.65]), 0.1,
                           "lower") == "improved"


def test_comparator_takes_the_spread_between_sets_when_it_has_them():
    # each set is steady, but their medians (1.0, 1.3, 0.8, 1.1) are not
    drifting = _side([1.0] * 3, [1.3] * 3, [0.8] * 3, [1.1] * 3)
    assert drifting["runs"] == [1.0, 1.3, 0.8, 1.1]
    assert drifting["median"] == pytest.approx(1.05)
    assert drifting["spread"] > 0.1
    assert compare.verdict(drifting, _side([1.2] * 3), 0.1,
                           "lower") == "unresolved"
    steady = _side([1.0] * 3, [1.01] * 3, [0.99] * 3)
    assert compare.verdict(steady, _side([1.2] * 3), 0.1,
                           "lower") == "worse"


def test_comparator_zero_base_with_zero_bound():
    zero = _side([0.0])
    assert compare.verdict(zero, _side([0.0]), 0.0,
                           "lower") == "within bound"
    assert compare.verdict(zero, _side([0.01]), 0.0, "lower") == "worse"


def test_compare_exits_nonzero_on_worse(tmp_path, capsys):
    def results(wall):
        return {"workloads": {"tables-warm": {
            "metrics": {"wall_s": _summary([wall] * 3)},
            "fingerprint": {"sim.cycles": 1}}}}

    base, change = tmp_path / "base.json", tmp_path / "change.json"
    base.write_text(json.dumps({"sets": [results(1.0)]}))
    change.write_text(json.dumps(results(1.5)))
    assert compare.main([str(base), str(change)]) == 1
    out = capsys.readouterr().out
    assert "worse" in out and "identical" in out
    change.write_text(json.dumps(results(1.0)))
    assert compare.main([str(base), str(change)]) == 0


# -- generators -------------------------------------------------------------


def test_sweep_specs_are_seeded():
    specs = inputs.sweep_specs(3)
    assert specs == inputs.sweep_specs(3)
    assert specs != inputs.sweep_specs(4)
    assert len(specs) == 240
    assert len({inputs.spec_key(spec) for spec in specs}) == 240
    groups = {(s["benchmark"], s["coding"], s["warm"]) for s in specs}
    assert len(groups) == 20
    assert {s["l2_latency"] for s in specs} <= set(range(10, 81))
    sample = inputs.sweep_check_sample(3, specs)
    assert sample == inputs.sweep_check_sample(3, specs)
    assert len(sample) == inputs.SWEEP_CHECK_SAMPLE


def _grid(seed):
    return [inputs.spec(benchmark, coding, memsys,
                        0 if memsys == "ideal" else 20, True, seed)
            for benchmark in inputs.BENCHMARKS
            for coding in ("mom", "mom3d")
            for memsys in ("vector", "ideal")]


def test_serve_plan_is_seeded_and_fresh_specs_are_new():
    grid = _grid(0)
    plan = inputs.serve_plan(0, grid, seconds=20)
    assert plan == inputs.serve_plan(0, grid, seconds=20)
    assert plan != inputs.serve_plan(1, grid, seconds=20)
    assert len(plan) == 20 * inputs.SERVE_RATE
    grid_keys = {inputs.spec_key(spec) for spec in grid}
    fresh = [spec for request in plan for spec in request.get("specs", ())
             if inputs.spec_key(spec) not in grid_keys]
    assert sum(request.get("fresh", 0) for request in plan) == len(fresh)
    assert fresh and len({inputs.spec_key(s) for s in fresh}) == len(fresh)
    assert all(spec["memsys"] != "ideal" for spec in fresh)
    sample = inputs.serve_check_sample(0, grid, plan)
    assert sample == inputs.serve_check_sample(0, grid, plan)
    assert all(spec in sample for spec in fresh)
    assert len(sample) == inputs.SERVE_CHECK_SAMPLE + len(fresh)


# -- the sweep child process ------------------------------------------------


def test_sweep_child_smoke_on_gsm_encode(tmp_path):
    specs = [inputs.spec("gsm_encode", coding, memsys, 30, True, 0,
                         [("l2_size", 64 * 1024)])
             for coding in ("mom", "mom3d")
             for memsys in ("vector", "multibank")]
    spec_file, out = tmp_path / "specs.json", tmp_path / "out.json"
    spec_file.write_text(json.dumps(specs))
    assert child.main(["sweep", "--specs", str(spec_file), "--out",
                        str(out), "--dump"]) == 0
    payload = json.loads(out.read_text())
    assert payload["count"] == 4
    dumped = {inputs.spec_key(spec): stats
              for spec, stats in payload["results"]}
    assert set(dumped) == {inputs.spec_key(spec) for spec in specs}
    assert payload["sums"]["sim.instructions"] == sum(
        stats["instructions"] for stats in dumped.values())
    assert all(value > 0 for value in payload["sums"].values())


# -- reference seconds ------------------------------------------------------


def test_steps_are_scaled_by_the_probes_around_them():
    probes = iter([0.1, 0.3, 0.4])
    speed = run.Speed(lambda: next(probes))
    # each step divides by the mean of the probe before and the one after
    assert speed.scale(1.0) == pytest.approx(1.0 * run.PROBE_S / 0.2)
    assert speed.scale(0.7) == pytest.approx(0.7 * run.PROBE_S / 0.35)


# -- result lines -----------------------------------------------------------


def test_contract_line_reports_the_published_metrics():
    result = run.Result()
    result.check(True, "round")
    for name in run.CONTRACT:
        result.samples[name].extend([3.0, 1.0, 2.0])
    line = run.contract_line(result, trace=False)
    assert line == {"correct": True, "attempted": 1, "failed": 0,
                    "metrics": {name: {"value": 2.0,
                                       "unit": run.END_TO_END[name][0]}
                                for name in run.CONTRACT}}
    result.layers = {name: 1.0 for name in run.PER_LAYER}
    assert set(run.contract_line(result, trace=True)["metrics"]) == \
        set(run.PER_LAYER)


def test_failed_jobs_count_as_infinitely_late():
    import loadgen

    def job(latency, error=None):
        outcome = loadgen.Outcome({"kind": "job", "due": 0.0}, due=0.0)
        outcome.done, outcome.error = latency, error
        return outcome

    outcomes = [job(0.01 * (i + 1)) for i in range(20)] + \
        [job(None, "job failed: boom")]
    result = run.Result()
    run._record_outcomes(result, outcomes)
    assert result.attempted == 21 and len(result.failures) == 1
    assert len(result.samples["wall_s"]) == 20
    # 21 jobs: the tail is the 11th smallest latency, with the failed job
    # among the ten beyond it
    assert result.samples["job_tail_ms"] == [pytest.approx(110.0)]


# -- the catalogue BENCHMARK.json publishes ---------------------------------


def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]} == {
        name: run.END_TO_END[name] for name in run.CONTRACT}
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == run.PER_LAYER
