"""Tests for timeline recording and report rendering."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.events import JobTimeline, TimelineRecorder
from repro.metrics import (
    ascii_step_chart,
    format_table,
    render_allocation_history,
)
from repro.sweep.resolver import scenario_processors
from repro.sweep.spec import ScenarioSpec


def build_recorder():
    rec = TimelineRecorder()
    # Job 1: starts at t=0 on 4 procs, expands to 6 at t=10, done t=30.
    rec.record(0.0, 1, "alpha", 4, (2, 2), "start")
    rec.record(10.0, 1, "alpha", 6, (2, 3), "expand")
    rec.record(30.0, 1, "alpha", 0, None, "finish")
    # Job 2: t=5 on 2 procs, done t=25.
    rec.record(5.0, 2, "beta", 2, (1, 2), "start")
    rec.record(25.0, 2, "beta", 0, None, "finish")
    return rec


class TestJobTimeline:
    def test_nprocs_at(self):
        tl = JobTimeline(1, "j")
        tl.add(0.0, 4)
        tl.add(10.0, 6)
        tl.add(30.0, 0)
        assert tl.nprocs_at(-1.0) == 0
        assert tl.nprocs_at(0.0) == 4
        assert tl.nprocs_at(9.9) == 4
        assert tl.nprocs_at(10.0) == 6
        assert tl.nprocs_at(31.0) == 0

    def test_cpu_seconds_integral(self):
        tl = JobTimeline(1, "j")
        tl.add(0.0, 4)
        tl.add(10.0, 6)
        tl.add(30.0, 0)
        assert tl.cpu_seconds() == pytest.approx(4 * 10 + 6 * 20)

    def test_same_time_update_overwrites(self):
        tl = JobTimeline(1, "j")
        tl.add(0.0, 4)
        tl.add(0.0, 6)
        assert tl.points == [(0.0, 6)]


class TestTimelineRecorder:
    def test_job_timelines_split_by_job(self):
        rec = build_recorder()
        tls = rec.job_timelines()
        assert set(tls) == {1, 2}
        assert tls[1].points == [(0.0, 4), (10.0, 6), (30.0, 0)]

    def test_busy_processors_sums_jobs(self):
        rec = build_recorder()
        busy = dict(rec.busy_processors())
        assert busy[0.0] == 4
        assert busy[5.0] == 6     # 4 + 2
        assert busy[10.0] == 8    # 6 + 2
        assert busy[25.0] == 6    # beta done
        assert busy[30.0] == 0

    def test_utilization(self):
        rec = build_recorder()
        # cpu-seconds: alpha 4*10+6*20=160, beta 2*20=40 -> 200.
        # horizon 30 s, 10 processors -> 200/300.
        assert rec.utilization(10) == pytest.approx(200 / 300)

    def test_utilization_empty(self):
        assert TimelineRecorder().utilization(10) == 0.0

    def test_makespan(self):
        assert build_recorder().makespan() == pytest.approx(30.0)


class TestRendering:
    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [[1, 2.5], [30, None]],
                           title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "2.50" in out
        assert all(len(l) == len(lines[1]) for l in lines[2:])

    def test_ascii_chart_contains_series_glyphs(self):
        chart = ascii_step_chart({"jobA": [(0.0, 2.0), (5.0, 4.0)],
                                  "jobB": [(1.0, 1.0)]},
                                 width=40, height=8)
        assert "*" in chart and "o" in chart
        assert "jobA" in chart and "jobB" in chart

    def test_ascii_chart_empty(self):
        assert "empty" in ascii_step_chart({})

    def test_render_allocation_history(self):
        rec = build_recorder()
        out = render_allocation_history(rec, width=50, height=8)
        assert "alpha" in out and "beta" in out


def timeline_derived(rec, total):
    """Utilization and makespan rebuilt from ``job_timelines()``: the
    reference the recorder's running integral must equal exactly."""
    times = [c.time for c in rec.changes]
    makespan = max(times) - min(times) if times else 0.0
    busy = sum(tl.cpu_seconds() for tl in rec.job_timelines().values())
    return (busy / (total * makespan) if makespan > 0 else 0.0), makespan


@st.composite
def record_streams(draw):
    """Records with globally nondecreasing times, as every framework
    records ``env.now``; shared instants exercise equal-time replacement
    within a job and same-instant changes across jobs."""
    times = sorted(draw(st.lists(
        st.one_of(st.sampled_from([0.0, 1.0, 2.5, 7.25]),
                  st.floats(0.0, 100.0)),
        min_size=0, max_size=60)))
    return [(t, draw(st.integers(1, 4)), draw(st.integers(0, 16)))
            for t in times]


class TestRunningIntegral:
    def test_w1_dynamic_scenario_exact(self):
        spec = ScenarioSpec(kind="schedule", workload="w1", dynamic=True,
                            iterations=4)
        res = repro.run(spec)
        rec = res.timeline_recorder()
        total = scenario_processors(spec)
        assert any(a.time == b.time
                   for a, b in zip(rec.changes, rec.changes[1:]))
        util, makespan = timeline_derived(rec, total)
        assert rec.utilization(total) == util == res.utilization
        assert rec.makespan() == makespan == res.makespan

    @given(record_streams())
    @settings(max_examples=200, deadline=None)
    def test_stream_exact(self, stream):
        rec = TimelineRecorder()
        for time, job_id, nprocs in stream:
            rec.record(time, job_id, f"j{job_id}", nprocs, None, "start")
        util, makespan = timeline_derived(rec, 16)
        assert rec.utilization(16) == util
        assert rec.makespan() == makespan
        assert rec.utilization(16, horizon=200.0) == sum(
            tl.cpu_seconds()
            for tl in rec.job_timelines().values()) / (16 * 200.0)

    def test_backwards_per_job_record_raises(self):
        rec = build_recorder()
        with pytest.raises(ValueError):
            rec.record(20.0, 1, "alpha", 2, (1, 2), "shrink")
        # Another job may still record at an earlier time.
        rec.record(20.0, 3, "gamma", 2, (1, 2), "start")
