"""Size-indexed scheduler queue: scan equivalence, ledger, determinism.

Three contracts:

* :class:`JobQueue` (size-indexed) and :class:`ScanJobQueue` (the seed
  O(n) scan) return the *identical* job for every probe in any
  enqueue/remove/probe interleaving — the FCFS+backfill decision rule
  is shared, only the cost differs.
* The :class:`ReservationLedger` never changes a decision: it mirrors
  ``needed_for_head`` and its wake filter only skips passes that would
  have started nothing.
* Two runs of the 10k-job synthetic workload produce identical
  timelines, on either kernel and either queue (end-to-end
  determinism of the whole new stack).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ReshapeFramework, ReservationLedger
from repro.core.job import Job
from repro.core.pool import ProcessorPool
from repro.core.queue import JobQueue, ScanJobQueue
from repro.simulate import Environment
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.paper import make_application


def make_job(size, priority=0):
    app = make_application("synthetic", 1000, iterations=1)
    return Job(app=app, initial_config=(1, size), priority=priority)


class TestScanEquivalence:
    def drive(self, script):
        """Run one op script against both queues, comparing decisions."""
        indexed = JobQueue(backfill=True)
        scan = ScanJobQueue(backfill=True)
        jobs = []
        for op, value in script:
            if op == "enqueue":
                size, priority = value
                job = make_job(size, priority)
                jobs.append(job)
                indexed.enqueue(job)
                scan.enqueue(job)
            elif op == "probe":
                a = indexed.next_startable(value)
                b = scan.next_startable(value)
                assert a is b, (value, a, b)
            elif op == "start" and len(indexed):
                job = indexed.next_startable(16)
                assert job is scan.next_startable(16)
                if job is not None:
                    indexed.remove(job)
                    scan.remove(job)
            assert len(indexed) == len(scan)
            assert indexed.head() is scan.head()
            assert (indexed.min_requested_size()
                    == scan.min_requested_size())
            for free in (0, 1, 5, 16):
                assert indexed.needed_for_head(free) == \
                    scan.needed_for_head(free)
                assert indexed.can_start(free) == scan.can_start(free)

    @given(st.lists(
        st.one_of(
            st.tuples(st.just("enqueue"),
                      st.tuples(st.integers(1, 16), st.integers(0, 2))),
            st.tuples(st.just("probe"), st.integers(0, 16)),
            st.tuples(st.just("start"), st.none()),
        ), min_size=1, max_size=120))
    @settings(max_examples=150, deadline=None)
    def test_property_identical_decisions(self, script):
        self.drive(script)

    def test_iteration_order_matches_scan(self):
        indexed = JobQueue()
        scan = ScanJobQueue()
        rng = random.Random(4)
        for _ in range(200):
            job = make_job(rng.randint(1, 16), rng.randint(0, 2))
            indexed.enqueue(job)
            scan.enqueue(job)
        assert list(indexed) == list(scan)

    def test_remove_and_reenqueue_drops_stale_entries(self):
        q = JobQueue()
        a, b = make_job(4), make_job(4)
        q.enqueue(a)
        q.enqueue(b)
        q.remove(a)
        assert q.head() is b
        q.enqueue(a)  # re-arrival goes to the back of its class
        assert q.next_startable(4) is b
        q.remove(b)
        assert q.next_startable(4) is a
        q.remove(a)
        assert q.empty and q.head() is None

    def test_double_enqueue_rejected(self):
        q = JobQueue()
        job = make_job(2)
        q.enqueue(job)
        try:
            q.enqueue(job)
        except ValueError:
            pass
        else:  # pragma: no cover
            raise AssertionError("double enqueue must raise")

    def test_fcfs_mode_only_head_starts(self):
        for cls in (JobQueue, ScanJobQueue):
            q = cls(backfill=False)
            big, small = make_job(8), make_job(2)
            q.enqueue(big)
            q.enqueue(small)
            assert q.next_startable(4) is None
            assert not q.can_start(4)
            assert q.next_startable(8) is big



class TestCachedHeads:
    """Removing an arbitrary queued job — a class head, a job behind
    it, or the last of its class — must keep every cached class head
    exact, in backfill and in strict FCFS mode."""

    def check(self, indexed, scan):
        assert len(indexed) == len(scan)
        assert indexed.head() is scan.head()
        for free in (0, 1, 3, 5, 8, 12, 16):
            assert indexed.next_startable(free) is \
                scan.next_startable(free)
            assert indexed.can_start(free) == scan.can_start(free)
            assert indexed.needed_for_head(free) == \
                scan.needed_for_head(free)

    @pytest.mark.parametrize("backfill", [True, False])
    @given(script=st.lists(
        st.one_of(
            st.tuples(st.just("enqueue"),
                      st.tuples(st.integers(1, 16), st.integers(0, 2))),
            st.tuples(st.just("remove"), st.integers(0, 200)),
            st.tuples(st.just("remove_class_head"), st.integers(0, 200)),
        ), min_size=1, max_size=120))
    @settings(max_examples=150, deadline=None)
    def test_property_arbitrary_removal(self, backfill, script):
        indexed = JobQueue(backfill=backfill)
        scan = ScanJobQueue(backfill=backfill)
        for op, value in script:
            queued = list(scan)
            if op == "enqueue":
                job = make_job(*value)
                indexed.enqueue(job)
                scan.enqueue(job)
            elif queued:
                if op == "remove":
                    victim = queued[value % len(queued)]
                else:
                    # The first queued job of some size is its class head.
                    sizes = sorted({j.requested_size for j in queued})
                    size = sizes[value % len(sizes)]
                    victim = next(j for j in queued
                                  if j.requested_size == size)
                indexed.remove(victim)
                scan.remove(victim)
            self.check(indexed, scan)

class TestReservationLedger:
    def test_refresh_mirrors_needed_for_head(self):
        pool = ProcessorPool(16)
        ledger = ReservationLedger(pool)
        queue = JobQueue()
        assert ledger.refresh(queue, 16) == 0
        assert ledger.holder is None
        job = make_job(10)
        queue.enqueue(job)
        assert ledger.refresh(queue, 4) == queue.needed_for_head(4) == 6
        assert ledger.holder == job.job_id
        assert ledger.reserved == 4
        assert ledger.available_for_expansion(4) == 0
        assert ledger.refresh(queue, 12) == 0
        assert ledger.reserved == 10
        assert ledger.available_for_expansion(12) == 2
        queue.remove(job)
        assert ledger.refresh(queue, 12) == 0
        assert ledger.available_for_expansion(12) == 12

    def test_wake_filter_skips_only_hopeless_wakes(self):
        env = Environment()
        fw = ReshapeFramework(env=env, num_processors=8, dynamic=False)
        gen = WorkloadGenerator(seed=3, max_initial=8)
        specs = gen.generate_scale(200, max_size=8)
        jobs = gen.submit_all(fw, specs, iterations=1)
        fw.run()
        assert all(j.turnaround is not None for j in jobs.values())
        assert fw.ledger.wakes_taken > 0
        # The filter must have skipped something in a saturated run...
        assert fw.ledger.wakes_skipped > 0
        # ...and skipping must not strand anything: queue drained, all
        # processors back in the pool.
        assert fw.queue.empty
        assert fw.pool.free_count == 8


def run_scale(count, *, kernel="calendar", scheduler="indexed", seed=11):
    gen = WorkloadGenerator(seed=seed, max_initial=16)
    specs = gen.generate_scale(count)
    fw = ReshapeFramework(env=Environment(kernel=kernel),
                          num_processors=36, dynamic=True,
                          scheduler=scheduler)
    jobs = gen.submit_all(fw, specs, iterations=1)
    fw.run()
    assert all(j.turnaround is not None for j in jobs.values())
    # job_id comes from a process-global counter, so identify records
    # by the per-run job *name* (stable across repeated runs).
    timeline = [(ch.time, ch.job_name, ch.reason)
                for ch in fw.timeline.changes]
    return timeline, fw.env.now


class TestDirectExecution:
    def test_multi_iteration_dynamic_job_keeps_resize_points_live(self):
        """Closed-form booking must not bypass live resize decisions: a
        multi-iteration synthetic job under dynamic scheduling executes
        its ranks and can expand onto idle processors."""
        fw = ReshapeFramework(num_processors=8, dynamic=True)
        app = make_application("synthetic", 4000, iterations=6)
        job = fw.submit(app, (1, 2))
        fw.run()
        assert job.turnaround is not None
        # Launched execution leaves per-iteration logs; the direct path
        # books none.  And with 6 idle processors the job must have hit
        # at least one expand decision.
        assert job.iteration_log
        assert any(reason == "expand"
                   for _, _, reason in
                   [(c.time, c.job_name, c.reason)
                    for c in fw.timeline.changes])

    def test_single_iteration_job_books_closed_form(self):
        fw = ReshapeFramework(num_processors=8, dynamic=True)
        app = make_application("synthetic", 4000, iterations=1)
        job = fw.submit(app, (1, 2))
        fw.run()
        assert job.turnaround is not None
        assert not job.iteration_log  # no ranks ran
        assert fw.env.now == 2.0      # 4 s serial / 2 ranks, exact

    def test_static_multi_iteration_job_books_closed_form(self):
        fw = ReshapeFramework(num_processors=8, dynamic=False)
        app = make_application("synthetic", 4000, iterations=3)
        job = fw.submit(app, (1, 2))
        fw.run()
        assert job.turnaround == 6.0  # 3 x 4 s / 2 ranks, no overheads
        assert not job.iteration_log


class TestScaleDeterminism:
    def test_ten_thousand_jobs_deterministic_timeline(self):
        """Two runs of the 10k-job workload: identical timelines."""
        first, now1 = run_scale(10_000)
        second, now2 = run_scale(10_000)
        assert now1 == now2
        assert first == second
        assert sum(1 for _, _, reason in first
                   if reason == "finish") == 10_000

    def test_kernel_and_queue_agnostic_timeline(self):
        """heap/scan and calendar/indexed produce the same schedule."""
        new_stack, now_new = run_scale(1_500)
        old_stack, now_old = run_scale(1_500, kernel="heap",
                                       scheduler="scan")
        assert now_new == now_old
        assert new_stack == old_stack
