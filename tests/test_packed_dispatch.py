"""Packed-record dispatch: handler table, Sleep, Batch, deliver.

The PR-6 hot-path contract: one-shot timed wakeups run as bare
``(when, priority, seq, handler_id, arg)`` records through the
Environment's handler table, and their queue positions are issued by
the *same* monotone ``seq`` counter as Event records — so packed and
Event traffic interleave deterministically and the two queue kernels
stay bit-identical.
"""

import pytest

from repro.core import ReshapeFramework
from repro.simulate import (
    HANDLER_BATCH,
    HANDLER_EVENT,
    HANDLER_RESUME,
    Environment,
    Event,
    SimulationError,
    Sleep,
)
from repro.workloads import WorkloadGenerator


class TestHandlerTable:
    def test_builtin_ids_are_stable(self):
        env = Environment()
        assert HANDLER_EVENT == 0
        assert env._handlers[HANDLER_RESUME] is not None
        assert env._handlers[HANDLER_BATCH] is not None

    def test_register_returns_fresh_ids(self):
        env = Environment()
        calls = []
        a = env.register_handler(lambda arg: calls.append(("a", arg)))
        b = env.register_handler(lambda arg: calls.append(("b", arg)))
        assert a != b
        env.call_at(1.0, b, "x")
        env.call_at(1.0, a, "y")
        env.run()
        assert calls == [("b", "x"), ("a", "y")]
        assert env.now == 1.0

    def test_handler_id_caches_by_identity(self):
        env = Environment()

        def fn(arg):
            pass

        assert env.handler_id(fn) == env.handler_id(fn)
        n = len(env._handlers)
        env.handler_id(fn)
        assert len(env._handlers) == n

    def test_call_at_rejects_nan_and_past(self):
        env = Environment()
        hid = env.register_handler(lambda arg: None)
        with pytest.raises(SimulationError):
            env.call_at(float("nan"), hid)
        with pytest.raises(SimulationError):
            env.call_at(-1.0, hid)
        with pytest.raises(SimulationError):
            env.call_later(-0.5, hid)

    def test_call_later_fires_relative(self):
        env = Environment()
        out = []
        hid = env.register_handler(out.append)
        env.call_later(2.5, hid, "late")
        env.run()
        assert out == ["late"] and env.now == 2.5


class TestSeqTieOrdering:
    def test_packed_and_event_records_share_one_counter(self):
        """A packed record booked before an Event at the same (time,
        priority) fires first — and vice versa — because both paths
        increment the single Environment seq counter."""
        for flip in (False, True):
            env = Environment()
            log = []
            hid = env.register_handler(log.append)
            ev = env.event()
            ev.callbacks.append(lambda e: log.append("event"))
            if flip:
                env.schedule_at(ev, 5.0)
                env.call_at(5.0, hid, "packed")
            else:
                env.call_at(5.0, hid, "packed")
                env.schedule_at(ev, 5.0)
            ev._value = None
            ev._ok = True
            env.run()
            expected = (["event", "packed"] if flip
                        else ["packed", "event"])
            assert log == expected, flip


class TestSleep:
    def test_sleep_advances_clock_and_returns_value(self):
        env = Environment()
        out = []

        def proc():
            got = yield env.sleep(3.0, value="v")
            out.append((env.now, got))
            yield env.sleep(7.0)
            out.append((env.now, None))

        env.process(proc())
        env.run()
        assert out == [(3.0, "v"), (10.0, None)]

    def test_sleep_matches_timeout_semantics(self):
        def trajectory(use_sleep):
            env = Environment()
            log = []

            def worker(tag, delay):
                if use_sleep:
                    yield env.sleep(delay)
                else:
                    yield env.timeout(delay)
                log.append((env.now, tag))

            for tag in range(20):
                env.process(worker(tag, float(tag % 5)))
            env.run()
            return log

        assert trajectory(True) == trajectory(False)

    def test_sleep_is_not_an_event(self):
        env = Environment()
        s = env.sleep(1.0)
        assert type(s) is Sleep
        assert not isinstance(s, Event)


class TestBatch:
    def test_members_fire_together_in_add_order(self):
        env = Environment()
        log = []
        batch = env.batch_at(4.0)
        for i in range(3):
            ev = env.event()
            ev.callbacks.append(
                lambda e, i=i: log.append((env.now, i, e.value)))
            batch.add(ev, value=i * 10)
        assert not batch.fired
        env.run()
        assert batch.fired
        assert log == [(4.0, 0, 0), (4.0, 1, 10), (4.0, 2, 20)]
        assert all(m.processed for m in batch.members)

    def test_add_rejects_scheduled_and_foreign_events(self):
        env = Environment()
        batch = env.batch_at(1.0)
        ev = env.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            batch.add(ev)
        other = Environment()
        with pytest.raises(SimulationError):
            batch.add(other.event())
        member = env.event()
        batch.add(member)
        with pytest.raises(SimulationError):
            env.schedule(member)  # the batch owns delivery

    def test_process_can_wait_on_member(self):
        env = Environment()
        out = []
        batch = env.batch_at(2.0)

        def waiter(ev):
            got = yield ev
            out.append((env.now, got))

        for i in range(2):
            ev = env.event()
            batch.add(ev, value=i)
            env.process(waiter(ev))
        env.run()
        assert out == [(2.0, 0), (2.0, 1)]


class TestDeliver:
    def test_deliver_resolves_and_fires_now(self):
        env = Environment()
        out = []

        def proc():
            ev = env.event()
            env.deliver(ev, value="granted")
            got = yield ev
            out.append((env.now, got))

        env.process(proc())
        env.run()
        assert out == [(0.0, "granted")]

    def test_deliver_rejects_triggered(self):
        env = Environment()
        ev = env.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            env.deliver(ev)

    def test_deliver_failure_propagates(self):
        env = Environment()
        out = []

        def proc():
            ev = env.event()
            env.deliver(ev, value=RuntimeError("nope"), ok=False)
            try:
                yield ev
            except RuntimeError as err:
                out.append(str(err))

        env.process(proc())
        env.run()
        assert out == ["nope"]


class TestFrameworkPackedArrivals:
    """The scheduler's arrival/wake/completion hops are packed records;
    cross-kernel timelines must stay identical."""

    @staticmethod
    def _timeline(kernel, specs):
        env = Environment(kernel=kernel)
        fw = ReshapeFramework(env=env, num_processors=48, dynamic=False)
        gen = WorkloadGenerator(seed=23)
        gen.submit_all(fw, specs, iterations=1)
        fw.run()
        # job_id is a global auto-increment (distinct across the two
        # frameworks); the name is the stable identity.
        return [(c.time, c.job_name, c.nprocs, c.reason)
                for c in fw.timeline.changes]

    def test_cross_kernel_timeline_identical(self):
        specs = WorkloadGenerator(seed=23, max_initial=8).generate_scale(
            2000, mean_serial_ms=500.0)
        heap = self._timeline("heap", specs)
        cal = self._timeline("calendar", specs)
        assert len(heap) >= 2 * len(specs)  # start + finish per job
        assert heap == cal

    def test_no_driver_processes_per_arrival(self):
        """Arrivals book packed records, not per-job Processes: before
        any arrival fires, the queue holds exactly one record per job
        (no Initialize + Timeout pairs)."""
        env = Environment()
        fw = ReshapeFramework(env=env, num_processors=8, dynamic=False)
        gen = WorkloadGenerator(seed=1, max_initial=4)
        specs = gen.generate_scale(50)
        gen.submit_all(fw, specs, iterations=1)
        assert len(env._queue) == len(specs)
