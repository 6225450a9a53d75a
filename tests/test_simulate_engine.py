"""Unit tests for the discrete-event kernel."""

import pytest

from repro.simulate import (
    Environment,
    SimulationError,
    Timeout,
)


def test_timeout_advances_clock():
    env = Environment()
    log = []

    def proc():
        yield env.timeout(5.0)
        log.append(env.now)
        yield env.timeout(2.5)
        log.append(env.now)

    env.process(proc())
    env.run()
    assert log == [5.0, 7.5]


def test_timeout_value_passthrough():
    env = Environment()
    seen = []

    def proc():
        v = yield env.timeout(1.0, value="hello")
        seen.append(v)

    env.process(proc())
    env.run()
    assert seen == ["hello"]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        Timeout(env, -1.0)


def test_process_return_value():
    env = Environment()

    def child():
        yield env.timeout(3.0)
        return 42

    def parent(results):
        value = yield env.process(child())
        results.append(value)

    results = []
    env.process(parent(results))
    env.run()
    assert results == [42]


def test_run_until_event_returns_value():
    env = Environment()

    def child():
        yield env.timeout(1.0)
        return "done"

    proc = env.process(child())
    assert env.run(until=proc) == "done"
    assert env.now == 1.0


def test_run_until_time_stops_clock():
    env = Environment()

    def ticker():
        while True:
            yield env.timeout(1.0)

    env.process(ticker())
    env.run(until=10.0)
    assert env.now == 10.0


def test_run_until_past_time_rejected():
    env = Environment(initial_time=5.0)
    with pytest.raises(SimulationError):
        env.run(until=1.0)


def test_event_succeed_wakes_waiter():
    env = Environment()
    ev = env.event()
    seen = []

    def waiter():
        v = yield ev
        seen.append((env.now, v))

    def firer():
        yield env.timeout(4.0)
        ev.succeed("payload")

    env.process(waiter())
    env.process(firer())
    env.run()
    assert seen == [(4.0, "payload")]


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_raises_in_waiter():
    env = Environment()
    ev = env.event()
    caught = []

    def waiter():
        try:
            yield ev
        except ValueError as err:
            caught.append(str(err))

    env.process(waiter())
    ev.fail(ValueError("boom"))
    env.run()
    assert caught == ["boom"]


def test_unhandled_process_exception_propagates():
    env = Environment()

    def bad():
        yield env.timeout(1.0)
        raise RuntimeError("crash")

    env.process(bad())
    with pytest.raises(RuntimeError, match="crash"):
        env.run()


def test_waiting_on_processed_event_returns_immediately():
    env = Environment()
    ev = env.event()
    ev.succeed("old")
    seen = []

    def late():
        yield env.timeout(2.0)
        v = yield ev
        seen.append((env.now, v))

    env.process(late())
    env.run()
    assert seen == [(2.0, "old")]


def test_determinism_ties_fifo():
    """Events scheduled for the same instant fire in creation order."""
    env = Environment()
    order = []

    def make(tag):
        def proc():
            yield env.timeout(1.0)
            order.append(tag)
        return proc

    for tag in range(8):
        env.process(make(tag)())
    env.run()
    assert order == list(range(8))


def test_yield_non_event_is_error():
    env = Environment()

    def bad():
        yield 42

    env.process(bad())
    with pytest.raises(SimulationError):
        env.run()


def test_nested_yield_from():
    env = Environment()
    trace = []

    def inner():
        yield env.timeout(2.0)
        return "inner-done"

    def outer():
        v = yield from inner()
        trace.append((env.now, v))
        yield env.timeout(1.0)
        trace.append(env.now)

    env.process(outer())
    env.run()
    assert trace == [(2.0, "inner-done"), 3.0]


def test_peek_and_step():
    env = Environment()
    env.timeout(7.0)
    assert env.peek() == 7.0
    env.step()
    assert env.now == 7.0
    assert env.peek() == float("inf")


def test_step_empty_queue_is_error():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_run_until_nan_rejected():
    """A NaN deadline is refused like a NaN event time: the clock and
    the queue stay as they were."""
    env = Environment()
    env.timeout(3.0)
    env.run(until=1.0)
    with pytest.raises(SimulationError):
        env.run(until=float("nan"))
    assert env.now == 1.0
    assert env.peek() == 3.0
