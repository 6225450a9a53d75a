"""Nonblocking request handles."""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.simulate import Environment, Event


class Request:
    """Handle to an in-flight nonblocking operation.

    Wraps the operation's completion event: a send's transfer event or
    a receive's mailbox get (no driver process).  ``wait`` is a
    generator (``yield from req.wait()``); ``test`` polls.
    ``transform`` maps the completion value to the caller-visible result
    (``irecv`` completes with the matched envelope and returns its
    payload).
    """

    def __init__(self, env: Environment, op: Event,
                 transform: Optional[Any] = None):
        self.env = env
        self._op = op
        self._transform = transform

    def wait(self) -> Generator:
        """Block until the operation completes; returns its value."""
        value = yield self._op
        if self._transform is not None:
            value = self._transform(value)
        return value

    def test(self) -> tuple[bool, Optional[Any]]:
        """Non-blocking completion check: ``(done, value_or_None)``."""
        if not self.done:
            return False, None
        value = self._op.value
        if self._transform is not None:
            value = self._transform(value)
        return True, value

    @property
    def done(self) -> bool:
        return self._op.processed


def wait_all(requests: list[Request]) -> Generator:
    """Wait for every request; returns their values in order."""
    values = []
    for req in requests:
        value = yield from req.wait()
        values.append(value)
    return values
