"""Payload size accounting and phantom buffers.

Distributed arrays in this reproduction run in two modes (see
``repro.darray``): *materialized* payloads are real numpy arrays;
*phantom* payloads are :class:`Phantom` stand-ins that carry only a byte
count.  Either way, the network charges the same wire time — which is the
point: paper-scale experiments (a 24000x24000 double matrix is 4.6 GB)
exercise the genuine communication schedule without allocating the data.
"""

from __future__ import annotations

from typing import Any

import numpy as np


class Phantom:
    """A buffer stand-in: known size, no contents.

    ``meta`` is free-form and travels with the phantom (used by the
    redistribution library to label which blocks a message carries).
    """

    __slots__ = ("nbytes", "meta")

    def __init__(self, nbytes: int, meta: Any = None):
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        self.nbytes = int(nbytes)
        self.meta = meta

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Phantom({self.nbytes})"

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Phantom) and other.nbytes == self.nbytes
                and other.meta == self.meta)

    def __hash__(self) -> int:
        # Only fields __eq__ compares: equal phantoms must hash equal.
        return hash(self.nbytes)


#: Fixed per-message envelope overhead charged on the wire (headers).
HEADER_BYTES = 64


def payload_nbytes(payload: Any) -> int:
    """Wire size in bytes of ``payload``.

    Sizes mirror what an MPI implementation would put on the wire for the
    common cases; generic Python objects get a conservative flat estimate
    (they only appear in control messages, never in bulk data paths).
    """
    if payload is None:
        return 0
    if isinstance(payload, Phantom):
        return payload.nbytes
    if isinstance(payload, np.ndarray):
        return payload.nbytes
    if isinstance(payload, np.generic):
        return payload.nbytes
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return 8
    if isinstance(payload, float):
        return 8
    if isinstance(payload, complex):
        return 16
    if isinstance(payload, str):
        return len(payload.encode())
    if isinstance(payload, (tuple, list, set, frozenset)):
        return 16 + sum(payload_nbytes(item) for item in payload)
    if isinstance(payload, dict):
        return 16 + sum(payload_nbytes(k) + payload_nbytes(v)
                        for k, v in payload.items())
    return 64
