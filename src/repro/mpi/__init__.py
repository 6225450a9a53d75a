"""Simulated MPI-2 message passing over the cluster substrate.

This package plays the role MPICH2 played in the paper: it gives SPMD
application code (written as generator coroutines) point-to-point and
collective communication, communicator management, **dynamic process
management** (``spawn`` + ``merge`` — the MPI-2 features ReSHAPE's
resizing library is built on).

Everything is charged against the simulated network: a ``send`` occupies
the sender's transmit engine and the receiver's receive engine for the
wire time, so collective algorithms and redistribution schedules have the
same cost *shape* they have on real Gigabit Ethernet.

Usage sketch::

    env = Environment()
    machine = Machine(env)
    world = World(env, machine)

    def main(comm):
        if comm.rank == 0:
            yield from comm.send(np.ones(4), dest=1, tag=7)
        elif comm.rank == 1:
            data = yield from comm.recv(source=0, tag=7)

    world.launch(main, processors=[0, 1])
    env.run()
"""

from repro.mpi.comm import ANY_SOURCE, ANY_TAG, Comm, Intercomm, World
from repro.mpi.datatypes import Phantom, payload_nbytes
from repro.mpi.errors import MPIError
from repro.mpi.ops import MAX, MIN, PROD, SUM, ReduceOp
from repro.mpi.request import Request
from repro.mpi.status import Status

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Comm",
    "Intercomm",
    "MAX",
    "MIN",
    "MPIError",
    "PROD",
    "Phantom",
    "ReduceOp",
    "Request",
    "SUM",
    "Status",
    "World",
    "payload_nbytes",
]
