"""Layer-by-layer tracing of the simulator, from outside the program.

For the traced pass only, :class:`Tracer` replaces a declared table of
public entry points (:data:`ENTRY_POINTS`, one list per ``src/repro/``
layer) with wrappers that record a span per call: name, layer, parent
span, scenario/job tag, start, end, busy time and self time.  Nothing
under ``src/`` is edited; in-program hooks are a later issue.

Generator entry points (every communicating call of the simulator is
one) are timed per resume step, so a span's busy time is host time
actually spent inside it and not the simulated wait between its steps.
A layer's ``self_s`` is the busy time of its spans minus the part their
child spans cover; ``busy_s`` counts a layer's outermost spans only, so
nested spans of one layer are not counted twice.

(Named ``layertrace`` because this directory is ``sys.path[0]`` when
``run.py`` executes, where a ``trace.py`` would shadow the standard
library module.)
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import struct
import sys
import time
import warnings
import weakref
from typing import Any, Callable, Optional

LAYERS = ("sweep", "core", "api", "apps", "mpi.coll", "mpi.p2p", "cluster",
          "redist", "darray", "blacs", "simulate", "workloads")

#: (id, name id, layer id, parent id or -1, tag id, start, end, busy s,
#: self s) of a finished span.
SPAN_RECORD = struct.Struct("<5q4d")

#: Most spans a trace file keeps (aggregates always cover all of them).
MAX_SPANS_WRITTEN = 20_000


def _job_arg(index: int) -> Callable:
    return lambda args: getattr(args[index], "name", None)


def _own_job(args):
    return getattr(getattr(args[0], "job", None), "name", None)


#: layer -> entry points, each ``"module:function"`` or
#: ``"module:Class.method"``.  A trailing ``*`` also wraps every
#: subclass override.  The optional second element names how the span's
#: scenario/job tag is read from the call's arguments; spans without one
#: inherit their parent's.
ENTRY_POINTS: dict[str, list] = {
    "sweep": [
        ("repro.sweep.resolver:run_scenario", _job_arg(0)),
        "repro.sweep.runner:sweep_scenarios",
    ],
    "core": [
        "repro.core.framework:ReshapeFramework.submit",
        "repro.core.framework:ReshapeFramework.run",
        "repro.core.framework:ReshapeFramework.utilization",
        ("repro.core.framework:ReshapeFramework.remap_request", _job_arg(1)),
        ("repro.core.framework:ReshapeFramework.notify_resized",
         _job_arg(1)),
        ("repro.core.remap:RemapScheduler.decide", _job_arg(1)),
        # JobQueue.enqueue/next_startable and ProcessorPool.allocate/
        # release are left out: they only run inside the framework's
        # registered handlers (core spans already), and 100 000 extra
        # microsecond spans put sched_scale's traced pass at 1.7x.
    ],
    "api": [
        ("repro.api.resize:ResizeContext.resize", _own_job),
        ("repro.api.resize:ResizeContext.expand_processors", _own_job),
        ("repro.api.resize:ResizeContext.shrink_processors", _own_job),
        ("repro.api.resize:ResizeContext.redistribute_data", _own_job),
        ("repro.api.resize:resizable_main", _job_arg(2)),
        # Entry of the ranks an expansion spawns; without it their
        # spans would carry no job tag.
        ("repro.api.resize:_spawned_child_main", _job_arg(2)),
    ],
    "apps": [
        # replay_iterations is left out: iterate() delegates to it, so
        # it only doubled the resume steps of the same layer.
        "repro.apps.base:Application.iterate*",
        "repro.apps.base:Application.create_data*",
    ],
    "mpi.coll": [
        "repro.mpi.comm:Comm.barrier",
        "repro.mpi.comm:Comm.bcast",
        "repro.mpi.comm:Comm.reduce",
        "repro.mpi.comm:Comm.allreduce",
        "repro.mpi.comm:Comm.gather",
        "repro.mpi.comm:Comm.allgather",
        "repro.mpi.comm:Comm.scatter",
        "repro.mpi.comm:Comm.alltoall",
        "repro.mpi.fastcoll:detached_call",
        "repro.mpi.fastcoll:replay_chain",
    ],
    "mpi.p2p": [
        "repro.mpi.comm:Comm.send",
        "repro.mpi.comm:Comm.recv",
        "repro.mpi.comm:Comm.isend",
        "repro.mpi.comm:Comm.irecv",
        "repro.mpi.comm:Comm.sendrecv",
    ],
    "cluster": [
        "repro.cluster.network:Network.transfer",
        "repro.cluster.node:Disk.read",
        "repro.cluster.node:Disk.write",
    ],
    "redist": [
        "repro.redist.redistribute:redistribute",
        "repro.redist.checkpoint:checkpoint_redistribute",
        "repro.redist.tables:cached_2d_schedule",
        "repro.redist.tables:cached_rank_plans",
    ],
    "darray": [
        "repro.darray.distributed:DistributedMatrix.pack_rect",
        "repro.darray.distributed:DistributedMatrix.unpack_rect",
        "repro.darray.distributed:DistributedMatrix.from_global",
        "repro.darray.distributed:DistributedMatrix.to_global",
        "repro.darray.distributed:copy_rect",
    ],
    "blacs": [
        # The row/column broadcasts are one-line delegations to
        # Comm.bcast, called tens of thousands of times: tracing them
        # cost more than they do.
        "repro.blacs.context:BlacsContext.create",
    ],
    "simulate": [
        "repro.simulate.engine:Environment.run",
    ],
    "workloads": [
        "repro.workloads.generator:WorkloadGenerator.generate",
        "repro.workloads.generator:WorkloadGenerator.generate_scale",
        "repro.workloads.generator:WorkloadGenerator.submit_all",
        "repro.workloads.paper:JobSpec.build",
    ],
}

#: Classes whose instances are collected as they are created, so the
#: program's own counters can be read where the work happened.
#: Only small counter records: holding an Environment or a framework
#: would keep every finished simulation of the pass alive.
COLLECTED = {
    "comm_stats": "repro.mpi.comm:CommStats",
    "network_stats": "repro.cluster.network:NetworkStats",
    "ledgers": "repro.core.pool:ReservationLedger",
}

#: ``functools.lru_cache`` tables behind ``redist.plan_cache_hit_ratio``.
PLAN_CACHES = ("repro.redist.tables:cached_2d_schedule",
               "repro.redist.tables:cached_rank_plans",
               "repro.redist.tables:cached_2d_traffic")

HANDLER_TABLE = "repro.simulate.engine:Environment.register_handler"

#: Module prefix -> layer, for functions handed to
#: ``Environment.register_handler`` (attributed to where they are defined).
MODULE_LAYERS = (("repro.mpi.fastcoll", "mpi.coll"),
                 ("repro.mpi", "mpi.p2p"),
                 ("repro.sweep", "sweep"), ("repro.core", "core"),
                 ("repro.api", "api"), ("repro.apps", "apps"),
                 ("repro.cluster", "cluster"), ("repro.redist", "redist"),
                 ("repro.darray", "darray"), ("repro.blacs", "blacs"),
                 ("repro.workloads", "workloads"))


def _resolve(target: str):
    """``(owner, attribute name, object)`` of an entry-point string."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, inspect.getattr_static(owner, attr)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class Tracer:
    """Span recorder plus the monkey-patches that feed it.

    A finished span is one packed record in a byte buffer; while it
    runs it exists only as a frame on ``stack`` (and, for generators, as
    locals of the wrapper).  Per-span container objects that stay alive made
    the cyclic garbage collector the largest cost of a traced pass.
    """

    def __init__(self):
        self.clock = time.perf_counter
        self.names: list[str] = []
        self.tags: list = [None]
        self._name_ids: dict[str, int] = {}
        self._tag_ids: dict = {None: 0}
        #: Finished spans, in finishing order, one packed
        #: :data:`SPAN_RECORD` each: anything the garbage collector must
        #: visit per span shows up as tracing overhead.
        self._records = bytearray()
        self._next_id = itertools.count().__next__
        #: Running spans: [span id, child seconds, activated at, tag id].
        self.stack: list[list] = []
        self.depth = [0] * len(LAYERS)
        self.busy = [0.0] * len(LAYERS)
        #: Host seconds covered by outermost spans of any layer.
        self.covered = 0.0
        self.counters: dict[str, float] = {}
        self._last_seen: dict[str, weakref.WeakKeyDictionary] = {}
        self.collected: dict[str, list] = {key: [] for key in COLLECTED}
        self.missing: list[str] = []
        self.wrapped_layers: set[str] = set()
        self._patches: list[tuple] = []  # (owner, attr, original)
        self._cache_base: dict[str, tuple] = {}

    @property
    def spans(self) -> list[tuple]:
        """Finished spans as ``(id, name id, layer id, parent id or -1,
        tag id, start, end, busy s, self s)``; ids number spans by first
        activation."""
        return list(SPAN_RECORD.iter_unpack(self._records))

    def tag_id(self, tag) -> int:
        found = self._tag_ids.get(tag)
        if found is None:
            found = self._tag_ids[tag] = len(self.tags)
            self.tags.append(tag)
        return found

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def count_total(self, key: str, owner, total: float) -> None:
        """Count a running total kept by ``owner`` (read each time one
        of its calls returns) without keeping ``owner`` alive."""
        seen = self._last_seen.setdefault(key, weakref.WeakKeyDictionary())
        self.count(key, total - seen.get(owner, 0.0))
        seen[owner] = total

    # -- wrappers ---------------------------------------------------------
    def wrap(self, fn: Callable, layer_name: str, name: str, *,
             tag_of: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """A traced stand-in for ``fn``; ``after(tracer, args, result)``
        reads counts once the call (or generator) has returned."""
        layer = LAYERS.index(layer_name)
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        tracer = self
        clock, stack, next_id = self.clock, self.stack, self._next_id
        depth, layer_busy = self.depth, self.busy
        records, pack = self._records, SPAN_RECORD.pack

        def leave(frame):
            """Pop ``frame``: ``(now, seconds active, seconds not inside
            child spans)``."""
            now = clock()
            stack.pop()
            dur = now - frame[2]
            depth[layer] -= 1
            if not depth[layer]:
                layer_busy[layer] += dur
            if stack:
                stack[-1][1] += dur
            else:
                tracer.covered += dur
            return now, dur, dur - frame[1]

        # The wrappers are the tracer's whole overhead (half a million
        # resume steps in a traced synth_mix pass), so the step path of
        # a generator span has leave() written out.
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                gen = fn(*args, **kwargs)
                send, throw = gen.send, gen.throw
                if stack:
                    parent, _child, _t0, tag = stack[-1]
                else:
                    parent, tag = -1, 0
                if tag_of is not None:
                    tag = tracer.tag_id(tag_of(args)) or tag
                span = next_id()
                value = error = None
                busy = self_s = 0.0
                start = clock()
                frame = [span, 0.0, start, tag]
                # One turn per resume step: only the time between being
                # resumed and yielding again belongs to this span.
                while True:
                    depth[layer] += 1
                    stack.append(frame)
                    try:
                        item = (send(value) if error is None
                                else throw(error))
                    except BaseException as exc:
                        end, dur, own = leave(frame)
                        records.extend(pack(span, name_id, layer, parent,
                                            tag, start, end, busy + dur,
                                            self_s + own))
                        if not isinstance(exc, StopIteration):
                            raise
                        if after is not None:
                            after(tracer, args, exc.value)
                        return exc.value
                    # leave(), written out.
                    end = clock()
                    stack.pop()
                    dur = end - frame[2]
                    busy += dur
                    self_s += dur - frame[1]
                    depth[layer] -= 1
                    if not depth[layer]:
                        layer_busy[layer] += dur
                    if stack:
                        stack[-1][1] += dur
                    else:
                        tracer.covered += dur
                    try:
                        value, error = (yield item), None
                    except GeneratorExit:
                        records.extend(pack(span, name_id, layer, parent,
                                            tag, start, end, busy, self_s))
                        gen.close()
                        raise
                    except BaseException as exc:
                        value, error = None, exc
                    frame = [span, 0.0, clock(), tag]
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if stack:
                    parent, _child, _t0, tag = stack[-1]
                else:
                    parent, tag = -1, 0
                if tag_of is not None:
                    tag = tracer.tag_id(tag_of(args)) or tag
                span = next_id()
                depth[layer] += 1
                start = clock()
                frame = [span, 0.0, start, tag]
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end, dur, own = leave(frame)
                    records.extend(pack(span, name_id, layer, parent, tag,
                                        start, end, dur, own))
                if after is not None:
                    after(tracer, args, result)
                return result
            for extra in ("cache_info", "cache_clear"):
                if hasattr(fn, extra):
                    setattr(traced, extra, getattr(fn, extra))
        return traced

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        for layer_name, entries in ENTRY_POINTS.items():
            for entry in entries:
                target, tag_of = (entry if isinstance(entry, tuple)
                                  else (entry, None))
                if self._attempt(target, self._install_entry,
                                 layer_name, target, tag_of):
                    self.wrapped_layers.add(layer_name)
        for key, target in COLLECTED.items():
            self._attempt(target, self._collect_instances, key, target)
        for target in PLAN_CACHES:
            self._attempt(target, self._note_cache, target)
        self._attempt(HANDLER_TABLE, self._trace_handlers)

    def _attempt(self, target: str, action: Callable, *args) -> bool:
        """Run one installation step; a name the program no longer has
        is a warning and a null metric, never a crash."""
        try:
            action(*args)
        except (ImportError, AttributeError) as err:
            self.missing.append(target)
            warnings.warn(f"layertrace: {target} not found ({err}); "
                          f"its metrics read null")
            return False
        return True

    def _note_cache(self, target: str) -> None:
        info = _resolve(target)[2].cache_info()
        self._cache_base[target] = (info.hits, info.misses)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, replacement) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = replacement
        else:
            self._patches.append(
                (owner, attr, inspect.getattr_static(owner, attr)))
            setattr(owner, attr, replacement)

    def _install_entry(self, layer_name: str, target: str, tag_of) -> None:
        with_subclasses = target.endswith("*")
        owner, attr, raw = _resolve(target.rstrip("*"))
        after = AFTER_HOOKS.get(target)
        if not inspect.isclass(owner):
            traced = self.wrap(raw, layer_name, attr, tag_of=tag_of,
                               after=after)
            self._replace_function(raw, traced)
            return
        classes = [owner] + (list(_subclasses(owner))
                             if with_subclasses else [])
        for cls in classes:
            raw = cls.__dict__.get(attr)
            if raw is None or getattr(raw, "__isabstractmethod__", False):
                continue
            name = f"{cls.__name__}.{attr}"
            if isinstance(raw, (staticmethod, classmethod)):
                traced = type(raw)(self.wrap(
                    raw.__func__, layer_name, name, tag_of=tag_of,
                    after=after))
            else:
                traced = self.wrap(raw, layer_name, name, tag_of=tag_of,
                                   after=after)
            self._patch(cls, attr, traced)

    def _replace_function(self, original, traced) -> None:
        """Rebind every ``repro`` module global (and module-level dict
        value) that holds ``original``: ``from x import f`` copies the
        reference into the importer's namespace."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro"
                                      or module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, traced)
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        if item is original:
                            self._patch(value, key, traced)

    def _collect_instances(self, key: str, target: str) -> None:
        owner, _attr, cls = _resolve(target)
        bucket = self.collected[key]
        original = cls.__init__

        @functools.wraps(original)
        def init(instance, *args, **kwargs):
            original(instance, *args, **kwargs)
            bucket.append(instance)
        self._patch(cls, "__init__", init)

    def _trace_handlers(self) -> None:
        """Wrap every function passed to ``Environment.register_handler``
        and attribute it to the package that defines it.  The kernel's
        own handlers stay bare: they already run inside the
        ``Environment.run`` span of their own layer."""
        owner, attr, original = _resolve(HANDLER_TABLE)
        tracer = self

        @functools.wraps(original)
        def register_handler(env, fn):
            module = getattr(fn, "__module__", "") or ""
            for prefix, layer_name in MODULE_LAYERS:
                if module == prefix or module.startswith(prefix + "."):
                    name = "handler:" + getattr(fn, "__qualname__", "?")
                    fn = tracer.wrap(fn, layer_name, name)
                    break
            return original(env, fn)
        self._patch(owner, attr, register_handler)

    # -- results ----------------------------------------------------------
    def metrics(self, pass_s: float) -> dict[str, Optional[float]]:
        """Every tracer-side per-layer metric of the traced pass;
        ``None`` where the entry points (or counters) were missing."""
        out: dict[str, Optional[float]] = {}
        calls = [0] * len(LAYERS)
        self_s = [0.0] * len(LAYERS)
        name_calls = [0] * len(self.names)
        spans = self.spans
        layer_of = {span[0]: span[2] for span in spans}
        for _id, name_id, layer, parent, _tag, _t0, _t1, _busy, own \
                in spans:
            self_s[layer] += own
            # A call crosses into the layer when its caller is outside.
            if layer_of.get(parent) != layer:
                calls[layer] += 1
            name_calls[name_id] += 1
        names = dict(zip(self.names, name_calls))
        for idx, layer in enumerate(LAYERS):
            seen = layer in self.wrapped_layers
            out[f"{layer}.calls"] = float(calls[idx]) if seen else None
            out[f"{layer}.busy_s"] = self.busy[idx] if seen else None
            out[f"{layer}.self_s"] = self_s[idx] if seen else None
        got = self.collected

        def total(key, field):
            try:
                return float(sum(getattr(obj, field) for obj in got[key]))
            except AttributeError:
                return None

        events = self.counters.get("simulate.events")
        out["simulate.events"] = events
        out["simulate.us_per_event"] = \
            1e6 * pass_s / events if events else None
        out["mpi.coll.collectives"] = total("comm_stats", "collectives")
        out["mpi.p2p.messages"] = total("comm_stats", "sends")
        out["mpi.p2p.bytes"] = total("comm_stats", "bytes_sent")
        out["cluster.transfers"] = total("network_stats", "messages")
        out["cluster.bytes"] = total("network_stats", "bytes")
        out["cluster.busy_sim_s"] = total("network_stats", "busy_time")
        taken = total("ledgers", "wakes_taken")
        skipped = total("ledgers", "wakes_skipped")
        out["core.wakes_taken"] = taken
        out["core.wakes_skipped"] = skipped
        out["core.wake_useful_ratio"] = (
            taken / (taken + skipped) if taken is not None
            and skipped is not None and taken + skipped else None)
        requests = float(names.get("ReshapeFramework.remap_request", 0))
        resizes = float(names.get("ReshapeFramework.notify_resized", 0))
        out["core.remap_requests"] = requests
        out["core.resizes"] = resizes
        out["core.resize_ratio"] = resizes / requests if requests else None
        out["core.queue_wait_sim_s"] = \
            self.counters.get("core.queue_wait_sim_s")
        for key in ("redist.redistributions", "redist.messages",
                    "redist.wire_bytes", "redist.payload_bytes",
                    "redist.sim_s", "darray.bytes_copied"):
            out[key] = self.counters.get(key, 0.0)
        hits = misses = 0
        for target, (base_hits, base_misses) in self._cache_base.items():
            info = _resolve(target)[2].cache_info()
            hits += info.hits - base_hits
            misses += info.misses - base_misses
        out["redist.plan_cache_hit_ratio"] = (
            hits / (hits + misses) if hits + misses else None)
        darray_busy = out["darray.busy_s"]
        out["darray.GBps"] = (
            out["darray.bytes_copied"] / darray_busy / 1e9
            if darray_busy else None)
        out["trace.unattributed_share"] = \
            (pass_s - self.covered) / pass_s if pass_s else None
        out["trace.missing_entry_points"] = float(len(self.missing))
        return out

    def dump(self, pass_s: float) -> dict:
        """JSON-safe trace: per-name aggregates over every span, plus
        the first :data:`MAX_SPANS_WRITTEN` spans in start order."""
        by_name = [[LAYERS[0], 0, 0.0, 0.0] for _ in self.names]
        spans = self.spans
        for _id, name_id, layer, _parent, _tag, _t0, _t1, busy, own \
                in spans:
            row = by_name[name_id]
            row[0] = LAYERS[layer]
            row[1] += 1
            row[2] += busy
            row[3] += own
        written = sorted(spans)[:MAX_SPANS_WRITTEN]
        return {
            "pass_s": pass_s,
            "spans_total": len(spans),
            "spans_written": len(written),
            "by_name": {name: {"layer": row[0], "calls": row[1],
                               "busy_s": row[2], "self_s": row[3]}
                        for name, row in zip(self.names, by_name)
                        if row[1]},
            "span_fields": ["id", "name", "layer", "parent", "tag",
                            "start", "end", "busy_s", "self_s"],
            "spans": [[span, self.names[name_id], LAYERS[layer],
                       None if parent < 0 else parent, self.tags[tag],
                       start, end, busy, own]
                      for span, name_id, layer, parent, tag, start, end,
                      busy, own in written],
        }


# ---------------------------------------------------------------------------
# Counts read at the span boundaries
# ---------------------------------------------------------------------------

def _after_environment_run(tracer: Tracer, args, _result) -> None:
    # The tie counter numbers every record ever scheduled.
    tracer.count_total("simulate.events", args[0], args[0]._seq)


def _after_framework_run(tracer: Tracer, args, _result) -> None:
    tracer.count_total("core.queue_wait_sim_s", args[0], sum(
        job.start_time - job.arrival_time for job in args[0].jobs
        if job.start_time is not None))


def _after_redistribute(tracer: Tracer, args, result) -> None:
    tracer.count("redist.messages", result.messages)
    if args[0].rank == 0:      # whole-redistribution figures, once
        tracer.count("redist.redistributions")
        tracer.count("redist.wire_bytes", result.total_bytes_moved)
        tracer.count("redist.payload_bytes", result.payload_nbytes)
        tracer.count("redist.sim_s", result.elapsed)


def _after_pack(tracer: Tracer, args, strips) -> None:
    tracer.count("darray.bytes_copied", sum(s.nbytes for s in strips))


def _after_unpack(tracer: Tracer, args, _result) -> None:
    tracer.count("darray.bytes_copied", sum(s.nbytes for s in args[4]))


def _after_copy_rect(tracer: Tracer, args, _result) -> None:
    from repro.redist.tables import blocks_extent
    src, _src_rank, _dst, _dst_rank, row_blocks, col_blocks = args[:6]
    desc = src.desc
    tracer.count("darray.bytes_copied",
                 blocks_extent(desc.m, desc.mb, tuple(row_blocks))
                 * blocks_extent(desc.n, desc.nb, tuple(col_blocks))
                 * src.dtype.itemsize)


def _after_from_global(tracer: Tracer, args, matrix) -> None:
    tracer.count("darray.bytes_copied", args[1].nbytes)


def _after_to_global(tracer: Tracer, args, array) -> None:
    tracer.count("darray.bytes_copied", array.nbytes)


AFTER_HOOKS = {
    "repro.simulate.engine:Environment.run": _after_environment_run,
    "repro.core.framework:ReshapeFramework.run": _after_framework_run,
    "repro.redist.redistribute:redistribute": _after_redistribute,
    "repro.redist.checkpoint:checkpoint_redistribute": _after_redistribute,
    "repro.darray.distributed:DistributedMatrix.pack_rect": _after_pack,
    "repro.darray.distributed:DistributedMatrix.unpack_rect": _after_unpack,
    "repro.darray.distributed:DistributedMatrix.from_global":
        _after_from_global,
    "repro.darray.distributed:DistributedMatrix.to_global":
        _after_to_global,
    "repro.darray.distributed:copy_rect": _after_copy_rect,
}
