"""Span tracing for the traced benchmark run, from outside the program.

The benchmark wraps a few public methods and registration points of
the simulator for the duration of a traced run and restores them
afterwards; ``src/`` is never edited:

- ``EventLoop.schedule`` / ``call_later`` / ``call_at`` wrap every
  scheduled callback, so each dispatched event becomes a *callback
  span* attributed to the layer of the callback's owner;
- ``EventLoop.run`` / ``run_while`` give the *run span*, whose duration
  minus its callback spans is the loop's own dispatch time;
- ``PathFactory.build`` gives the *path-build span* and hands back the
  path whose ``LinkStats`` the per-play network counters are read from;
- ``PathEndpoint.register`` wraps every packet handler a flow registers,
  so handler time is a child span of the link event that delivered it;
- ``RealTracer.play_clip`` is the *play span*, the root of one play.

Every span has a name, a start, an end and a parent.  Play, path-build
and run spans are kept as they are.  A golden play dispatches about
50k events, so callback and handler spans are folded into per-layer
totals of their play (events, self time) the moment they end; memory
stays bounded.  Everything is kept in memory and written out by
:meth:`Tracer.write` at the end of the run.

A layer is the package under ``repro`` that defines the owner of a
callback: ``type(callback.__self__)`` for a bound method, the defining
module for a plain function or closure.  A ``sim.Timer`` firing is
attributed to the owner of the timer's callback.  A *timer event* is
one a ``sim.Timer`` schedules when it is armed; most are cancelled
(re-armed) before they fire, so they are counted when scheduled, not
when dispatched.
"""

from __future__ import annotations

import contextlib
import functools
import json
from pathlib import Path
from time import perf_counter_ns

from repro.core.realtracer import RealTracer
from repro.net.packet import PacketKind
from repro.net.path import PathEndpoint
from repro.sim.engine import PRIORITY_NORMAL, EventLoop, Timer
from repro.world.paths import PathFactory

#: Layers reported per play (events and self time).
LAYERS = ("sim", "net", "transport", "server", "player", "abr", "core")

#: The (owner, attribute) pairs a traced run replaces.
WRAPPED = (
    (EventLoop, "schedule"),
    (EventLoop, "call_later"),
    (EventLoop, "call_at"),
    (EventLoop, "run"),
    (EventLoop, "run_while"),
    (PathFactory, "build"),
    (PathEndpoint, "register"),
    (RealTracer, "play_clip"),
)

_LINK = "Link"
_CROSS = "CrossTrafficSource"


def _layer_of_module(module: str | None) -> str:
    parts = (module or "").split(".")
    if len(parts) >= 2 and parts[0] == "repro":
        return parts[1]
    return "other"


def classify(callback) -> tuple[str, str]:
    """``(layer, owner class name)`` of a scheduled callback."""
    while isinstance(callback, functools.partial):
        callback = callback.func
    owner = getattr(callback, "__self__", None)
    if owner is None:
        return _layer_of_module(getattr(callback, "__module__", None)), ""
    if isinstance(owner, Timer):
        # A timer's owner is whoever armed it: resolve through the
        # callback the timer fires.
        inner = getattr(owner, "_callback", None)
        return classify(inner) if inner is not None else ("sim", "Timer")
    cls = type(owner)
    return _layer_of_module(cls.__module__), cls.__name__


class Tracer:
    """Installs the wrappers, records spans, restores on exit.

    Use as a context manager around the traced flow::

        with Tracer() as tracer:
            study.run()
        tracer.plays  # one row of counters per play

    Spans outside any play (record-path stages, figure renders) are
    recorded with :meth:`span`.
    """

    def __init__(self) -> None:
        #: ``[name, start_ns, end_ns, parent]``; parent is an index or -1.
        self.spans: list[list] = []
        #: One row per ``play_clip`` call (see :meth:`_play_row`).
        self.plays: list[dict] = []
        self._open: list[int] = []
        #: Child time of the open callback/handler/run frames, in ns.
        self._frames: list[int] = []
        #: ``(layer, owner)`` -> ``[events, self_ns, total_ns]``,
        #: accumulated over the whole run; a play's row is the
        #: difference across its span.
        self._slots: dict[tuple[str, str], list[int]] = {}
        #: Slot cache keyed by owner type and code.
        self._by_callback: dict = {}
        #: ``sim.Timer`` events scheduled so far.
        self._timer_events = 0
        self._paths: list = []
        self._run_ns = 0
        self._build_ns = 0
        self._saved: list[tuple[type, str, object]] = []
        self._traced = self._make_traced()

    def _make_traced(self):
        frames = self._frames
        push, pop, clock = frames.append, frames.pop, perf_counter_ns

        def traced(callback, slot):
            push(0)
            start = clock()
            try:
                callback()
            finally:
                elapsed = clock() - start
                child = pop()
                if frames:
                    frames[-1] += elapsed
                slot[0] += 1
                slot[1] += elapsed - child
                slot[2] += elapsed

        return traced

    # -- span bookkeeping ---------------------------------------------------

    def _begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter_ns(), 0, parent])
        self._open.append(index)
        return index

    def _end(self, index: int) -> int:
        span = self.spans[index]
        span[2] = perf_counter_ns()
        self._open.pop()
        return span[2] - span[1]

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one named span around the ``with`` body."""
        index = self._begin(name)
        try:
            yield
        finally:
            self._end(index)

    # -- callback wrapping --------------------------------------------------

    def _slot_of(self, layer: str, name: str):
        return self._slots.setdefault((layer, name), [0, 0, 0])

    def wrap_callback(self, callback):
        owner = getattr(callback, "__self__", None)
        if type(owner) is Timer:
            self._timer_events += 1
            # A timer's slot depends on the callback it fires: no cache.
            slot = self._slot_of(*classify(callback))
        else:
            # Closures and lambdas are new objects on every schedule
            # call but share their code object (bound methods forward
            # ``__code__`` to their function), which keeps keys few.
            key = (type(owner), getattr(callback, "__code__", callback))
            slot = self._by_callback.get(key)
            if slot is None:
                slot = self._by_callback[key] = self._slot_of(
                    *classify(callback)
                )
        # A C-level partial over one shared function is cheaper to make
        # per scheduled event than a fresh closure.
        return functools.partial(self._traced, callback, slot)

    def wrap_handler(self, handler):
        # Handler spans add self time but are not loop events: they go
        # to a slot whose event count stays zero.
        layer, name = classify(handler)
        slot = self._slot_of(layer, name + ".handler")
        frames = self._frames

        def traced(packet):
            frames.append(0)
            start = perf_counter_ns()
            try:
                handler(packet)
            finally:
                elapsed = perf_counter_ns() - start
                child = frames.pop()
                if frames:
                    frames[-1] += elapsed
                slot[1] += elapsed - child

        return traced

    def _snapshot(self) -> dict:
        return {key: tuple(slot) for key, slot in self._slots.items()}

    def _play_row(self, span: int, before: dict, timer_events: int,
                  run_ns: int, build_ns: int, paths: list) -> dict:
        events = dict.fromkeys(LAYERS + ("other",), 0)
        self_ns = dict.fromkeys(LAYERS + ("other",), 0)
        row = {
            "span": span, "events": events, "self_ns": self_ns,
            "timer_events": timer_events, "link_events": 0,
            "cross_events": 0,
            "callback_ns": 0, "run_ns": run_ns, "build_ns": build_ns,
            "play_ns": self.spans[span][2] - self.spans[span][1],
            "cross_packets": 0, "queue_drops": 0, "random_drops": 0,
        }
        for (layer, name), slot in self._slots.items():
            old = before.get((layer, name), (0, 0, 0))
            count = slot[0] - old[0]
            layer = layer if layer in events else "other"
            events[layer] += count
            self_ns[layer] += slot[1] - old[1]
            if name.endswith(".handler"):
                continue
            row["callback_ns"] += slot[2] - old[2]
            if name == _LINK:
                row["link_events"] += count
            elif name == _CROSS:
                row["cross_events"] += count
        for path in paths:
            for link in path.links:
                stats = link.stats
                row["cross_packets"] += stats.delivered_by_kind.get(
                    PacketKind.CROSS, 0
                )
                row["queue_drops"] += stats.queue_drops
                row["random_drops"] += stats.random_drops
        return row

    # -- install / restore --------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, name in WRAPPED:
            self._saved.append((owner, name, owner.__dict__[name]))
        tracer = self
        original = {name: fn for _owner, name, fn in self._saved}
        schedule_fn = original["schedule"]
        call_later_fn = original["call_later"]
        call_at_fn = original["call_at"]
        wrap = self.wrap_callback

        def schedule(loop, delay, callback, priority=PRIORITY_NORMAL):
            return schedule_fn(loop, delay, wrap(callback), priority)

        def call_later(loop, delay, callback, priority=PRIORITY_NORMAL):
            call_later_fn(loop, delay, wrap(callback), priority)

        def call_at(loop, time, callback, priority=PRIORITY_NORMAL):
            call_at_fn(loop, time, wrap(callback), priority)

        def timed_run(name):
            def run(loop, *args, **kwargs):
                index = tracer._begin("sim.run")
                tracer._frames.append(0)
                try:
                    return original[name](loop, *args, **kwargs)
                finally:
                    tracer._frames.pop()
                    elapsed = tracer._end(index)
                    if tracer._frames:
                        tracer._frames[-1] += elapsed
                    tracer._run_ns += elapsed
            return run

        def build(factory, *args, **kwargs):
            index = tracer._begin("net.path_build")
            try:
                path = original["build"](factory, *args, **kwargs)
            finally:
                tracer._build_ns += tracer._end(index)
            tracer._paths.append(path)
            return path

        def register(endpoint, flow_id, handler):
            return original["register"](
                endpoint, flow_id, tracer.wrap_handler(handler)
            )

        def play_clip(real_tracer, *args, **kwargs):
            index = tracer._begin("core.play_clip")
            before = tracer._snapshot()
            timer_events = tracer._timer_events
            run_ns, build_ns = tracer._run_ns, tracer._build_ns
            tracer._paths = []
            try:
                return original["play_clip"](real_tracer, *args, **kwargs)
            finally:
                tracer._end(index)
                tracer.plays.append(tracer._play_row(
                    index, before, tracer._timer_events - timer_events,
                    tracer._run_ns - run_ns,
                    tracer._build_ns - build_ns, tracer._paths,
                ))
                tracer._paths = []

        replacements = {
            "schedule": schedule,
            "call_later": call_later,
            "call_at": call_at,
            "run": timed_run("run"),
            "run_while": timed_run("run_while"),
            "build": build,
            "register": register,
            "play_clip": play_clip,
        }
        for owner, name, fn in self._saved:
            wrapper = replacements[name]
            functools.update_wrapper(wrapper, fn)
            setattr(owner, name, wrapper)

    def restore(self) -> None:
        for owner, name, fn in reversed(self._saved):
            setattr(owner, name, fn)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- output -------------------------------------------------------------

    def stage_ns(self, name: str) -> list[int]:
        """Durations of every recorded span called ``name``."""
        return [end - start for n, start, end, _p in self.spans if n == name]

    def write(self, path: str | Path, header: dict) -> None:
        """Write the spans and the per-play table as JSON lines."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            handle.write(json.dumps({"header": header}) + "\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(json.dumps({
                    "span": index, "name": name, "start_ns": start,
                    "end_ns": end, "parent": parent,
                }) + "\n")
            for row in self.plays:
                handle.write(json.dumps({"play": row}) + "\n")

