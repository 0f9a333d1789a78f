"""Span tracing of the program's layers, recorded from the outside.

The traced run wraps the public calls into each module of ``repro``
(refactor, plan, decode, estimate, assign, store reads and commits, the
cache, the cluster and remote transports, the planner, the JSON-lines
server) with timing wrappers installed from this file: nothing inside
``src/`` changes.  Each wrapper records a :class:`Span` with its layer,
start, end and parent.  Parents come from a per-thread stack; the one
synchronous hop across threads, a JSON-lines client call served by a
server handler thread, is linked through the client socket's port.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover.  Within one answer's span tree the self
times of all spans add up to the answer's wall time; the answer root's
own self time is the part no layer accounts for
(``trace.unattributed``).  Work the answer thread does not wait on
synchronously (prefetch pool threads, the fetch scheduler thread, the
HTTP node threads) is not part of any answer tree; it is reported as
busy time per answer instead.
"""

from __future__ import annotations

import functools
import itertools
import threading
from collections import defaultdict
from time import perf_counter

ROOT_LAYER = "trace.answer"


class Span:
    __slots__ = ("sid", "parent", "layer", "name", "t0", "t1", "nbytes")

    def __init__(self, sid, parent, layer, name, t0, nbytes=0):
        self.sid = sid
        self.parent = parent
        self.layer = layer
        self.name = name
        self.t0 = t0
        self.t1 = t0
        self.nbytes = nbytes

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """In-memory span recorder plus the monkey-patches that feed it."""

    def __init__(self):
        self.spans: list = []
        self.roots: list = []
        self.links: dict = {}  # client socket port -> waiting span id
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def begin(self, layer: str, name: str, parent=None, nbytes: int = 0) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1].sid
        span = Span(next(self._ids), parent, layer, name, perf_counter(), nbytes)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.t1 = perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def answer(self):
        """Context manager around one answer: the root of its span tree."""
        tracer = self

        class _Answer:
            def __enter__(self):
                self.span = tracer.begin(ROOT_LAYER, "answer")
                return self.span

            def __exit__(self, *exc):
                tracer.end(self.span)
                tracer.roots.append(self.span.sid)

        return _Answer()

    def take(self) -> tuple:
        """Hand over and forget the spans and roots recorded so far."""
        spans, roots = self.spans, self.roots
        self.spans, self.roots = [], []
        return spans, roots

    # -- patching -----------------------------------------------------------

    def wrap(self, owner, attr: str, layer: str, nbytes=None, link=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        A call made while the thread is already inside a span of the same
        layer is passed straight through, so recursion (expression trees)
        and overrides calling ``super()`` count once.
        """
        original = owner.__dict__[attr]
        tracer = self
        name = attr

        @functools.wraps(original)
        def traced(*args, **kwargs):
            current = tracer.current()
            if current is not None and current.layer == layer:
                return original(*args, **kwargs)
            parent = link(args) if link is not None else None
            span = tracer.begin(layer, name, parent, nbytes(args) if nbytes else 0)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.end(span)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def wrap_generator(self, owner, attr: str, layer: str) -> None:
        """Time each ``next()`` of a generator method (the consumer's wait)."""
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            gen = original(*args, **kwargs)
            while True:
                span = tracer.begin(layer, attr)
                try:
                    item = next(gen)
                except StopIteration:
                    tracer.end(span)
                    return
                except BaseException:
                    tracer.end(span)
                    raise
                tracer.end(span)
                yield item

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def wrap_client_call(self, owner, attr: str, layer: str) -> None:
        """Wrap a socket client call so the server side can adopt its span."""
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def traced(client, *args, **kwargs):
            span = tracer.begin(layer, attr)
            port = client._sock.getsockname()[1]
            tracer.links[port] = span.sid
            try:
                return original(client, *args, **kwargs)
            finally:
                tracer.links.pop(port, None)
                tracer.end(span)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _subclasses(cls) -> list:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def instrument(tracer: Tracer) -> None:
    """Install every layer wrapper on the imported ``repro`` modules."""
    from repro.compressors import base, pmgard, psz3, psz3_delta, pzfp  # noqa: F401
    from repro.core import expressions, extensions, ingest, pipeline, retrieval  # noqa: F401
    from repro.service import planner, server, service
    from repro.storage import cache, cluster, remote, resilience, store

    for cls in _subclasses(base.Refactorer):
        if "refactor" in cls.__dict__:
            tracer.wrap(cls, "refactor", "compressors.refactor",
                        nbytes=lambda a: int(getattr(a[1], "nbytes", 0)))
    for cls in _subclasses(base.ProgressiveReader):
        if "request" in cls.__dict__:
            tracer.wrap(cls, "request", "compressors.decode")
        if "plan_segments" in cls.__dict__:
            tracer.wrap(cls, "plan_segments", "compressors.plan")
    tracer.wrap(ingest, "encode_fragments", "compressors.encode")

    tracer.wrap(retrieval.RetrievalSession, "retrieve", "core.retrieval")
    tracer.wrap(pipeline.FetchPipeline, "submit_round", "core.fetch_wait")
    tracer.wrap_generator(pipeline.FetchPipeline, "iter_groups", "core.fetch_wait")
    for cls in _subclasses(expressions.QoI):
        if "evaluate" in cls.__dict__:
            tracer.wrap(cls, "evaluate", "core.estimate")
    tracer.wrap(retrieval, "reassign_eb", "core.assign")
    tracer.wrap(ingest.IngestPipeline, "ingest", "core.ingest")

    for cls in (store.FragmentStore, store.DiskFragmentStore, store.ShardedDiskStore):
        for attr in ("get", "get_many"):
            if attr in cls.__dict__:
                tracer.wrap(cls, attr, "storage.store")
        for attr in ("put_many", "transact"):
            if attr in cls.__dict__:
                tracer.wrap(cls, attr, "storage.wal")
        if "compact" in cls.__dict__:
            tracer.wrap(cls, "compact", "storage.compact")
    for attr in ("get", "get_many"):
        tracer.wrap(cache.CachingFragmentStore, attr, "storage.cache")
        tracer.wrap(resilience.ResilientStore, attr, "storage.resilience")
        tracer.wrap(cluster.ClusterFragmentStore, attr, "storage.cluster")
    tracer.wrap(remote.HTTPFragmentStore, "_request", "storage.remote")

    tracer.wrap(service.ClientSession, "retrieve", "service.service")
    tracer.wrap(service.RetrievalService, "ingest", "service.ingest",
                nbytes=lambda a: sum(int(v.nbytes) for v in a[1].values()))
    for attr in ("load", "plan_segments", "seed_bounds"):
        tracer.wrap(planner.QueryPlanner, attr, "service.planner")
    tracer.wrap(planner.FetchScheduler, "fetch", "service.planner.coalesce")
    tracer.wrap(server, "encode_array", "service.server.encode")
    tracer.wrap(server, "decode_array", "service.server.encode")
    tracer.wrap_client_call(server.ServiceClient, "_send_recv", "service.server")
    tracer.wrap(server._ClientHandler, "_dispatch", "service.server",
                link=lambda a: tracer.links.get(a[0].client_address[1]))


# -- analysis ---------------------------------------------------------------


def _covered(children, t0: float, t1: float) -> float:
    """Length of the union of the children's intervals clipped to [t0, t1]."""
    total = 0.0
    end = t0
    for c in sorted(children, key=lambda s: s.t0):
        lo, hi = max(c.t0, end), min(c.t1, t1)
        if hi > lo:
            total += hi - lo
            end = hi
    return total


def answer_self_times(spans, roots) -> tuple:
    """``({layer: self seconds}, wall seconds)`` summed over answer trees.

    The root's self time is reported under :data:`ROOT_LAYER`; the
    values sum to the wall time by construction of the self times.
    """
    by_id = {s.sid: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    totals: dict = defaultdict(float)
    wall = 0.0
    for rid in roots:
        root = by_id.get(rid)
        if root is None:
            continue
        wall += root.duration
        todo = [root]
        while todo:
            s = todo.pop()
            kids = children.get(s.sid, ())
            totals[s.layer] += s.duration - _covered(kids, s.t0, s.t1)
            todo.extend(kids)
    return dict(totals), wall


def self_busy(spans) -> dict:
    """``{layer: self seconds}`` over every span on every thread."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    totals: dict = defaultdict(float)
    for s in spans:
        totals[s.layer] += s.duration - _covered(children.get(s.sid, ()), s.t0, s.t1)
    return dict(totals)


def busy(spans, layer: str) -> tuple:
    """``(seconds, bytes)`` of every span of *layer* on any thread."""
    seconds = 0.0
    nbytes = 0
    for s in spans:
        if s.layer == layer:
            seconds += s.duration
            nbytes += s.nbytes
    return seconds, nbytes


def durations(spans, layer: str) -> list:
    return [s.duration for s in spans if s.layer == layer]
