"""Per-request spans around the service's layers, recorded from outside.

:class:`ServerTracer` wraps public functions of each layer (class
attributes, restored by :meth:`ServerTracer.uninstall`) so that nothing
under ``src/`` changes.  A span is ``(request id, name, start, end, self
seconds, parent name)``; self time is the span's duration minus the time
its direct child spans cover, so the self times of one request add up to
the time its spans cover.  Spans and per-request counters stay in memory
until the run collects them.

A worker thread learns which request it serves from the payload object:
the reader's ``FrameChannel.recv_message`` returns the request, and the
worker hands that same payload tuple to ``TenantSession.execute``.

All stamps use ``time.perf_counter``, which on Linux reads the system-wide
monotonic clock, so client and server stamps of one request line up.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import repro.core.engine as engine_module
from repro.cloud.multi_cloud import MultiCloud
from repro.cloud.process_member import FrameChannel
from repro.cloud.server import CloudServer
from repro.core.engine import QueryBinningEngine
from repro.core.retrieval import BinRetriever
from repro.owner.db_owner import DBOwner
from repro.service.protocol import ServiceRequest, ServiceResponse, SocketConnection
from repro.service.tenants import DedupWindow, TenantSession

Span = Tuple[int, str, float, float, float, Optional[str]]

TRACED_OPS = ("query", "insert")


class ServerTracer:
    def __init__(self, scheme_classes: Tuple[type, ...]):
        self.spans: List[Span] = []
        #: rid -> counter name -> amount
        self.counts: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        #: rid -> instant name -> perf_counter stamp (recv, send_end)
        self.instants: Dict[int, Dict[str, float]] = defaultdict(dict)
        self._local = threading.local()
        self._pending: Dict[int, Tuple[int, float]] = {}
        self._patches: List[Tuple[type, str, object]] = []
        self._scheme_classes = scheme_classes

    # -- recording ----------------------------------------------------------------
    def _frame(self):
        local = self._local
        if getattr(local, "rid", None) is None:
            return None
        return local

    def _count(self, rid: int, name: str, amount: float = 1.0) -> None:
        self.counts[rid][name] += amount

    def _timed(self, name: str, call: Callable, after: Optional[Callable] = None):
        """Run ``call`` as span ``name`` of the thread's current request."""
        local = self._frame()
        if local is None:
            return call()
        stack = local.stack
        frame = [name, perf_counter(), 0.0]
        stack.append(frame)
        result = None
        try:
            result = call()
            return result
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - frame[1]
            parent = stack[-1] if stack else None
            if parent is not None:
                parent[2] += duration
            self.spans.append(
                (local.rid, name, frame[1], end, duration - frame[2],
                 parent[0] if parent is not None else None)
            )
            if after is not None:
                after(local.rid, result)

    def _in_span(self, prefix: str) -> bool:
        local = self._frame()
        return local is not None and any(f[0].startswith(prefix) for f in local.stack)

    # -- installation -------------------------------------------------------------
    def _patch(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        for klass in owner.__mro__:
            if attr in klass.__dict__:
                original = klass.__dict__[attr]
                break
        else:
            raise AttributeError(f"{owner.__name__} has no attribute {attr!r}")
        self._patches.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, make(original))

    def _span(self, owner, attr: str, name: str, after: Optional[Callable] = None) -> None:
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                return tracer._timed(name, lambda: original(*args, **kwargs), after)

            return wrapper

        self._patch(owner, attr, make)

    def install(self) -> None:
        tracer = self
        count = self._count

        # -- wire: request decode (reader) and response encode (worker) --------
        def make_recv(original):
            def recv_message(channel):
                message = original(channel)
                if isinstance(message, ServiceRequest) and message.op in TRACED_OPS:
                    now = perf_counter()
                    tracer._pending[id(message.payload)] = (message.request_id, now)
                    tracer.instants[message.request_id]["recv"] = now
                return message

            return recv_message

        def make_send(original):
            def send_message(channel, obj):
                rid = obj.request_id if isinstance(obj, ServiceResponse) else None
                if rid is None or rid not in tracer.instants:
                    return original(channel, obj)
                local = tracer._local
                local.send_calls = 0
                local.send_bytes = 0
                local.sending = True
                start = perf_counter()
                try:
                    return original(channel, obj)
                finally:
                    end = perf_counter()
                    local.sending = False
                    marks = tracer.instants[rid]
                    marks["send_start"] = start
                    marks["send_end"] = end
                    count(rid, "wire.response_bytes", local.send_bytes)
                    count(rid, "wire.send_bytes_calls", local.send_calls)
                    count(rid, "wire.responses", 1)

            return send_message

        def make_send_bytes(original):
            def send_bytes(connection, data):
                local = tracer._local
                if getattr(local, "sending", False):
                    local.send_calls += 1
                    local.send_bytes += memoryview(data).nbytes + 8  # u32 len + u32 crc
                return original(connection, data)

            return send_bytes

        self._patch(FrameChannel, "recv_message", make_recv)
        self._patch(FrameChannel, "send_message", make_send)
        self._patch(SocketConnection, "send_bytes", make_send_bytes)

        # -- tenants: execute (sets the worker's request context) + dedup -------
        def make_execute(original):
            def execute(session, op, payload):
                entry = tracer._pending.pop(id(payload), None) if op in TRACED_OPS else None
                if entry is None:
                    return original(session, op, payload)
                rid, received = entry
                local = tracer._local
                local.rid = rid
                local.stack = []
                marks = tracer.instants[rid]
                marks["execute_start"] = perf_counter()
                try:
                    return tracer._timed("tenants.execute", lambda: original(session, op, payload))
                finally:
                    marks["execute_end"] = perf_counter()
                    local.rid = None

            return execute

        def make_dedup(original, name):
            def dedup(window, key, *args, **kwargs):
                start = perf_counter()
                try:
                    return original(window, key, *args, **kwargs)
                finally:
                    rid = key[1]
                    if rid in tracer.instants:
                        tracer.counts[rid][name] += perf_counter() - start

            return dedup

        self._patch(TenantSession, "execute", make_execute)
        self._patch(DedupWindow, "claim", lambda o: make_dedup(o, "dedup.claim_s"))
        self._patch(DedupWindow, "complete", lambda o: make_dedup(o, "dedup.complete_s"))

        # -- owner / engine -----------------------------------------------------
        self._span(DBOwner, "query", "owner")
        self._span(DBOwner, "insert", "owner")
        self._span(BinRetriever, "retrieve", "engine.retrieve")
        self._span(QueryBinningEngine, "request_for_decision", "engine.request")

        def make_tokens_for_decision(original):
            def tokens_for_decision(engine, decision):
                local = tracer._frame()
                if local is not None:
                    count(local.rid, "engine.request_misses", 1)
                return original(engine, decision)

            return tokens_for_decision

        self._patch(QueryBinningEngine, "tokens_for_decision", make_tokens_for_decision)

        def after_merge(rid, result):
            count(rid, "merge.rows_returned", len(result) if result is not None else 0)

        def make_merge(original):
            def merge_results(query, sensitive_rows, non_sensitive_rows, *args, **kwargs):
                local = tracer._frame()
                if local is not None:
                    examined = len(sensitive_rows) + len(non_sensitive_rows)
                    count(local.rid, "merge.rows_examined", examined)
                return tracer._timed(
                    "merge.merge",
                    lambda: original(query, sensitive_rows, non_sensitive_rows, *args, **kwargs),
                    after_merge,
                )

            return merge_results

        original_merge = engine_module.merge_results
        self._module_patch = (engine_module, "merge_results", original_merge)
        engine_module.merge_results = make_merge(original_merge)

        # -- crypto (scheme classes the tenants actually use) -------------------
        for scheme_class in self._scheme_classes:
            self._span(
                scheme_class, "tokens_for_values", "crypto.tokens",
                lambda rid, result: count(rid, "crypto.tokens", len(result or ())),
            )
            self._span(
                scheme_class, "decrypt_rows", "crypto.decrypt",
                lambda rid, result: (
                    count(rid, "crypto.decrypt_calls", 1),
                    count(rid, "crypto.rows_decrypted", len(result or ())),
                ),
            )
            self._span(scheme_class, "indexed_search", "crypto.search")
            self._span(scheme_class, "search", "crypto.search")
            self._span(scheme_class, "encrypt_rows", "crypto.encrypt")

        # -- cloud and fleet ----------------------------------------------------
        def make_serve(original):
            def serve(server, request):
                local = tracer._frame()
                if local is not None:
                    memo = getattr(server, "_retrievals", None)
                    count(local.rid, "cloud.serves", 1)
                    if memo is not None and request in memo:
                        count(local.rid, "cloud.retrieval_hits", 1)
                return tracer._timed("cloud.serve", lambda: original(server, request))

            return serve

        self._patch(CloudServer, "serve", make_serve)

        def make_cloud_write(original):
            def write(server, *args, **kwargs):
                # a fleet member's write is fleet work, timed by fleet.write
                if tracer._in_span("fleet."):
                    return original(server, *args, **kwargs)
                return tracer._timed("cloud.write", lambda: original(server, *args, **kwargs))

            return write

        self._patch(CloudServer, "append_sensitive", make_cloud_write)
        self._patch(CloudServer, "register_non_sensitive_row", make_cloud_write)
        self._span(MultiCloud, "append_sensitive_sharded", "fleet.write")
        self._span(MultiCloud, "register_non_sensitive_row", "fleet.write")

    def uninstall(self) -> None:
        for owner, attr, previous in reversed(self._patches):
            if previous is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)
        self._patches.clear()
        module, attr, original = self._module_patch
        setattr(module, attr, original)

    # -- export -------------------------------------------------------------------
    def export(self) -> Dict[str, object]:
        return {
            "spans": list(self.spans),
            "counts": {rid: dict(values) for rid, values in self.counts.items()},
            "instants": {rid: dict(values) for rid, values in self.instants.items()},
        }
