"""Open-loop load generation over one pipelining ``ServiceClient``.

The sender (the calling thread) submits each operation at its scheduled
instant whatever is still in flight; the client's own receiver thread
resolves the futures, and a done-callback stamps each completion there.
Latency runs from the scheduled instant, so a stall also charges the
requests that were due during it; ``lateness`` is how far behind schedule
the sender itself ran.
"""

from __future__ import annotations

import bisect
import os
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeout
from functools import partial
from time import perf_counter
from typing import List, Sequence, Tuple

from repro.cloud.process_member import FrameChannel
from repro.exceptions import ServiceOverloadedError
from repro.service import ServiceClient
from repro.service.protocol import ServiceRequest

import workloads

#: how long to wait for any one response after the schedule ends
RESPONSE_TIMEOUT_S = 60.0


class RequestIds:
    """Learns the request id the client puts on each submitted request, by
    wrapping the public ``FrameChannel.send_message`` (traced runs only)."""

    def __init__(self):
        self._local = threading.local()
        self._original = None

    def install(self) -> None:
        original = self._original = FrameChannel.__dict__["send_message"]
        local = self._local

        def send_message(channel, obj):
            if isinstance(obj, ServiceRequest):
                local.last = obj.request_id
            return original(channel, obj)

        FrameChannel.send_message = send_message

    def uninstall(self) -> None:
        if self._original is not None:
            FrameChannel.send_message = self._original
            self._original = None

    @property
    def last(self):
        return getattr(self._local, "last", None)


def host_steal_s() -> float:
    """CPU time the hypervisor has taken from this machine's CPUs (the
    ``steal`` column of /proc/stat)."""
    with open("/proc/stat") as stat:
        fields = stat.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


class StealClock:
    """Samples host steal time every ``interval`` seconds in a thread, so a
    stretch of a run can be told apart when the host, not the program,
    held the CPUs."""

    def __init__(self, interval: float = 0.1):
        self.interval = interval
        self.cpus = len(os.sched_getaffinity(0))
        #: (perf_counter, steal seconds) pairs, appended whole by one thread
        self._samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="steal-clock", daemon=True)

    def _run(self) -> None:
        while not self._stop.is_set():
            self._samples.append((perf_counter(), host_steal_s()))
            self._stop.wait(self.interval)

    def __enter__(self) -> "StealClock":
        self._thread.start()
        return self

    def __exit__(self, *_exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    def total(self) -> float:
        """Seconds of CPU time stolen since the clock started."""
        samples = self._samples
        return samples[-1][1] - samples[0][1] if samples else 0.0

    def share(self, start: float, end: float) -> float:
        """Share of the CPUs' time stolen between two ``perf_counter``
        instants, over the samples that bracket them."""
        samples = list(self._samples)
        if len(samples) < 2:
            return 0.0
        first = max(0, bisect.bisect_right(samples, start, key=lambda s: s[0]) - 1)
        last = min(len(samples) - 1, bisect.bisect_left(samples, end, key=lambda s: s[0]))
        if last <= first:
            return 0.0
        (t0, s0), (t1, s1) = samples[first], samples[last]
        return (s1 - s0) / ((t1 - t0) * self.cpus)


def _stamp(op: workloads.Op, _future) -> None:
    op.done = perf_counter()


def _payload(op: workloads.Op):
    if op.kind == "query":
        return (workloads.ATTRIBUTE, op.key)
    return ({workloads.ATTRIBUTE: op.key, workloads.PAYLOAD: op.payload},)


def _settle(op: workloads.Op, future) -> None:
    try:
        result = future.result(timeout=RESPONSE_TIMEOUT_S)
    except FutureTimeout:
        op.status = "timeout"
        return
    except ServiceOverloadedError:
        op.status = "rejected"
        return
    except Exception:
        op.status = "error"
        return
    if op.done == 0.0:  # callback not yet run when result() returned
        op.done = perf_counter()
    op.status = "ok"
    if op.kind == "query":
        rows = []
        bad = 0
        for _rid, values in result:
            if values.get(workloads.ATTRIBUTE) != op.key:
                bad += 1
            rows.append(values.get(workloads.PAYLOAD))
        op.rows = rows
        op.bad_rows = bad


def run_open_loop(
    client: ServiceClient,
    ops: Sequence[workloads.Op],
    ids: RequestIds = None,
) -> None:
    """Submit ``ops`` on their schedule, then wait for every outcome."""
    futures = []
    origin = perf_counter() + 0.005
    tenants = workloads.TENANTS
    for op in ops:
        due = origin + op.offset
        delay = due - perf_counter()
        if delay > 0:
            time.sleep(delay)
        op.scheduled = due
        op.sent = perf_counter()
        future = client.submit(tenants[op.tenant], op.kind, _payload(op))
        op.sent_end = perf_counter()
        if ids is not None:
            op.rid = ids.last
        future.add_done_callback(partial(_stamp, op))
        futures.append(future)
    for op, future in zip(ops, futures):
        _settle(op, future)


def _release(op: workloads.Op, slots: threading.Semaphore, _future) -> None:
    op.done = perf_counter()
    slots.release()


def run_closed_loop(client: ServiceClient, ops: Sequence[workloads.Op], depth: int) -> None:
    """Keep ``depth`` operations in flight until all are sent, then wait for
    every outcome; each latency runs from the operation's own send.  At
    ``depth`` 1 each operation is sent when the previous one returned."""
    slots = threading.Semaphore(depth)
    tenants = workloads.TENANTS
    futures = []
    for op in ops:
        if not slots.acquire(timeout=RESPONSE_TIMEOUT_S):
            raise RuntimeError(f"no response in {RESPONSE_TIMEOUT_S:.0f} s with {depth} in flight")
        op.scheduled = op.sent = perf_counter()
        future = client.submit(tenants[op.tenant], op.kind, _payload(op))
        op.sent_end = perf_counter()
        future.add_done_callback(partial(_release, op, slots))
        futures.append(future)
    for op, future in zip(ops, futures):
        _settle(op, future)


def ping_rtts_us(client: ServiceClient, count: int) -> List[float]:
    rtts = []
    for _ in range(count):
        started = perf_counter()
        client.ping(workloads.TENANTS[0])
        rtts.append((perf_counter() - started) * 1e6)
    return rtts
