"""The benchmark's server process: provision tenants, run the service.

``run.py`` starts this file as a child process::

    python3 perfbench/server_proc.py <socket fd> <workload> <tiny 0|1> <setup reps>

with ``src`` on ``PYTHONPATH``.  :func:`serve` talks to the load generator
over the inherited socket as a ``multiprocessing`` connection (commands in,
replies out); client traffic goes over loopback TCP through the service's
own wire.  Tenant data is generated before any timing.
"""

from __future__ import annotations

import gc
import statistics
import sys
from multiprocessing.connection import Connection
from time import perf_counter
from typing import Dict, List

from repro.exceptions import CloudError
from repro.service import EncryptedSearchService, TenantRegistry

import workloads
from tracing import ServerTracer


def rss_kb() -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    raise RuntimeError("VmRSS not found in /proc/self/status")


def provision(workload: workloads.Workload, datasets) -> EncryptedSearchService:
    registry = TenantRegistry()
    for name, dataset in zip(workloads.TENANTS, datasets):
        registry.provision(
            name,
            dataset.relation,
            workloads.policy(),
            attributes=(workloads.ATTRIBUTE,),
            **workload.owner_kwargs(),
        )
    return EncryptedSearchService(registry).start()


def _clouds(owner):
    """Every cloud-side store of one owner: reference servers and fleet members."""
    engine = owner.engine_for(workloads.ATTRIBUTE)
    clouds = [engine.cloud]
    if engine.multi_cloud is not None:
        clouds.extend(
            server
            for index, server in enumerate(engine.multi_cloud.servers)
            if index not in engine.multi_cloud.departed_members
        )
    return clouds


def snapshot(service: EncryptedSearchService) -> Dict[str, float]:
    """Cloud-side counters summed over tenants, plus the process's RSS."""
    totals = {
        "view_records": 0, "transfer_records": 0, "queries_served": 0,
        "rows_scanned": 0, "non_sensitive_probes": 0, "tokens_processed": 0,
    }
    for name in service.registry.names():
        owner = service.registry.get(name).owner
        for index, cloud in enumerate(_clouds(owner)):
            totals["view_records"] += len(cloud.view_log)
            totals["transfer_records"] += len(cloud.network.log)
            if index == 0:  # queries are served by the reference cloud
                stats = cloud.stats
                totals["queries_served"] += stats.queries_served
                totals["rows_scanned"] += stats.sensitive_rows_scanned
                totals["non_sensitive_probes"] += stats.non_sensitive_probes
                totals["tokens_processed"] += stats.sensitive_tokens_processed
    totals["rss_kb"] = rss_kb()
    totals["gc_collections"] = [generation["collections"] for generation in gc.get_stats()]
    totals["service"] = service.stats()
    return totals


def stored_rows(service: EncryptedSearchService) -> Dict[str, int]:
    """Rows held cloud-side (reference + every fleet member, fakes and
    replicas included) against rows the tenants own."""
    stored = 0
    user = 0
    for name in service.registry.names():
        owner = service.registry.get(name).owner
        user += len(owner.relation)
        for cloud in _clouds(owner):
            stored += cloud.encrypted_row_count
            try:
                stored += len(cloud.non_sensitive_relation)
            except CloudError:  # a member that holds no cleartext slice
                pass
    return {"stored": stored, "user": user}


def layout(service: EncryptedSearchService) -> Dict[str, int]:
    """The first tenant's QB layout, as the cost model reads it."""
    engine = service.registry.get(workloads.TENANTS[0]).owner.engine_for(workloads.ATTRIBUTE)
    return {
        "sensitive_tuples": sum(engine.metadata.sensitive_counts.values()),
        "non_sensitive_tuples": sum(engine.metadata.non_sensitive_counts.values()),
        "sensitive_bins": engine.layout.num_sensitive_bins,
        "non_sensitive_bins": engine.layout.num_non_sensitive_bins,
        "sensitive_bin_width": engine.layout.max_sensitive_bin_size,
        "non_sensitive_bin_width": engine.layout.max_non_sensitive_bin_size,
        "fake_rows": engine.fake_rows_outsourced,
    }


def audit(service: EncryptedSearchService) -> Dict[str, object]:
    verdicts = {}
    started = perf_counter()
    for name in service.registry.names():
        report = service.registry.get(name).owner.audit(workloads.ATTRIBUTE)
        verdicts[name] = {"ok": report.secure, "violations": list(report.violations)}
    return {
        "audit_ok": all(v["ok"] for v in verdicts.values()),
        "tenants": verdicts,
        "audit_s": perf_counter() - started,
    }


def serve(conn, workload_name: str, tiny: bool, setup_reps: int) -> None:
    workload = workloads.get_workload(workload_name, tiny=tiny)
    datasets = [
        workloads.build_dataset(workload, index)
        for index in range(len(workloads.TENANTS))
    ]
    conn.send(("generated",))
    if conn.recv() != "setup":
        return
    setup_times: List[float] = []
    service = None
    for rep in range(setup_reps):
        if service is not None:
            service.stop()
            service = None
            gc.collect()
        started = perf_counter()
        service = provision(workload, datasets)
        setup_times.append(perf_counter() - started)
    del datasets  # the tenants own their relations now
    schemes = tuple(
        {
            type(service.registry.get(name).owner.engine_for(workloads.ATTRIBUTE).scheme)
            for name in service.registry.names()
        }
    )
    conn.send(("ready", service.address, setup_times))
    tracer = None
    try:
        while True:
            command, *args = conn.recv()
            if command == "snapshot":
                conn.send(snapshot(service))
            elif command == "collect":
                # a full collection before each timed phase, so that no
                # phase inherits the collector's pending work from the last;
                # its duration is the stall a full collection imposes
                started = perf_counter()
                gc.collect()
                conn.send(perf_counter() - started)
            elif command == "trace_on":
                tracer = ServerTracer(schemes)
                tracer.install()
                conn.send("ok")
            elif command == "trace_off":
                tracer.uninstall()
                conn.send(tracer.export())
                tracer = None
            elif command == "audit":
                conn.send(audit(service))
            elif command == "layout":
                conn.send(layout(service))
            elif command == "stored_rows":
                conn.send(stored_rows(service))
            elif command == "stop":
                break
            else:
                conn.send(("error", f"unknown command {command!r}"))
    finally:
        if tracer is not None:
            tracer.uninstall()
        service.stop()
        conn.send(("stopped", statistics.median(setup_times)))
        conn.close()


if __name__ == "__main__":
    fd, workload_name, tiny, setup_reps = sys.argv[1:]
    serve(Connection(int(fd)), workload_name, tiny == "1", int(setup_reps))
