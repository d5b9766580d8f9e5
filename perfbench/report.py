"""Reduce a run's operation records and spans to the reported metrics."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import subprocess
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Sequence

import workloads


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in (0, 1])."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def latencies_ms(ops: Iterable[workloads.Op], kind: str) -> List[float]:
    return [op.latency_ms for op in ops if op.kind == kind and op.status == "ok"]


def lateness_ms(ops: Sequence[workloads.Op]) -> List[float]:
    return [(op.sent - op.scheduled) * 1000.0 for op in ops if op.sent]


# -- provenance ------------------------------------------------------------------
def provenance(root: Path, seed: int, workload: workloads.Workload) -> Dict[str, object]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None  # the benchmark also runs from exported trees
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "seed": seed,
        "workload": workload.name,
        "offered_rate_ops_s": workload.offered_rate,
        "slo_query_p99_ms": workload.slo_p99_ms,
    }


# -- per-layer split ----------------------------------------------------------------
#: span name -> per-layer time metric
SPAN_LAYERS = {
    "tenants.execute": "tenants.execute_self_us",
    "owner": "owner.self_us",
    "engine.retrieve": "engine.rewrite_us",
    "engine.request": "engine.rewrite_us",
    "crypto.tokens": "crypto.tokens_us",
    "crypto.decrypt": "crypto.decrypt_us",
    "crypto.search": "crypto.search_us",
    "crypto.encrypt": "crypto.encrypt_us",
    "cloud.serve": "cloud.serve_us",
    "cloud.write": "cloud.write_us",
    "merge.merge": "merge.merge_us",
    "fleet.write": "fleet.write_us",
}

#: time metrics that tile one request, from scheduled send to completion
TIME_METRICS = (
    "client.lateness_us", "client.submit_us", "wire.request_us",
    "server.queue_wait_us", "tenants.execute_self_us", "owner.self_us",
    "engine.rewrite_us", "crypto.tokens_us", "crypto.decrypt_us",
    "crypto.search_us", "crypto.encrypt_us", "cloud.serve_us",
    "cloud.write_us", "merge.merge_us", "fleet.write_us",
    "server.respond_us", "wire.response_send_us", "wire.response_us",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_split(
    ops: Sequence[workloads.Op],
    trace: Dict[str, object],
    before: Dict[str, float],
    after: Dict[str, float],
) -> Dict[str, object]:
    """Mean self time per operation by layer, plus the layer ratios."""
    spans = defaultdict(list)
    for span in trace["spans"]:
        spans[span[0]].append(span)
    counts = trace["counts"]
    instants = trace["instants"]
    traced = [
        op for op in ops
        if op.status == "ok" and op.rid in instants
        and {"recv", "execute_start", "execute_end", "send_start", "send_end"}
        <= instants[op.rid].keys()
    ]
    if not traced:
        raise RuntimeError("no traced operation completed")
    # seconds (or counts) summed over operations; metrics divide by them
    totals: Dict[str, float] = defaultdict(float)
    queue_waits: List[float] = []
    request_calls = 0
    plaintext_hits = 0
    queries = 0
    cardinality = []  # (rows returned, latency ms, response bytes)
    for op in traced:
        marks = instants[op.rid]
        tally = counts.get(op.rid, {})
        claim = tally.get("dedup.claim_s", 0.0)
        complete = tally.get("dedup.complete_s", 0.0)
        queue_wait = marks["execute_start"] - marks["recv"] - claim
        queue_waits.append(queue_wait)
        # critical path: a sender still returning from its last send while
        # the peer already holds the message is off the request's path, so
        # each send span is clipped at the peer's receipt
        submitted = min(op.sent_end, marks["recv"])
        sent = min(marks["send_end"], op.done)
        totals["client.lateness_us"] += op.sent - op.scheduled
        totals["client.submit_us"] += submitted - op.sent
        totals["wire.request_us"] += marks["recv"] - submitted
        totals["server.queue_wait_us"] += queue_wait
        totals["tenants.execute_self_us"] += claim + complete
        totals["server.respond_us"] += marks["send_start"] - marks["execute_end"] - complete
        totals["wire.response_send_us"] += sent - marks["send_start"]
        totals["wire.response_us"] += op.done - sent
        totals["unclipped.client.submit_s"] += op.sent_end - op.sent
        for _rid, name, _start, _end, self_s, _parent in spans.get(op.rid, ()):
            totals[SPAN_LAYERS[name]] += self_s
            if name == "engine.request":
                request_calls += 1
        for name, amount in tally.items():
            totals["count." + name] += amount
        if op.kind == "query":
            queries += 1
            if not tally.get("crypto.decrypt_calls"):
                plaintext_hits += 1
            cardinality.append((len(op.rows), op.latency_ms, tally.get("wire.response_bytes", 0.0)))
    n = len(traced)
    mean_e2e_us = sum(op.done - op.scheduled for op in traced) / n * 1e6
    metrics: Dict[str, float] = {
        name: totals[name] / n * 1e6 for name in TIME_METRICS
    }
    accounted = sum(metrics.values())
    responses = totals["count.wire.responses"]
    served = after["queries_served"] - before["queries_served"]
    metrics.update({
        "server.queue_wait_p99_us": percentile(queue_waits, 0.99) * 1e6,
        "wire.response_bytes": _ratio(totals["count.wire.response_bytes"], responses),
        "wire.send_bytes_calls_per_msg": _ratio(totals["count.wire.send_bytes_calls"], responses),
        "engine.request_hit_ratio": 1.0 - _ratio(totals["count.engine.request_misses"], request_calls),
        "engine.plaintext_hit_ratio": _ratio(plaintext_hits, queries),
        "crypto.tokens_per_query": _ratio(totals["count.crypto.tokens"], queries),
        "crypto.rows_decrypted_per_query": _ratio(totals["count.crypto.rows_decrypted"], queries),
        "cloud.retrieval_hit_ratio": _ratio(totals["count.cloud.retrieval_hits"], totals["count.cloud.serves"]),
        "cloud.rows_scanned_per_query": _ratio(after["rows_scanned"] - before["rows_scanned"], served),
        "cloud.view_records_per_op": _ratio(after["view_records"] - before["view_records"], len(ops)),
        "cloud.transfer_records_per_op": _ratio(after["transfer_records"] - before["transfer_records"], len(ops)),
        "merge.rows_examined_per_row_returned": _ratio(
            totals["count.merge.rows_examined"], totals["count.merge.rows_returned"]
        ),
        "trace.unaccounted_share": (mean_e2e_us - accounted) / mean_e2e_us,
    })
    extras = {
        "traced_ops": n,
        "traced_queries": queries,
        "client_submit_unclipped_us": totals["unclipped.client.submit_s"] / n * 1e6,
        "mean_e2e_us": mean_e2e_us,
        "accounted_us": accounted,
        "cardinality_buckets": cardinality_buckets(cardinality),
        "cost_model_inputs": {
            "cloud_serve_s": totals["cloud.serve_us"],
            "crypto_s": totals["crypto.search_us"] + totals["crypto.tokens_us"] + totals["crypto.decrypt_us"],
            "wire_response_s": totals["wire.response_send_us"] + totals["wire.response_us"],
            "rows_returned": sum(rows for rows, _l, _b in cardinality),
            "queries": queries,
            "non_sensitive_probes": after["non_sensitive_probes"] - before["non_sensitive_probes"],
            "rows_scanned": after["rows_scanned"] - before["rows_scanned"],
        },
    }
    return {"metrics": metrics, "extras": extras}


def cardinality_buckets(samples, total_bins: int = 8) -> List[Dict[str, object]]:
    """Query latency and response bytes by result cardinality, in equi-width
    buckets over [0, max rows] (bucket ``b`` holds rows in ((b-1)w, bw])."""
    if not samples:
        return []
    upper = max(rows for rows, _l, _b in samples) or 1
    width = upper / total_bins
    grouped = defaultdict(list)
    for rows, latency, size in samples:
        grouped[min(total_bins, math.ceil(rows / width))].append((latency, size))
    buckets = []
    for index in sorted(grouped):
        entries = grouped[index]
        latencies = [latency for latency, _s in entries]
        buckets.append({
            "rows_from": math.floor((index - 1) * width) + 1 if index else 0,
            "rows_to": math.floor(index * width),
            "queries": len(entries),
            "latency_p50_ms": percentile(latencies, 0.5),
            "latency_max_ms": max(latencies),
            "response_bytes_mean": sum(s for _l, s in entries) / len(entries),
        })
    return buckets


def cost_model(inputs: Dict[str, float], layout: Dict[str, int]) -> Dict[str, object]:
    """Cp, Ce and Ccom from traced layer times and the modelled η of §V.

    Cp: cloud serve self time per cleartext probe; Ce: crypto time (tokens,
    search, decrypt) per encrypted row scanned; Ccom: response wire time
    per returned row.  A report, not a metric: memo hits make these
    steady-state costs, not cold ones.
    """
    from repro.exceptions import ConfigurationError
    from repro.model.cost import eta_full
    from repro.model.parameters import CostParameters

    cp = _ratio(inputs["cloud_serve_s"], inputs["non_sensitive_probes"])
    ce = _ratio(inputs["crypto_s"], inputs["rows_scanned"])
    ccom = _ratio(inputs["wire_response_s"], inputs["rows_returned"])
    total = layout["sensitive_tuples"] + layout["non_sensitive_tuples"]
    rho = _ratio(_ratio(inputs["rows_returned"], inputs["queries"]), total)
    report: Dict[str, object] = {
        "Cp_s": cp, "Ce_s": ce, "Ccom_s": ccom, "rho": rho, "layout": layout,
    }
    try:
        params = CostParameters(
            communication_cost=ccom, plaintext_cost=cp, encrypted_cost=ce,
            selectivity=rho,
        )
        report["eta_full"] = eta_full(
            layout["sensitive_tuples"], layout["non_sensitive_tuples"],
            layout["sensitive_bin_width"], layout["non_sensitive_bin_width"], params,
        )
    except ConfigurationError as error:  # a zero cost: nothing of it was traced
        report["eta_full"] = None
        report["eta_note"] = str(error)
    return report
