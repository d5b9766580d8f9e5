"""Workload definitions and seeded input generation for the service benchmark.

Both the server process and the load generator import this module: the
server builds each tenant's relation from it, and the generator rebuilds
the same relation (a pure function of the seed) to hold its plaintext
oracle.  Generation is never timed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.data.partition import SensitivityPolicy
from repro.data.relation import Row
from repro.workloads.generator import (
    SyntheticDataset,
    derive_stream_seed,
    generate_partitioned_dataset,
    generate_query_stream,
)

TENANTS = ("tenant-a", "tenant-b")
ATTRIBUTE = "key"
PAYLOAD = "payload"
PERMUTATION_SEED = 17
ZIPF_EXPONENT = 0.99
#: provisionings per measured run; ``setup_s`` is their median
SETUP_REPS = 2
#: seed of the closed-loop bursts' operations: a burst does the same work
#: under every run seed, so its throughput varies only with the program
#: and the host
BURST_SEED = 5
#: requests kept in flight by a closed-loop burst: enough to keep the
#: service's 4 workers busy, well under its admission queue depth of 64
BURST_IN_FLIGHT = 16
#: seconds the serial insert probe is spread over, so that a sub-second
#: slowdown of the host cannot set its median
INSERT_PROBE_S = 3.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    num_values: int
    tuples_per_value: int
    skew_exponent: Optional[float]
    insert_fraction: float
    #: fixed offered rate (ops/s over both tenants) of the measured phase
    offered_rate: float
    #: query p99 limit (ms) the measured phase is checked against
    slo_p99_ms: float
    #: operations of each closed-loop burst: the warm-up, which fills the
    #: memos before any timed phase, and the ``peak_qps`` probe; sized for
    #: about 4-6 s of load, longer than a short stall of the host
    burst_ops: int
    #: serial (query, insert) pairs of the insert-latency probe
    insert_probe_ops: int
    num_clouds: Optional[int] = None
    replication_factor: int = 1

    def owner_kwargs(self) -> Dict[str, object]:
        kwargs: Dict[str, object] = {"permutation_seed": PERMUTATION_SEED}
        if self.num_clouds is not None:
            kwargs["num_clouds"] = self.num_clouds
            kwargs["replication_factor"] = self.replication_factor
        return kwargs


WORKLOADS: Dict[str, Workload] = {
    "point_read": Workload(
        name="point_read",
        why=(
            "100% query, 2 tenants x 130k rows (100k keys x1), Zipf 0.99, "
            "300 ops/s: owner memos hit, so the front door and the "
            "owner-side merge dominate"
        ),
        num_values=100_000,
        tuples_per_value=1,
        skew_exponent=None,
        insert_fraction=0.0,
        offered_rate=300.0,
        slo_p99_ms=5.0,
        burst_ops=6000,
        insert_probe_ops=200,
    ),
    "skewed_rw": Workload(
        name="skewed_rw",
        why=(
            "95% query 5% insert, 2 tenants x 153k skewed rows on 3-member "
            "k=2 fleets, Zipf 0.99, 30 ops/s: inserts flush memos, so "
            "tokens, search and decrypt are paid"
        ),
        num_values=10_000,
        tuples_per_value=10,
        skew_exponent=0.5,
        insert_fraction=0.05,
        offered_rate=30.0,
        slo_p99_ms=50.0,
        burst_ops=600,
        insert_probe_ops=200,
        num_clouds=3,
        replication_factor=2,
    ),
}

#: which end-to-end metric each per-layer metric should move, and where
LAYER_MAP: Dict[str, Tuple[str, str]] = {
    "client.submit_us": ("query_p50_ms, peak_qps", "point_read"),
    "server.ping_rtt_us": ("query_p50_ms", "point_read"),
    "server.queue_wait_us": ("query tail (report), peak_qps", "point_read"),
    "server.queue_wait_p99_us": ("query tail (report), peak_qps", "point_read"),
    "wire.response_send_us": ("query_p50_ms / query tail (report)", "point_read / skewed_rw"),
    "wire.response_bytes": ("query tail (report) / query_p50_ms", "skewed_rw / point_read"),
    "wire.send_bytes_calls_per_msg": ("query tail (report) / query_p50_ms", "skewed_rw / point_read"),
    "tenants.execute_self_us": ("sensitive_insert_p50_ms, nonsensitive_insert_p50_ms", "skewed_rw"),
    "engine.rewrite_us": ("query tail (report)", "point_read"),
    "engine.request_hit_ratio": ("query tail (report)", "point_read"),
    "engine.plaintext_hit_ratio": ("query_p50_ms", "skewed_rw"),
    "crypto.tokens_us": ("query_p50_ms, query tail (report), peak_qps", "skewed_rw"),
    "crypto.tokens_per_query": ("query_p50_ms, query tail (report), peak_qps", "skewed_rw"),
    "crypto.decrypt_us": ("query_p50_ms, query tail (report), peak_qps", "skewed_rw"),
    "crypto.rows_decrypted_per_query": ("query_p50_ms, query tail (report), peak_qps", "skewed_rw"),
    "crypto.search_us": ("query_p50_ms, query tail (report), peak_qps", "skewed_rw"),
    "crypto.encrypt_us": ("sensitive_insert_p50_ms", "skewed_rw"),
    "cloud.serve_us": ("query_p50_ms", "both"),
    "cloud.retrieval_hit_ratio": ("query_p50_ms", "both"),
    "cloud.rows_scanned_per_query": ("query_p50_ms", "both"),
    "cloud.write_us": ("sensitive_insert_p50_ms, nonsensitive_insert_p50_ms", "skewed_rw"),
    "cloud.view_records_per_op": ("rss_growth_kb_per_kop, server_rss_mb", "both"),
    "cloud.transfer_records_per_op": ("rss_growth_kb_per_kop, server_rss_mb", "both"),
    "merge.merge_us": ("query_p50_ms", "both (dominant on point_read)"),
    "merge.rows_examined_per_row_returned": ("query_p50_ms", "both"),
    "fleet.write_us": ("sensitive_insert_p50_ms, nonsensitive_insert_p50_ms, setup_s", "skewed_rw"),
    "owner.self_us": ("query_p50_ms, sensitive_insert_p50_ms, nonsensitive_insert_p50_ms", "both"),
    "client.lateness_us": ("query tail (report)", "both"),
    "wire.request_us": ("query_p50_ms", "point_read"),
    "server.respond_us": ("query_p50_ms", "point_read"),
    "wire.response_us": ("query_p50_ms / query tail (report)", "point_read / skewed_rw"),
    "trace.overhead_ratio": ("report only", "both"),
    "trace.unaccounted_share": ("report only (target < 0.10)", "both"),
}


def get_workload(name: str, tiny: bool = False) -> Workload:
    """The named workload; ``tiny`` shrinks data and timings for self-tests."""
    workload = WORKLOADS[name]
    if not tiny:
        return workload
    return replace(
        workload,
        num_values=max(60, workload.num_values // 500),
        offered_rate=min(workload.offered_rate, 60.0),
        burst_ops=40,
        insert_probe_ops=20,
    )


def is_sensitive_payload(row: Row) -> bool:
    """Provisioning ``row_predicate``: inserted rows carry their class in the
    payload marker (``s-`` sensitive, ``ns-`` non-sensitive), exactly like
    the generated base rows."""
    return str(row.get(PAYLOAD, "")).startswith("s-")


def policy() -> SensitivityPolicy:
    return SensitivityPolicy(row_predicate=is_sensitive_payload)


#: each tenant's data seed; fixed, so every run seed measures the same
#: tenants and ``--seed`` varies only the traffic
TENANT_DATA_SEEDS = (23, 24)


def build_dataset(workload: Workload, tenant_index: int) -> SyntheticDataset:
    return generate_partitioned_dataset(
        num_values=workload.num_values,
        tuples_per_value=workload.tuples_per_value,
        skew_exponent=workload.skew_exponent,
        sensitivity_fraction=0.5,
        association_fraction=0.6,
        seed=TENANT_DATA_SEEDS[tenant_index],
        attribute=ATTRIBUTE,
        extra_attributes=(PAYLOAD,),
    )


@dataclass
class Op:
    """One scheduled operation and, once run, what happened to it."""

    offset: float
    tenant: int
    kind: str  # "query" | "insert"
    key: str
    payload: Optional[str] = None  # inserts only
    scheduled: float = 0.0
    sent: float = 0.0
    sent_end: float = 0.0
    done: float = 0.0
    status: str = "pending"  # ok | rejected | error | timeout
    rows: Optional[List[str]] = None  # payloads of a query's answer
    bad_rows: int = 0  # answer rows whose key differs from the query's
    rid: Optional[int] = None

    @property
    def latency_ms(self) -> float:
        return (self.done - self.scheduled) * 1000.0


class OpSource:
    """Seeded operation streams over one run's tenants.

    Query keys follow Zipf 0.99 over a fixed shuffle of each tenant's keys
    (the same keys are hot under every seed); inserts (a sensitive one with probability α) target a key that
    already exists on their side of the partition, so the base engine's
    insert contract holds.  Every inserted payload is unique in the run,
    which is what lets the oracle identify rows.
    """

    def __init__(self, workload: Workload, seed: int, datasets: Sequence[SyntheticDataset]):
        self.workload = workload
        self.seed = seed
        self._values: List[List[str]] = []
        self._sensitive_keys: List[List[str]] = []
        self._non_sensitive_keys: List[List[str]] = []
        self._alpha: List[float] = []
        for index, dataset in enumerate(datasets):
            values = sorted(dataset.all_values)
            random.Random(TENANT_DATA_SEEDS[index]).shuffle(values)
            self._values.append(values)
            self._sensitive_keys.append(sorted(dataset.sensitive_counts))
            self._non_sensitive_keys.append(sorted(dataset.non_sensitive_counts))
            self._alpha.append(dataset.alpha)
        self._inserted = 0

    def schedule(self, phase: str, rate: float, seconds: float) -> List[Op]:
        """Poisson arrivals at ``rate`` ops/s for ``seconds``.

        The arrival times, tenants, kinds and keys are a pure function of
        (seed, phase, rate); replaying a phase name replays the schedule.
        """
        rng = random.Random(derive_stream_seed(self.seed, f"perfbench|{phase}|{rate:.6f}"))
        offsets: List[float] = []
        clock = rng.expovariate(rate)
        while clock < seconds:
            offsets.append(clock)
            clock += rng.expovariate(rate)
        return self._mix(rng, self.seed, phase, offsets)

    def burst(self, phase: str, count: int) -> List[Op]:
        """``count`` operations of the workload's mix, unscheduled (closed
        loop); a pure function of (phase, count), seeded by ``BURST_SEED``."""
        rng = random.Random(derive_stream_seed(BURST_SEED, f"perfbench|{phase}|{count}"))
        return self._mix(rng, BURST_SEED, phase, [0.0] * count)

    def _mix(
        self, rng: random.Random, seed: int, phase: str, offsets: Sequence[float]
    ) -> List[Op]:
        streams = [
            iter(
                generate_query_stream(
                    values,
                    len(offsets) + 1,
                    mix="zipf",
                    zipf_exponent=ZIPF_EXPONENT,
                    seed=derive_stream_seed(seed, f"perfbench|{phase}|q{index}"),
                )
            )
            for index, values in enumerate(self._values)
        ]
        # stratified: the tenant split, the insert count and the sensitive
        # share are exact and only their placement is drawn, so every seed
        # flushes the memos equally often
        count = len(offsets)
        tenants = [index % len(self._values) for index in range(count)]
        rng.shuffle(tenants)
        inserts = set(rng.sample(range(count), round(count * self.workload.insert_fraction)))
        flags = self._sensitive_flags(rng, len(inserts))
        ops: List[Op] = []
        for index, (offset, tenant) in enumerate(zip(offsets, tenants)):
            if index in inserts:
                ops.append(self._insert(rng, offset, tenant, phase, flags.pop()))
            else:
                ops.append(Op(offset, tenant, "query", next(streams[tenant])))
        return ops

    def _sensitive_flags(self, rng: random.Random, count: int) -> List[bool]:
        """``count`` insert classes with the exact sensitive share α."""
        sensitive = round(count * sum(self._alpha) / len(self._alpha))
        flags = [True] * sensitive + [False] * (count - sensitive)
        rng.shuffle(flags)
        return flags

    def query_insert_pairs(self, phase: str, count: int) -> List[Tuple[Op, Op]]:
        """``count`` (query, insert) pairs, each pair on one tenant."""
        rng = random.Random(derive_stream_seed(self.seed, f"perfbench|{phase}"))
        streams = [
            iter(
                generate_query_stream(
                    values, count, mix="zipf", zipf_exponent=ZIPF_EXPONENT,
                    seed=derive_stream_seed(self.seed, f"perfbench|{phase}|q{index}"),
                )
            )
            for index, values in enumerate(self._values)
        ]
        tenants = [index % len(self._values) for index in range(count)]
        rng.shuffle(tenants)
        flags = self._sensitive_flags(rng, count)
        pairs = []
        for tenant, sensitive in zip(tenants, flags):
            query = Op(0.0, tenant, "query", next(streams[tenant]))
            pairs.append((query, self._insert(rng, 0.0, tenant, phase, sensitive)))
        return pairs

    def _insert(
        self, rng: random.Random, offset: float, tenant: int, phase: str, sensitive: bool
    ) -> Op:
        keys = (self._sensitive_keys if sensitive else self._non_sensitive_keys)[tenant]
        key = keys[rng.randrange(len(keys))]
        self._inserted += 1
        marker = "s" if sensitive else "ns"
        payload = f"{marker}-{PAYLOAD}-{key}-{phase}-{self._inserted}"
        return Op(offset, tenant, "insert", key, payload=payload)
