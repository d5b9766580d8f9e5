"""Service-level Query Binning benchmark: one tenant-visible request, end to
end and split by layer.

Run from the repository root::

    python3 perfbench/run.py --workload point_read --seed 1 --seconds 15 --trace 0

The run starts the multi-tenant service (``repro.service`` with its default
settings: 4 workers, queue depth 64, ``NonDeterministicScheme``, memory
storage) in a child process (``server_proc.py``) over two tenants, and
drives it from this process open loop over loopback TCP, with Poisson
arrivals seeded by ``--seed``, through one pipelining ``ServiceClient``.
The workloads are defined, with the reason for each, in ``workloads.py``.

``--trace 0`` measures every end-to-end metric: set-up (median of
``SETUP_REPS`` provisionings), a closed-loop warm-up burst, ``--seconds`` at
the workload's fixed offered rate, a closed-loop peak-throughput burst, and
a serial insert probe.  ``--trace 1`` runs
the fixed-rate phase twice, untraced and then traced, and splits each
traced request by layer (``tracing.py``) into every per-layer metric.

Each timed phase starts right after a full garbage collection in the
server, so no phase inherits the collector's pending work; the length of
those collections is itself reported (``full_gc_pause_ms``).  The share of
the CPUs the hypervisor stole during the measured phase is reported, not
filtered out.

Every answer is checked against a plaintext oracle and every tenant is
audited; a wrong answer, or a failed audit where the mix has no inserts,
exits 1.  The last line of standard output is the JSON result; the full
report, with provenance, is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import socket
import statistics
import subprocess
import sys
import time
from multiprocessing.connection import Connection
from pathlib import Path

EXIT_INCORRECT = 1
EXIT_USAGE = 2

PING_COUNT = 500


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrunken data and phases (harness self-test)")
    return parser.parse_args(argv)


class Run:
    """One benchmark run: the server child, the client, and every op sent."""

    def __init__(self, args, steal):
        import workloads
        from oracle import Oracle

        self.args = args
        self.steal = steal
        self.workload = workloads.get_workload(args.workload, tiny=args.tiny)
        self.setup_reps = 1 if args.trace else workloads.SETUP_REPS
        self.client = None
        # a plain child process over a socket pair: multiprocessing's spawn
        # would also start a resource tracker that nothing waits for
        ours, theirs = socket.socketpair()
        root = Path.cwd()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(root / "src"), env.get("PYTHONPATH")))
        )
        try:
            self.process = subprocess.Popen(
                [
                    sys.executable, str(Path(__file__).resolve().parent / "server_proc.py"),
                    str(theirs.fileno()), self.workload.name,
                    str(int(args.tiny)), str(self.setup_reps),
                ],
                pass_fds=(theirs.fileno(),),
                stdin=subprocess.DEVNULL,
                stdout=sys.stderr,
                env=env,
            )
        except BaseException:
            ours.close()
            raise
        finally:
            theirs.close()
        self.conn = Connection(ours.detach())
        try:
            datasets = [
                workloads.build_dataset(self.workload, index)
                for index in range(len(workloads.TENANTS))
            ]
            self.oracle = Oracle(datasets)
            self.source = workloads.OpSource(self.workload, args.seed, datasets)
            del datasets
            self.all_ops = []
            self.gc_pauses = []
            self._expect("generated")
            self.conn.send("setup")
            _tag, address, self.setup_times = self._expect("ready")
            from repro.service import ServiceClient

            self.client = ServiceClient(*address, timeout=60.0)
        except BaseException:
            self.close()
            raise

    def _reply(self, what, timeout=150.0):
        """The server's next message; fails fast if the server died."""
        deadline = time.monotonic() + timeout
        while not self.conn.poll(0.5):
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited ({self.process.returncode}) before {what}")
            if time.monotonic() > deadline:
                raise RuntimeError(f"server sent nothing for {what} in {timeout:.0f} s")
        return self.conn.recv()

    def _expect(self, tag):
        message = self._reply(tag)
        if message[0] != tag:
            raise RuntimeError(f"expected {tag!r} from the server, got {message!r}")
        return message

    def command(self, *command):
        self.conn.send(command)
        return self._reply(command[0])

    def collect(self):
        self.gc_pauses.append(self.command("collect"))

    def open_loop(self, phase, rate, seconds, ids=None, collect=True):
        from loadgen import run_open_loop

        if collect:
            self.collect()
        ops = self.source.schedule(phase, rate, seconds)
        run_open_loop(self.client, ops, ids)
        self.all_ops.extend(ops)
        return ops

    def close(self):
        """Stops the client and the server child, and waits for the child."""
        if self.client is not None:
            self.client.close()
        if self.process.poll() is None:
            try:
                self.conn.send(("stop",))
                if self.conn.poll(30):
                    self.conn.recv()
            except (OSError, EOFError):
                pass
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.conn.close()


def burst(run, phase):
    """Closed loop at ``BURST_IN_FLIGHT`` requests in flight over the
    workload's ``burst_ops`` operations (a fixed count, so the collector
    runs as often in every run); returns the operations and ok operations
    per second."""
    from loadgen import run_closed_loop
    from workloads import BURST_IN_FLIGHT

    run.collect()
    ops = run.source.burst(phase, run.workload.burst_ops)
    run_closed_loop(run.client, ops, BURST_IN_FLIGHT)
    run.all_ops.extend(ops)
    served = sum(op.status == "ok" for op in ops)
    return ops, served / (max(op.done for op in ops) - ops[0].sent)


def insert_probe(run):
    """Insert latency, closed loop: each insert follows one query on its
    tenant, so it has warm memos to flush as inserts in a mix do; the pairs
    start at even intervals over ``INSERT_PROBE_S`` (at most ``--seconds``).
    Then a query of every key touched, so the oracle sees each insert."""
    from loadgen import run_closed_loop

    import workloads

    pairs = run.source.query_insert_pairs("insert_probe", run.workload.insert_probe_ops)
    spacing = min(workloads.INSERT_PROBE_S, run.args.seconds) / len(pairs)
    origin = time.perf_counter()
    for index, (query, insert) in enumerate(pairs):
        delay = origin + index * spacing - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        run_closed_loop(run.client, (query, insert), 1)
    inserts = [insert for _query, insert in pairs]
    keys = sorted({(op.tenant, op.key) for op in inserts})
    checks = [workloads.Op(0.0, tenant, "query", key) for tenant, key in keys]
    run_closed_loop(run.client, checks, 1)
    for query, insert in pairs:
        run.all_ops.extend((query, insert))
    run.all_ops.extend(checks)
    return inserts


def measure(run, report):
    """``--trace 0``: every end-to-end metric."""
    import workloads
    from report import latencies_ms, lateness_ms, percentile

    workload, args = run.workload, run.args
    start = run.command("snapshot")
    burst(run, "warmup")
    run.collect()
    before = run.command("snapshot")
    fixed = run.open_loop("measure", workload.offered_rate, args.seconds, collect=False)
    after = run.command("snapshot")
    steal_share = run.steal.share(fixed[0].scheduled, max(op.done for op in fixed))
    peak_ops, peak_qps = burst(run, "peak")
    report["audit"] = run.command("audit")
    run.collect()
    insert_ops = insert_probe(run)
    measured = list(fixed) + peak_ops + insert_ops
    stored = run.command("stored_rows")
    end = run.command("snapshot")

    queries = latencies_ms(fixed, "query")
    # one median per insert class: the probe's sensitive share is exactly
    # alpha (about 0.46), so a median over both classes falls at the top of
    # the non-sensitive class and jumps between the two classes' latencies
    inserts = {
        marker: [
            op.latency_ms for op in insert_ops
            if op.status == "ok" and op.payload.split("-")[0] == marker
        ]
        for marker in ("s", "ns")
    }
    mixed_inserts = latencies_ms(fixed, "insert")
    # over all the run's traffic, warm-up to insert probe: one phase's
    # growth mostly shows where the memos' high-water mark happened to fall
    served_kop = sum(op.status == "ok" for op in run.all_ops) / 1000.0
    report["samples"] = {
        "query": len(queries), "query_beyond_p90": len(queries) - math.ceil(0.9 * len(queries)),
        "sensitive_insert": len(inserts["s"]), "nonsensitive_insert": len(inserts["ns"]),
    }
    query_p99 = percentile(queries, 0.99)
    # the tail stays in the report: its run-to-run spread follows the
    # host's steal share, too wide for a gated metric
    report["measured_phase"] = {
        "query_p90_ms": percentile(queries, 0.9),
        "query_p95_ms": percentile(queries, 0.95),
        "query_p99_ms": query_p99,
        # the workload's latency limit, as a verdict on this phase
        "slo_p99_met": query_p99 <= workload.slo_p99_ms and all(op.status == "ok" for op in fixed),
        "steal_share": steal_share,
    }
    report["measured_mix_inserts"] = {
        "count": len(mixed_inserts),
        "p50_ms": percentile(mixed_inserts, 0.5) if mixed_inserts else None,
        "max_ms": max(mixed_inserts, default=None),
    }
    report["generator_lateness_p99_ms"] = percentile(lateness_ms(fixed), 0.99)
    report["peak_probe"] = {
        "ops": len(peak_ops), "in_flight": workloads.BURST_IN_FLIGHT,
        "not_ok": sum(op.status != "ok" for op in peak_ops),
        "query_p95_ms": percentile(latencies_ms(peak_ops, "query"), 0.95),
    }
    report["setup_times_s"] = run.setup_times
    report["server_counters"] = {"start": start, "before": before, "after": after, "end": end}
    report["insert_p90_ms"] = {marker: percentile(values, 0.9) for marker, values in inserts.items()}
    report["insert_probe_ms"] = sorted(
        (round(op.latency_ms, 3), op.payload.split("-")[0]) for op in insert_ops if op.status == "ok"
    )
    report["full_gc_s"] = run.gc_pauses
    report["stored_rows"] = stored
    metrics = {
        "setup_s": (statistics.median(run.setup_times), "s"),
        "query_p50_ms": (percentile(queries, 0.5), "ms"),
        "sensitive_insert_p50_ms": (percentile(inserts["s"], 0.5), "ms"),
        "nonsensitive_insert_p50_ms": (percentile(inserts["ns"], 0.5), "ms"),
        "peak_qps": (peak_qps, "1/s"),
        # the stall a full collection of the server heap imposes: median
        # of the collections run before each timed phase
        "full_gc_pause_ms": (statistics.median(run.gc_pauses) * 1000.0, "ms"),
        "server_rss_mb": (after["rss_kb"] / 1024.0, "MB"),
        "rss_growth_kb_per_kop": ((end["rss_kb"] - start["rss_kb"]) / served_kop, "KB/kop"),
        "stored_rows_per_user_row": (stored["stored"] / stored["user"], "rows/row"),
    }
    return measured, metrics


def trace(run, report):
    """``--trace 1``: every per-layer metric."""
    import workloads
    from loadgen import RequestIds, ping_rtts_us
    from report import cost_model, latencies_ms, layer_split, percentile

    workload, args = run.workload, run.args
    burst(run, "warmup")
    untraced = run.open_loop("measure", workload.offered_rate, args.seconds)
    ids = RequestIds()
    ids.install()
    try:
        run.collect()
        run.command("trace_on")
        before = run.command("snapshot")
        traced = run.open_loop("measure", workload.offered_rate, args.seconds, ids, collect=False)
        after = run.command("snapshot")
        spans = run.command("trace_off")
    finally:
        ids.uninstall()
    rtts = ping_rtts_us(run.client, PING_COUNT)
    report["audit"] = run.command("audit")
    layout = run.command("layout")

    split = layer_split(traced, spans, before, after)
    metrics = split["metrics"]
    untraced_p50 = percentile(latencies_ms(untraced, "query"), 0.5)
    traced_p50 = percentile(latencies_ms(traced, "query"), 0.5)
    metrics["trace.overhead_ratio"] = traced_p50 / untraced_p50
    metrics["server.ping_rtt_us"] = percentile(rtts, 0.5)
    report["layer_split"] = split["extras"]
    report["cost_model"] = cost_model(split["extras"]["cost_model_inputs"], layout)
    report["samples"] = {"traced_ops": len(traced), "untraced_ops": len(untraced), "pings": len(rtts)}
    report["layer_map"] = {
        name: {"moves": moves, "on": on} for name, (moves, on) in workloads.LAYER_MAP.items()
    }
    out = Path(__file__).resolve().parent / "out"
    out.mkdir(exist_ok=True)
    trace_path = out / f"trace-{workload.name}-{args.seed}.json"
    with open(trace_path, "w") as handle:
        json.dump({
            "server": spans,
            "client": [
                [op.rid, op.kind, op.tenant, op.scheduled, op.sent, op.sent_end, op.done, op.status]
                for op in traced
            ],
        }, handle)
    report["trace_file"] = str(trace_path.relative_to(Path.cwd()))
    units = _per_layer_units()
    return list(untraced) + list(traced), {name: (metrics[name], units[name]) for name in units}


def _per_layer_units():
    config = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in config["per_layer"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still stops and waits for its server child
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(128 + signal.SIGTERM))
    root = Path.cwd()
    if not (root / "src" / "repro" / "service").is_dir() or not (root / "BENCHMARK.json").is_file():
        print("perfbench: run from the repository root (needs src/repro and BENCHMARK.json)",
              file=sys.stderr)
        return EXIT_USAGE
    sys.path.insert(0, str(root / "src"))
    import workloads
    from report import provenance

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return EXIT_USAGE
    from loadgen import StealClock

    with StealClock() as steal:
        run = Run(args, steal)
        report = {"provenance": provenance(root, args.seed, run.workload), "trace": args.trace}
        try:
            measured, metrics = (trace if args.trace else measure)(run, report)
        finally:
            run.close()
        report["provenance"]["host_steal_s"] = steal.total()
    mismatches, notes = run.oracle.check(run.all_ops)
    audit = report["audit"]
    # base-engine inserts do not re-pad bins, so a mix with inserts can
    # leak frequencies (a known finding, reported as it is)
    audit_gate = audit["audit_ok"] or run.workload.insert_fraction > 0
    failed = sum(op.status != "ok" for op in measured)
    correct = mismatches == 0 and audit_gate
    report.update({
        "oracle": {"checked_ops": len(run.all_ops), "mismatches": mismatches, "examples": notes},
        "attempted": len(measured),
        "failed": failed,
        "failed_op_frac": failed / len(measured),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })
    out = Path(__file__).resolve().parent / "out"
    out.mkdir(exist_ok=True)
    (out / f"report-{run.workload.name}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str)
    )
    print(json.dumps({k: report[k] for k in ("provenance", "audit", "oracle", "samples")}, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": len(measured),
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0 if correct else EXIT_INCORRECT


if __name__ == "__main__":
    sys.exit(main())
