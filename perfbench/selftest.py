"""Seconds-scale self-test of the benchmark harness on tiny data.

Run from the repository root::

    python3 perfbench/selftest.py

It runs both workloads, measured and traced, on shrunken tenants; checks
that each run prints every metric ``BENCHMARK.json`` names, with its unit,
and reports a correct run; and checks that the oracle rejects corrupted
answers.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path


def fail(message: str) -> None:
    print(f"selftest: FAIL: {message}")
    sys.exit(1)


def check_runs(root: Path, config) -> None:
    for workload in config["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            command = config["command"] + [
                "--workload", workload["name"], "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--tiny",
            ]
            done = subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=170)
            if done.returncode != 0:
                fail(f"{workload['name']} trace={trace} exited {done.returncode}: {done.stderr[-1500:]}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                fail(f"result keys {sorted(result)}")
            if not result["correct"] or result["attempted"] < 1:
                fail(f"{workload['name']} trace={trace} not correct: {result}")
            expected = {entry["name"]: entry["unit"] for entry in config[section]}
            reported = {name: entry["unit"] for name, entry in result["metrics"].items()}
            if reported != expected:
                fail(f"{workload['name']} trace={trace} metrics differ: {set(expected) ^ set(reported)}")
            for name, entry in result["metrics"].items():
                value = entry["value"]
                if not isinstance(value, (int, float)) or value != value:
                    fail(f"{workload['name']} {name} is not a number: {value!r}")
            print(f"selftest: {workload['name']} trace={trace}: {len(reported)} metrics ok")


def check_oracle() -> None:
    import workloads
    from oracle import Oracle

    workload = workloads.get_workload("skewed_rw", tiny=True)
    datasets = [workloads.build_dataset(workload, index) for index in range(2)]
    oracle = Oracle(datasets)
    key = next(iter(datasets[0].sensitive_counts))
    truth = [
        row.get(workloads.PAYLOAD) for row in datasets[0].relation
        if row.get(workloads.ATTRIBUTE) == key
    ]

    def answered(rows, bad_rows=0, sent=1.0, done=2.0):
        return workloads.Op(0.0, 0, "query", key, status="ok", rows=list(rows),
                            bad_rows=bad_rows, sent=sent, done=done)

    insert = workloads.Op(0.0, 0, "insert", key, payload="s-payload-probe-1",
                          status="ok", sent=0.1, done=0.5)
    cases = {
        "exact answer": ([answered(truth)], 0),
        "dropped row": ([answered(truth[1:])], 1),
        "foreign row": ([answered(truth + ["ns-payload-elsewhere-0"])], 1),
        "duplicated row": ([answered(truth + truth[:1])], 1),
        "row of another key": ([answered(truth, bad_rows=1)], 1),
        "acknowledged insert missing": ([insert, answered(truth)], 1),
        "acknowledged insert present": ([insert, answered(truth + [insert.payload])], 0),
        "insert sent after the answer": ([insert, answered(truth + [insert.payload], sent=0.0, done=0.05)], 1),
    }
    for name, (ops, expected) in cases.items():
        mismatches, _notes = oracle.check(ops)
        if mismatches != expected:
            fail(f"oracle case {name!r}: {mismatches} mismatches, expected {expected}")
    print(f"selftest: oracle: {len(cases)} cases ok")


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    config = json.loads((root / "BENCHMARK.json").read_text())
    check_oracle()
    check_runs(root, config)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
