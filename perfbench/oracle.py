"""Plaintext oracle: what each query answer must and may contain.

For a query on key ``k`` the answer must hold every base row of ``k`` plus
every insert of ``k`` acknowledged before the query was sent, and may hold
nothing else except inserts of ``k`` already sent when the query
completed.  Rows are identified by their payload, which is unique in a
run; an answer row whose key differs from the query's is wrong too.
"""

from __future__ import annotations

import bisect
from collections import Counter, defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

import workloads


class Oracle:
    def __init__(self, datasets: Sequence):
        self._base: List[Dict[str, Counter]] = []
        for dataset in datasets:
            rows: Dict[str, Counter] = defaultdict(Counter)
            for row in dataset.relation:
                rows[row.get(workloads.ATTRIBUTE)][row.get(workloads.PAYLOAD)] += 1
            self._base.append(rows)

    def check(self, ops: Iterable[workloads.Op], limit: int = 5) -> Tuple[int, List[str]]:
        """(mismatches, first few descriptions) over every answered query."""
        ops = list(ops)
        # per (tenant, key): inserts as (ack instant, sent instant, payload)
        acked: Dict[Tuple[int, str], List[Tuple[float, str]]] = defaultdict(list)
        sent: Dict[Tuple[int, str], List[Tuple[float, str]]] = defaultdict(list)
        for op in ops:
            if op.kind != "insert" or op.status == "rejected":
                continue  # a rejected request was refused before execution
            sent[(op.tenant, op.key)].append((op.sent, op.payload))
            if op.status == "ok":
                acked[(op.tenant, op.key)].append((op.done, op.payload))
        for entries in list(acked.values()) + list(sent.values()):
            entries.sort()
        mismatches = 0
        notes: List[str] = []
        for op in ops:
            if op.kind != "query" or op.status != "ok":
                continue
            problem = self._check_one(op, acked, sent)
            if problem:
                mismatches += 1
                if len(notes) < limit:
                    notes.append(f"tenant {op.tenant} key {op.key}: {problem}")
        return mismatches, notes

    def _check_one(self, op: workloads.Op, acked, sent) -> str:
        if op.bad_rows:
            return f"{op.bad_rows} answer rows carry another key"
        answer = Counter(op.rows)
        base = self._base[op.tenant].get(op.key, Counter())
        group = (op.tenant, op.key)
        required = Counter(base)
        entries = acked.get(group, [])
        for _instant, payload in entries[: bisect.bisect_left(entries, (op.sent, ""))]:
            required[payload] += 1
        allowed = Counter(base)
        entries = sent.get(group, [])
        for _instant, payload in entries[: bisect.bisect_right(entries, (op.done, "￿"))]:
            allowed[payload] += 1
        missing = required - answer
        if missing:
            return f"missing {sorted(missing)[:3]} ({sum(missing.values())} rows)"
        extra = answer - allowed
        if extra:
            return f"unexpected {sorted(extra)[:3]} ({sum(extra.values())} rows)"
        return ""
