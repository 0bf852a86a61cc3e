"""The closed-loop client shared by the query workloads (knn-skin, cf-ratings).

One client sends its next query only when the previous one has returned.
A query is a one-shot mining call at the deepest code, the exact oracle,
and the full refine chain; all three are timed separately, and each query's
result digest is compared with the one recorded from the seed commit.
"""

from __future__ import annotations

import sys
import time
import traceback
from collections import defaultdict

from measure import median, percentile


class QueryWorkload:
    """Mixin: the timed phase of a workload made of independent queries."""

    def retained_counts(self, spans) -> list[int]:
        return []

    def after_loop(self, tracer, order):
        pass

    def record(self, tracer) -> dict:
        """Digests and retained counts of every query, from the current code."""
        digests, retained = [], []
        for qid in range(self.query_count()):
            mark = len(tracer.spans)
            tracer.install(self.trace_targets())
            try:
                _, dig, invariant, _ = self.query(qid)
            finally:
                tracer.uninstall()
            if not invariant:
                raise RuntimeError(f"{self.name} query {qid} breaks the refinement invariant")
            digests.append(dig)
            retained.append(self.retained_counts(tracer.spans[mark:]))
        out = {"digests": digests}
        if any(retained):
            out["retained"] = retained
        return out

    def run(self, seconds, order, gauge, golden, tracer=None) -> dict:
        timed = []  # (query id, start, (deep, exact, chain) raw seconds) of each correct query
        overhead = []  # traced over untraced time of one query, run back to back
        quality = []
        attempted = failed = 0
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            qid = order[attempted % len(order)]
            gauge.tick()
            began = time.perf_counter()
            attempted += 1
            try:
                if tracer is None:
                    times, ok, sample = self._checked(qid, golden)
                else:
                    times, ok, sample, ratio = self._paired(qid, golden, tracer, attempted % 2 == 0)
                    overhead.append(ratio)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                ok = False
            if not ok:
                failed += 1
                print(f"query {qid}: failed or differs from the recorded output", file=sys.stderr)
                continue
            timed.append((qid, began, times))
            quality.append(sample)
        gauge.sample()  # the reading after the last query
        per_query = defaultdict(list)
        busy = []
        for qid, began, times in timed:
            scaled = [t * gauge.factor_over(began, began + sum(times)) for t in times]
            per_query[qid].append(scaled)
            busy.append(sum(scaled))
        # percentiles run over the distinct queries, each at its median when it
        # ran more than once, so the queries a seed happens to repeat do not
        # shift them
        deep, exact, chain = (
            [median([runs[j] for runs in per_query[qid]]) for qid in per_query] for j in range(3)
        )
        raw = dict(zip(("deep", "exact", "chain"), zip(*(times for _, _, times in timed))))
        if tracer is not None:
            tracer.install(self.trace_targets())
            try:
                gauge.timed(self.after_loop, tracer, order)
            finally:
                tracer.uninstall()
        if not busy:
            return {"attempted": attempted, "failed": failed, "metrics": {}, "info": {}}
        metrics = {
            "request_ms": median(deep) * 1000,
            "session_ms_p50": median(chain) * 1000,
            "sessions_per_s": len(busy) / sum(busy),
        }
        info = {
            "samples": len(busy),
            "distinct_queries": len(per_query),
            "tail_percentile": self.tail,
            "request_ms_tail": percentile(deep, self.tail) * 1000,
            "reference_ms_p50": median(exact) * 1000,
            "request_over_reference": median(deep) / median(exact),
            "raw_ms_p50": {key: median(values) * 1000 for key, values in raw.items()},
            "quality": self.quality(quality),
        }
        if overhead:
            info["trace_overhead_pct"] = (median(overhead) - 1) * 100
        return {"attempted": attempted, "failed": failed, "metrics": metrics, "info": info}

    def _checked(self, qid, golden):
        times, dig, invariant, sample = self.query(qid)
        return times, invariant and dig == golden["digests"][qid], sample

    def _paired(self, qid, golden, tracer, traced_first):
        """Run the query traced and untraced, in alternating order."""
        outcomes = {}
        for traced in (traced_first, not traced_first):
            if not traced:
                outcomes[False] = self._checked(qid, golden)
                continue
            tracer.query = qid
            mark = len(tracer.spans)
            tracer.install(self.trace_targets())
            try:
                outcomes[True] = self._checked(qid, golden)
            finally:
                tracer.uninstall()
            kept = self.retained_counts(tracer.spans[mark:])
        ok = outcomes[True][1] and outcomes[False][1]
        if "retained" in golden:
            ok = ok and kept == golden["retained"][qid]
        times, _, sample = outcomes[False]
        return times, ok, sample, sum(outcomes[True][0]) / sum(times)
