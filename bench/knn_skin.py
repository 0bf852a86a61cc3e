"""Workload knn-skin: elastic kNN over a skin-like colour set.

Almost all the work is in the kNN mining kernel and the state filter; the
coding I/O does almost none. Every query runs a one-shot ``classify`` at
the deepest code, the ``exact_knn`` oracle, and a full ``refine_chain``.
"""

from __future__ import annotations

import time
from collections import defaultdict

from elastic_mine import coding, datasets, knn, planner, synthetic

from loop import QueryWorkload
from measure import digest, median

K = 5
CALIBRATE_QUERIES = 30


class KnnSkin(QueryWorkload):
    name = "knn-skin"
    tail = 95  # about 200 queries per run leave ten samples beyond p95

    def __init__(self, smoke: bool):
        self.points, self.test_count = (2000, 30) if smoke else (20000, 300)

    def setup(self):
        data = synthetic.skin_like(self.points)
        self.train, self.test = datasets.split_dataset(
            data, datasets.SplitSpec(test_count=self.test_count, seed=0)
        )
        self.book = coding.build_dual_rtrees(self.train, max_entries=4, seed=0)
        self.deep = self.book.depths()[-1]

    def query_count(self) -> int:
        return len(self.test)

    def query(self, qid):
        """Run one query; returns ((deep, exact, chain) seconds, digest, invariants hold, hit)."""
        q = knn.KnnQuery(self.test.features[qid], K)
        a = time.perf_counter()
        deep = knn.classify(self.book, self.deep, q)
        b = time.perf_counter()
        exact = knn.exact_knn(self.train, q)
        c = time.perf_counter()
        chain = knn.refine_chain(self.book, q)
        d = time.perf_counter()
        payload = (
            (deep.predicted, deep.node_ids, deep.scanned),
            (exact.predicted, exact.node_ids, exact.scanned),
            tuple((r.predicted, r.node_ids, r.scanned) for r in chain),
        )
        # accumulative computation: refining down to the deepest code finds
        # exactly the nodes a one-shot scan of that code finds
        invariant = chain[-1].node_ids == deep.node_ids and all(
            r.scanned <= self.book.code_at_depth(r.depth).length for r in chain
        )
        hit = deep.predicted == int(self.test.labels[qid])
        return (b - a, c - b, d - c), digest(payload), invariant, hit

    @staticmethod
    def quality(hits) -> dict:
        return {"accuracy_deep": sum(hits) / len(hits)}

    # -- traced run ---------------------------------------------------------

    def trace_targets(self):
        def classify_attrs(args, kwargs, result):
            return {"depth": result.depth, "scanned": result.scanned}

        def state_attrs(args, kwargs, result):
            return {"depth": result.depth, "retained": len(result.retained)}

        return [
            (datasets, "split_dataset", None),
            (coding, "build_dual_rtrees", None),
            (knn, "classify", classify_attrs),
            (knn, "maintain_state", state_attrs),
            (knn, "exact_knn", None),
            (knn, "refine_chain", None),
            (planner, "calibrate", None),
        ]

    def retained_counts(self, spans) -> list[int]:
        """Per-depth retained-node counts of one query's refine chain."""
        return [s["attrs"]["retained"] for s in spans if s["name"] == "knn.maintain_state"]

    def after_loop(self, tracer, order):
        """Calibrate the planner on a query subset (classify-bound, like the deep path)."""
        queries = [knn.KnnQuery(self.test.features[i], K) for i in order[:CALIBRATE_QUERIES]]
        tracer.query = None
        planner.calibrate(self.book, queries)

    def layer_metrics(self, tracer, self_ms) -> dict:
        times = defaultdict(list)
        scans = defaultdict(list)
        retained = defaultdict(lambda: [0, 0])  # name -> [retained, scanned]
        chain_scan = {}  # (chain span, depth) -> scanned, to pair a state with its scan
        for s in tracer.spans:
            name, ms = s["name"], self_ms[s["id"]]
            in_chain = tracer.parent_name(s) == "knn.refine_chain"
            if name == "knn.classify":
                depth, scanned = s["attrs"]["depth"], s["attrs"]["scanned"]
                suffix = "_refined" if in_chain else ""
                times[f"knn.classify{suffix}_ms.d{depth}"].append(ms)
                scans[f"knn.scanned{suffix}.d{depth}"].append(scanned)
                if in_chain:
                    chain_scan[(s["parent"], depth)] = scanned
            elif name == "knn.maintain_state":
                depth = s["attrs"]["depth"]
                times[f"knn.maintain_state_ms.d{depth}"].append(ms)
                pair = retained[f"knn.retained_ratio.d{depth}"]
                pair[0] += s["attrs"]["retained"]
                pair[1] += chain_scan[(s["parent"], depth)]
            elif name != "knn.refine_chain":
                times[f"{name}_ms"].append(ms)
        out = {key: median(values) for key, values in times.items()}
        out.update({key: sum(values) / len(values) for key, values in scans.items()})
        out.update({key: kept / scanned for key, (kept, scanned) in retained.items()})
        return out
