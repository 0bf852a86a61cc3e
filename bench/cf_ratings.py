"""Workload cf-ratings: elastic collaborative filtering over grouped ratings.

The kernel here is dict-based correlation over item aggregates rather than
box geometry, and incremental SVD dominates set-up, so a shared-kernel
change that helps kNN but hurts CF shows here. Every held-out rating runs
a one-shot ``predict`` at the deepest code, the ``exact_cf_predict``
oracle, and a full ``refine_chain``.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict

from elastic_mine import cf, coding, datasets, synthetic

from loop import QueryWorkload
from measure import digest, median


class CfRatings(QueryWorkload):
    name = "cf-ratings"
    tail = 95  # p99 of the 1,731 queries swings 25% between runs with single GC pauses

    def __init__(self, smoke: bool):
        if smoke:
            self.shape, self.epochs = {"num_users": 120, "num_items": 60}, 10
        else:
            self.shape, self.epochs = {}, 120

    def setup(self):
        matrix = synthetic.ratings_like(**self.shape)
        self.train, self.test = datasets.split_ratings(matrix, datasets.SplitSpec(seed=11))
        features = cf.train_incremental_svd(self.train, d=3, epochs_per_feature=self.epochs, seed=0)
        self.book = coding.build_cf_codebook(self.train, features, max_entries=3, seed=0)
        self.deep = self.book.depths()[-1]

    def query_count(self) -> int:
        return len(self.test)

    def query(self, qid):
        """Run one query; returns ((deep, exact, chain) seconds, digest, invariants hold, error)."""
        user, item, actual = self.test[qid]
        q = cf.CfQuery.from_matrix(self.train, user, item)
        a = time.perf_counter()
        deep = cf.predict(self.book, self.deep, q, matrix=self.train)
        b = time.perf_counter()
        exact = cf.exact_cf_predict(self.train, q)
        c = time.perf_counter()
        chain = cf.refine_chain(self.book, q, matrix=self.train)
        d = time.perf_counter()
        payload = tuple(
            (repr(r.prediction), r.scanned, r.fallback) for r in (deep, exact, *chain)
        )
        # the state keeps every node that rated the item, so the refined
        # deepest prediction equals the one-shot one bit for bit
        invariant = chain[-1].prediction == deep.prediction and all(
            r.scanned <= self.book.code_at_depth(r.depth).length for r in chain
        )
        return (b - a, c - b, d - c), digest(payload), invariant, deep.prediction - actual

    @staticmethod
    def quality(errors) -> dict:
        return {"rmse_deep": math.sqrt(sum(e * e for e in errors) / len(errors))}

    # -- traced run ---------------------------------------------------------

    def trace_targets(self):
        def predict_attrs(args, kwargs, result):
            return {"depth": result.depth, "scanned": result.scanned, "fallback": result.fallback}

        return [
            (datasets, "split_ratings", None),
            (cf, "train_incremental_svd", None),
            (coding, "build_cf_codebook", None),
            (cf, "predict", predict_attrs),
            (cf, "exact_cf_predict", None),
            (cf, "refine_chain", None),
        ]

    def layer_metrics(self, tracer, self_ms) -> dict:
        times = defaultdict(list)
        scans = defaultdict(list)
        fallbacks = defaultdict(list)
        for s in tracer.spans:
            name, ms = s["name"], self_ms[s["id"]]
            if name == "cf.predict":
                depth = s["attrs"]["depth"]
                suffix = "_refined" if tracer.parent_name(s) == "cf.refine_chain" else ""
                times[f"cf.predict{suffix}_ms.d{depth}"].append(ms)
                scans[f"cf.scanned{suffix}.d{depth}"].append(s["attrs"]["scanned"])
                if suffix:
                    fallbacks[f"cf.fallback_rate.d{depth}"].append(s["attrs"]["fallback"])
            elif name == "cf.train_incremental_svd":
                times["cf.train_incremental_svd_s"].append(ms / 1000)
            elif name != "cf.refine_chain":
                times[f"{name}_ms"].append(ms)
        out = {key: median(values) for key, values in times.items()}
        for group in (scans, fallbacks):
            out.update({key: sum(values) / len(values) for key, values in group.items()})
        return out
