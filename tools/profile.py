"""Profile elastic-mine per depth and per layer, and keep the figures in BENCH_profile.json.

The inputs are those of the benchmark's knn-skin and cf-ratings workloads,
built from ``synthetic`` with the same sizes and seeds, through the
library's public calls only. The file holds three blocks:

* ``depths``: for each book and depth, one pass over every test query
  gives the code length, the totals of one-shot scanned nodes, of refined
  scanned nodes (the steps of ``refine_chain``) and of nodes kept in the
  state a step hands on, and the quality (kNN hits, or the exactly rounded
  sum of CF squared errors and the fallback count); the same for the exact
  oracle. Integer totals, not means, so they compare exactly whatever the
  machine's summation order.
* ``layers``: sizes. Points and ratings, bytes written by the text writers
  and by each dump, node and aggregate counts, and the ``nbytes`` of each
  book's arrays, views and deviation tables.
* ``timing``: best-of-N process CPU and wall time of each set-up layer,
  of a fresh ``import elastic_mine.cli`` and of a first parse in a fresh
  interpreter, median per-query times per depth, and ``tracemalloc``
  peaks taken in their own pass, with an ``env`` line naming the machine.
  Recorded, never gated: these move between machines and processes.

Run from the repository root:

    PYTHONPATH=src python tools/profile.py           # measure all three blocks, write BENCH_profile.json
    PYTHONPATH=src python tools/profile.py --check   # exit 1, naming each key, unless depths and layers match
    PYTHONPATH=src python tools/profile.py --timing  # measure and print the timing block, write nothing
"""

import argparse
import dataclasses
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

import elastic_mine
from elastic_mine import cf, coding, datasets, knn, synthetic

FILE = Path(__file__).resolve().parents[1] / "BENCH_profile.json"
K = 5  # knn-skin's neighbour count
SKIN_SPLIT = datasets.SplitSpec(test_count=300, seed=0)
RATINGS_SPLIT = datasets.SplitSpec(seed=11)
REPEATS = 5  # best of this many calls per layer
QUERY_REPEATS = 3  # passes over the queries; each query's least time enters the median
COLD = {  # run first thing in fresh interpreters: a CLI process's imports, and a first parse with its imports
    "import elastic_mine.cli": "import elastic_mine.cli",
    "cold datasets.parse_libsvm": "from elastic_mine import datasets; datasets.parse_libsvm('1 1:0\\n-1 1:1')",
}


def build_inputs():
    """The knn-skin and cf-ratings inputs, as the benchmark's ``setup()`` builds them,
    plus the k-means CF book over the same features."""
    skin = synthetic.skin_like(20000)
    skin_train, skin_test = datasets.split_dataset(skin, SKIN_SPLIT)
    ratings = synthetic.ratings_like()
    ratings_train, ratings_test = datasets.split_ratings(ratings, RATINGS_SPLIT)
    features = cf.train_incremental_svd(ratings_train, d=3, epochs_per_feature=120, seed=0)
    books = {
        "knn-skin": coding.build_dual_rtrees(skin_train, max_entries=4, seed=0),
        "cf-ratings": coding.build_cf_codebook(ratings_train, features, max_entries=3, seed=0),
        "cf-kmeans": coding.build_kmeans_codebook(ratings_train, features, 3, 6),
    }
    return SimpleNamespace(skin=skin, skin_train=skin_train, skin_test=skin_test, ratings=ratings,
                           ratings_train=ratings_train, ratings_test=ratings_test, features=features,
                           books=books)


class Task(NamedTuple):
    """One book's test queries and the calls that mine them."""

    book: coding.CodeBook
    queries: list
    truths: list
    step: Callable  # (depth, query, state) -> result
    chain: Callable  # query -> results, one per depth
    exact: Callable  # query -> the oracle's result
    start: object  # the state a chain's first step starts from
    quality: Callable  # (results, truths) -> dict of totals


def _hits(results, truths) -> dict:
    return {"hits": sum(r.predicted == t for r, t in zip(results, truths))}


def _errors(results, truths) -> dict:
    return {"squared_error": math.fsum((r.prediction - t) ** 2 for r, t in zip(results, truths)),
            "fallbacks": sum(r.fallback for r in results)}


def tasks(inp) -> dict:
    book, test = inp.books["knn-skin"], inp.skin_test
    knn_task = Task(book, [knn.KnnQuery(p, K) for p in test.features], test.labels.tolist(),
                    partial(knn.classify, book), partial(knn.refine_chain, book),
                    partial(knn.exact_knn, inp.skin_train), coding.state_of(book, 0, book.roots), _hits)
    book, train, held = inp.books["cf-ratings"], inp.ratings_train, inp.ratings_test
    cf_task = Task(book, [cf.CfQuery.from_matrix(train, u, i) for u, i, _ in held], [r for *_, r in held],
                   partial(cf.predict, book, matrix=train), partial(cf.refine_chain, book, matrix=train),
                   partial(cf.exact_cf_predict, train), None, _errors)
    return {"knn-skin": knn_task, "cf-ratings": cf_task}


def depth_totals(task: Task) -> dict:
    """Per-depth totals over one pass of the task's queries, and the oracle's."""
    chains = [task.chain(q) for q in task.queries]
    out = {"queries": len(task.queries)}
    for at, depth in enumerate(task.book.depths()):
        shots = [task.step(depth, q, None) for q in task.queries]
        steps = [chain[at] for chain in chains]
        out[f"d{depth}"] = {
            "code_length": task.book.code_at_depth(depth).length,
            "scanned": sum(r.scanned for r in shots),
            "scanned_refined": sum(r.scanned for r in steps),
            "kept": sum(len(r.state.rows) for r in steps),
            **task.quality(shots, task.truths),
        }
    exact = [task.exact(q) for q in task.queries]
    out["exact"] = {"scanned": sum(r.scanned for r in exact), **task.quality(exact, task.truths)}
    return out


def _nbytes(record) -> int:
    """Bytes of the arrays among a dataclass's or NamedTuple's fields, one level of NamedTuple down."""
    values = [getattr(record, f.name) for f in dataclasses.fields(record)]
    values += [v for value in values if isinstance(value, tuple) for v in value]
    return sum(v.nbytes for v in values if isinstance(v, np.ndarray))


def book_sizes(book: coding.CodeBook) -> dict:
    aggregates = book.arrays.aggregates
    sizes = {
        "nodes": len(book.arrays),
        "aggregates": 0 if aggregates is None else len(aggregates.item),
        "dump_bytes": len(coding.dump_codebook(book).encode()),
        "arrays_nbytes": _nbytes(book.arrays),
        "features_nbytes": 0 if book.features is None else book.features.nbytes,
        "views_nbytes": sum(_nbytes(book.columns(d)) for d in (0, *book.depths())),
    }
    if aggregates is not None:
        sizes["deviations_nbytes"] = {f"d{d}": book.deviations(d).nbytes for d in book.depths()}
    return sizes


def layer_sizes(inp) -> dict:
    return {
        "knn-skin": {"points": len(inp.skin), "train_points": len(inp.skin_train),
                     "test_points": len(inp.skin_test),
                     "libsvm_bytes": len(datasets.write_libsvm(inp.skin_train).encode()),
                     **book_sizes(inp.books["knn-skin"])},
        "cf-ratings": {"users": inp.ratings.num_users, "items": inp.ratings.num_items,
                       "ratings": inp.ratings.num_ratings, "train_ratings": inp.ratings_train.num_ratings,
                       "test_ratings": len(inp.ratings_test),
                       "csv_bytes": len(datasets.write_ratings_csv(inp.ratings_train).encode()),
                       **book_sizes(inp.books["cf-ratings"])},
        "cf-kmeans": book_sizes(inp.books["cf-kmeans"]),
    }


def deterministic(inp) -> dict:
    """The gated blocks: ``depths`` and ``layers``."""
    return {"depths": {name: depth_totals(task) for name, task in tasks(inp).items()},
            "layers": layer_sizes(inp)}


# -- timing (recorded, never gated) -----------------------------------------


def _fresh(book):
    """A new book from the fields of ``book``: constructing it is the whole check of its rules."""
    return coding.CodeBook(**{f.name: getattr(book, f.name) for f in dataclasses.fields(book) if f.init})


def _all_tables(book) -> list:
    return [book.deviations(d) for d in book.depths()]


def layer_calls(inp, tmp) -> dict:
    """name -> (call, setup): ``call(*setup())`` runs the layer; setup is not measured."""
    skin_text = datasets.write_libsvm(inp.skin_train)
    ratings_text = datasets.write_ratings_csv(inp.ratings_train)
    train, big = inp.ratings_train, synthetic.skin_like(320000)
    svd = partial(cf.train_incremental_svd, train, d=3, seed=0)
    calls = {
        "synthetic.skin_like": partial(synthetic.skin_like, 20000),
        "datasets.split_dataset": partial(datasets.split_dataset, inp.skin, SKIN_SPLIT),
        "datasets.write_libsvm": partial(datasets.write_libsvm, inp.skin_train),
        "datasets.parse_libsvm": partial(datasets.parse_libsvm, skin_text),
        "coding.build_dual_rtrees": partial(coding.build_dual_rtrees, inp.skin_train, max_entries=4, seed=0),
        "coding.build_dual_rtrees.320k": partial(coding.build_dual_rtrees, big, max_entries=4),
        "synthetic.ratings_like": synthetic.ratings_like,
        "datasets.split_ratings": partial(datasets.split_ratings, inp.ratings, RATINGS_SPLIT),
        "datasets.write_ratings_csv": partial(datasets.write_ratings_csv, train),
        "datasets.parse_ratings_csv": partial(datasets.parse_ratings_csv, ratings_text),
        "cf.train_incremental_svd.120": partial(svd, epochs_per_feature=120),
        "cf.train_incremental_svd.20": partial(svd, epochs_per_feature=20),
        "coding.build_cf_codebook": partial(coding.build_cf_codebook, train, inp.features, max_entries=3, seed=0),
        "coding.build_kmeans_codebook": partial(coding.build_kmeans_codebook, train, inp.features, 3, 6),
    }
    for name, book in inp.books.items():
        calls[f"coding.CodeBook.{name}"] = partial(_fresh, book)
        calls[f"coding.dump_codebook.{name}"] = partial(coding.dump_codebook, book)
        calls[f"coding.save_codebook.{name}"] = partial(coding.save_codebook, book, Path(tmp) / "book.ecb")
        calls[f"coding.load_codebook.{name}"] = partial(coding.load_codebook, coding.dump_codebook(book))
    calls = {name: (call, tuple) for name, call in calls.items()}
    for name, book in inp.books.items():
        if book.arrays.aggregates is not None:  # every depth's first table, on a new book each call
            calls[f"coding.CodeBook.deviations.{name}"] = (_all_tables, lambda book=book: (_fresh(book),))
    return calls


def _best(runs) -> dict:
    """The least CPU and the least wall time of (CPU s, wall s) pairs, in ms."""
    return {"cpu_ms": round(min(c for c, _ in runs) * 1e3, 3), "wall_ms": round(min(w for _, w in runs) * 1e3, 3)}


def _timed(call, setup) -> tuple[float, float]:
    args = setup()
    c, w = time.process_time(), time.perf_counter()
    call(*args)
    return time.process_time() - c, time.perf_counter() - w


def traced_peak(call, setup) -> int:
    """Bytes allocated above the level at the call's start, at the call's peak."""
    args = setup()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    call(*args)
    return tracemalloc.get_traced_memory()[1] - base


def cold_cost(code: str) -> dict:
    """Best-of-N CPU and wall time of ``code`` run first thing in fresh interpreters."""
    script = ("import time; c, w = time.process_time(), time.perf_counter(); "
              f"{code}; print(time.process_time() - c, time.perf_counter() - w)")
    env = {**os.environ, "PYTHONPATH": str(Path(elastic_mine.__file__).resolve().parents[1])}
    return _best([tuple(map(float, subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                                  text=True, check=True).stdout.split()))
                  for _ in range(REPEATS)])


def _median_us(calls) -> float:
    """Median over the calls of each call's least wall time in ``QUERY_REPEATS`` passes, in µs."""
    best = [math.inf] * len(calls)
    for _ in range(QUERY_REPEATS):
        for i, call in enumerate(calls):
            start = time.perf_counter()
            call()
            best[i] = min(best[i], time.perf_counter() - start)
    return round(statistics.median(best) * 1e6, 2)


def depth_times(task: Task) -> dict:
    """Median per-query µs of the one-shot and the refined step at each depth, each
    step from the state ``refine_chain`` carried to it, of the chain and of the oracle."""
    chains = [task.chain(q) for q in task.queries]
    out = {}
    for at, depth in enumerate(task.book.depths()):
        priors = [task.start if at == 0 else chain[at - 1].state for chain in chains]
        out[f"d{depth}"] = {
            "one_shot_us": _median_us([partial(task.step, depth, q, None) for q in task.queries]),
            "refined_us": _median_us([partial(task.step, depth, q, s) for q, s in zip(task.queries, priors)]),
        }
    out["chain_us"] = _median_us([partial(task.chain, q) for q in task.queries])
    out["exact_us"] = _median_us([partial(task.exact, q) for q in task.queries])
    return out


def timing(inp) -> dict:
    env = {"python": platform.python_version(), "numpy": np.__version__, "nproc": os.cpu_count(),
           "platform": platform.platform(), "repeats": REPEATS, "query_repeats": QUERY_REPEATS}
    with tempfile.TemporaryDirectory() as tmp:
        calls = layer_calls(inp, tmp)
        layers = {name: _best([_timed(call, setup) for _ in range(REPEATS)])
                  for name, (call, setup) in calls.items()}
        layers.update({name: cold_cost(code) for name, code in COLD.items()})
        depths = {name: depth_times(task) for name, task in tasks(inp).items()}
        tracemalloc.start()  # its own pass: tracing slows allocation-heavy layers many times over
        try:
            peaks = {name: traced_peak(call, setup) for name, (call, setup) in calls.items()}
        finally:
            tracemalloc.stop()
    return {"env": env, "layers": layers, "depths": depths, "peak_bytes": peaks}


# -- the gate -----------------------------------------------------------------


def _flat(tree, prefix="") -> dict:
    """Nested dicts as {"a.b.c": leaf}."""
    if not isinstance(tree, dict):
        return {prefix: tree}
    out = {}
    for key, value in tree.items():
        out.update(_flat(value, f"{prefix}.{key}" if prefix else str(key)))
    return out


def differences(committed: dict, computed: dict) -> list[str]:
    """One line per key of the gated blocks whose committed and computed values differ."""
    want = _flat({block: committed.get(block, {}) for block in computed})
    have = _flat(computed)
    return [f"{key}: file {want.get(key, '(none)')}, now {have.get(key, '(none)')}"
            for key in sorted(want.keys() | have.keys()) if want.get(key) != have.get(key)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="recompute depths and layers and compare them with the file; write nothing")
    mode.add_argument("--timing", action="store_true",
                      help="measure and print the timing block; write nothing")
    parser.add_argument("--file", type=Path, default=FILE, help=f"the profile (default {FILE.name})")
    args = parser.parse_args(argv)
    inp = build_inputs()
    if args.timing:
        print(json.dumps(timing(inp), indent=1))
        return 0
    computed = deterministic(inp)
    if args.check:
        diffs = differences(json.loads(args.file.read_text(encoding="utf-8")), computed)
        for line in diffs:
            print(f"{args.file.name}: {line}")
        if not diffs:
            print(f"{args.file.name}: depths and layers match ({len(_flat(computed))} values)")
        return 1 if diffs else 0
    args.file.write_text(json.dumps({**computed, "timing": timing(inp)}, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.file}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
