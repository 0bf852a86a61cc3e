"""Benchmark of elastic-mine: three seeded, single-client, closed-loop workloads.

Run from the repository root:

    python3 bench/run.py --workload knn-skin --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` it holds
every per-layer metric, taken from spans around the calls into the
library, and the spans are written to ``.bench_out/``. The line before it,
``env {...}``, records the machine, the seed, the raw (unscaled) timings and
the quality of the deepest-code results. ``--smoke`` runs a tiny instance of
the workload; ``--record`` rewrites ``bench/golden.json`` from the current
code, which is only right on a commit whose outputs are the reference.
See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden.json")
OUT_DIR = ".bench_out"
SETUP_REPEATS = 3
WORKLOADS = ("knn-skin", "cf-ratings", "cli-pipeline")


def _workload(name, smoke):
    # imported here: the modules import the library, which must be on the path first
    if name == "knn-skin":
        from knn_skin import KnnSkin

        return KnnSkin(smoke)
    if name == "cf-ratings":
        from cf_ratings import CfRatings

        return CfRatings(smoke)
    from cli_pipeline import CliPipeline

    workdir = os.path.abspath(os.path.join(OUT_DIR, f"cli-{os.getpid()}"))
    return CliPipeline(smoke, workdir, os.path.abspath("src"))


def _setup(wl, gauge, tracer) -> list[float]:
    """Set the workload up several times; returns the scaled seconds of each."""
    times = []
    for _ in range(SETUP_REPEATS):
        if tracer is None:
            _, _, scaled = gauge.timed(wl.setup)
        else:
            tracer.query = None
            tracer.install(wl.trace_targets())
            try:
                _, _, scaled = gauge.timed(wl.setup)
            finally:
                tracer.uninstall()
        times.append(scaled)
    return times


def _metric_values(spec, key, values, smoke) -> dict:
    names = [m["name"] for m in spec[key]]
    unknown = set(values) - set(names)
    # smoke books are shallower, so their per-depth names differ from the full ones
    if unknown and not smoke:
        raise KeyError(f"metrics missing from BENCHMARK.json {key}: {sorted(unknown)}")
    return {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in spec[key]
    }


def run(args) -> int:
    from measure import SpeedGauge, environment, median, peak_rss_mb
    from spans import Tracer

    env = environment(args.seed)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)["smoke" if args.smoke else "full"][args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    gauge = SpeedGauge()
    tracer = Tracer() if args.trace else None
    wl = _workload(args.workload, args.smoke)
    try:
        setup = _setup(wl, gauge, tracer)
        order = (
            np.random.default_rng(args.seed).permutation(wl.query_count()).tolist()
            if hasattr(wl, "query_count") else None
        )
        outcome = wl.run(args.seconds, order, gauge, golden, tracer)
    finally:
        if hasattr(wl, "workdir"):
            shutil.rmtree(wl.workdir, ignore_errors=True)
    rss = peak_rss_mb(children=getattr(wl, "rss_of_children", False))
    info = {**env, "workload": args.workload, "trace": args.trace, "smoke": args.smoke,
            "setup_s_each": setup, "gauge_ref_ms_p50": median(gauge.readings) * 1000,
            **outcome["info"]}
    if tracer is None:
        values = {"setup_s": median(setup), "peak_rss_mb": rss, **outcome["metrics"]}
        metrics = _metric_values(spec, "end_to_end", values, args.smoke)
    else:
        info["untraced_end_to_end"] = outcome["metrics"]
        values = wl.layer_metrics(tracer, tracer.self_ms(gauge.factor_over))
        values["trace.overhead_pct"] = outcome["info"].get("trace_overhead_pct", 0.0)
        metrics = _metric_values(spec, "per_layer", values, args.smoke)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(path)
        info["spans"] = path
    print("env " + json.dumps(info, sort_keys=True))
    result = {
        "correct": outcome["failed"] == 0 and outcome["attempted"] > 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def record() -> int:
    """Rewrite golden.json: per-query digests and counts, per-step file digests."""
    from spans import Tracer

    golden = {}
    for size, smoke in (("full", False), ("smoke", True)):
        golden[size] = {}
        for name in WORKLOADS:
            wl = _workload(name, smoke)
            try:
                wl.setup()
                golden[size][name] = wl.record(Tracer())
            finally:
                if hasattr(wl, "workdir"):
                    shutil.rmtree(wl.workdir, ignore_errors=True)
            print(f"recorded {size} {name}", file=sys.stderr)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's tests")
    parser.add_argument("--record", action="store_true", help="rewrite golden.json from this code")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "elastic_mine", "__init__.py")):
        print("error: run from the repository root; src/elastic_mine not found", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
