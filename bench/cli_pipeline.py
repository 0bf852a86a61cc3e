"""Workload cli-pipeline: the command line, one process per step.

Text parsing, codebook dump/load, state files and interpreter start-up
dominate here, and the kernels do little. Writes (build, dump, state
files) run beside reads (load, ``--from-state``), so a file-format change
that speeds ``load_codebook`` but slows ``dump_codebook`` shows. It is the
only path through ``baselines``, ``planner`` and ``elasticity``. Each step
is timed by the CPU time of its process, scaled in that process (see
``cli_child.py``).

The ``bench`` step runs the ranking baseline, whose
``rank_training_points`` builds a full pairwise distance matrix: 13.7k
points took 13 s and 5.3 GB. It therefore runs on the 862-point
fourclass-like set only; do not point it at the skin-like files.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import subprocess
import sys
import time
from collections import defaultdict

from elastic_mine import baselines, coding, datasets, elasticity, knn, planner, synthetic

from measure import NOMINAL_REF_S, digest, file_digest, median

K = 5
REPLAY_REPEATS = 3
STARTUPS = 3  # bare start-ups (--help) per pipeline, the reference for its steps
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")
KNN_QUERIES, CF_QUERIES = 60, 300  # test-file sizes: enough to exercise, too few to dominate
SCHEDULE = [0.10, 0.11, 0.12, 0.14, 0.16, 0.18, 0.20, 0.22, 0.24, 0.26, 0.28, 0.30,
            0.30, 0.28, 0.26, 0.24, 0.22, 0.20, 0.18, 0.16, 0.14, 0.12, 0.11, 0.10]
RESULTS = [(0.74, 6.0), (0.80, 10.6), (0.86, 22.24), (0.91, 40.0)]

# (step name, arguments, output files); every file is written into the work directory
STEPS = [
    ("code_build_knn", ["code", "build", "--task", "knn", "--input", "train.libsvm",
                        "--seed", "0", "--out", "knn.ecb"], ["knn.ecb"]),
    ("mine_knn_d3", ["mine", "knn", "--book", "knn.ecb", "--test", "test.libsvm", "--k", str(K),
                     "--depth", "3", "--save-state", "s3.txt", "--out", "d3.csv"],
     ["d3.csv", "s3.txt"]),
    ("mine_knn_d5", ["mine", "knn", "--book", "knn.ecb", "--test", "test.libsvm", "--k", str(K),
                     "--depth", "5", "--from-state", "s3.txt", "--out", "d5.csv"], ["d5.csv"]),
    ("report_quality", ["report", "quality", "--pred", "d5.csv", "--task", "knn",
                        "--out", "quality.csv"], ["quality.csv"]),
    ("report_resolution", ["report", "resolution", "--book", "knn.ecb",
                           "--out", "resolution.csv"], ["resolution.csv"]),
    ("code_build_cf", ["code", "build", "--task", "cf", "--input", "ratings.csv", "--epochs", "20",
                       "--max-entries", "3", "--seed", "0", "--out", "cf.ecb"], ["cf.ecb"]),
    ("mine_cf_d4", ["mine", "cf", "--book", "cf.ecb", "--ratings", "ratings.csv",
                    "--test", "ratings_test.csv", "--depth", "4", "--save-state", "cs4.txt",
                    "--out", "cf_d4.csv"], ["cf_d4.csv", "cs4.txt"]),
    ("plan", ["plan", "--results", "results.csv", "--scheme", "both",
              "--query", "min-bid-for-deadline", "--quality", "0.8", "--deadline-hours", "48",
              "--schedule", "schedule.csv", "--fixed-price", "0.5", "--out", "plan.txt"],
     ["plan.txt"]),
    ("bench", ["bench", "--task", "knn", "--input", "fourclass.libsvm", "--seed", "2",
               "--out", "bench.csv"], ["bench.csv"]),
]


class CliPipeline:
    name = "cli-pipeline"
    rss_of_children = True

    def __init__(self, smoke: bool, workdir: str, src: str):
        self.points, self.test_count = (4000, 30) if smoke else (20000, 300)
        self.ratings_shape = {"num_users": 120, "num_items": 60} if smoke else {}
        self.workdir = workdir
        self.env = {**os.environ, "PYTHONPATH": src, "ELASTIC_MINE_SEED": "0"}

    def _path(self, name) -> str:
        return os.path.join(self.workdir, name)

    def setup(self):
        """Write the input files every step reads."""
        os.makedirs(self.workdir, exist_ok=True)
        skin = synthetic.skin_like(self.points)
        train, test = datasets.split_dataset(skin, datasets.SplitSpec(test_count=self.test_count, seed=0))
        test = test.subset(range(min(KNN_QUERIES, len(test))))
        for name, data in (("train.libsvm", train), ("test.libsvm", test),
                           ("fourclass.libsvm", synthetic.fourclass_like(42))):
            with open(self._path(name), "w", encoding="utf-8") as fh:
                datasets.write_libsvm(data, fh)
        matrix = synthetic.ratings_like(**self.ratings_shape)
        ratings, held = datasets.split_ratings(matrix, datasets.SplitSpec(seed=11))
        with open(self._path("ratings.csv"), "w", encoding="utf-8") as fh:
            datasets.write_ratings_csv(ratings, fh)
        with open(self._path("ratings_test.csv"), "w", encoding="utf-8") as fh:
            fh.write("user,item,rating\n")
            fh.writelines(f"{u},{i},{r!r}\n" for u, i, r in held[:CF_QUERIES])
        with open(self._path("schedule.csv"), "w", encoding="utf-8") as fh:
            fh.write("hour,price\n")
            fh.writelines(f"{h},{p}\n" for h, p in enumerate(SCHEDULE))
        with open(self._path("results.csv"), "w", encoding="utf-8") as fh:
            fh.write("quality,hours\n")
            fh.writelines(f"{q},{h}\n" for q, h in RESULTS)

    def trace_targets(self):
        return []  # set-up only writes files; the steps are traced as processes

    def _launch(self, args):
        """Run one CLI process; returns (process, scaled CPU seconds or None)."""
        report = self._path("cost.json")
        proc = subprocess.run([sys.executable, CHILD, report, *args], cwd=self.workdir,
                              env=self.env, capture_output=True, check=False)
        if not os.path.exists(report):
            return proc, None
        with open(report, encoding="utf-8") as fh:
            cost = json.load(fh)
        os.remove(report)
        kernel = sum(cost["kernel_s"]) / len(cost["kernel_s"])
        return proc, cost["cpu_s"] * NOMINAL_REF_S / kernel

    def _command(self, name, args, tracer):
        """Run one step, in a span when tracing; returns (process, scaled seconds)."""
        with tracer.block(f"cli.{name}") if tracer else contextlib.nullcontext() as rec:
            proc, scaled = self._launch(args)
        if rec is not None:
            rec["attrs"] = {"scaled_s": scaled}
        return proc, scaled

    def outputs(self, proc, files) -> dict:
        """Digests of one step's output files and standard output."""
        out = {"stdout": digest(proc.stdout)}
        for f in files:
            out[f] = file_digest(self._path(f)) if os.path.exists(self._path(f)) else None
        return out

    def record(self, tracer) -> dict:
        """Digests of every step's outputs, from the current code."""
        steps = {}
        for name, args, files in STEPS:
            proc, _ = self._launch(args)
            if proc.returncode != 0:
                raise RuntimeError(f"step {name} failed:\n{proc.stderr.decode(errors='replace')}")
            steps[name] = self.outputs(proc, files)
        return {"steps": steps}

    def run(self, seconds, order, gauge, golden, tracer=None) -> dict:
        startups, pipelines = [], []  # scaled seconds; one list of step times per pipeline
        overhead = []
        attempted = failed = rounds = 0
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            for _, _, files in STEPS:
                for f in files:
                    if os.path.exists(self._path(f)):
                        os.remove(self._path(f))
            parity, rounds = rounds, rounds + 1
            for _ in range(STARTUPS):
                startups.append(self._paired("startup", ["--help"], tracer, overhead, parity)[1])
            steps = []
            for name, args, files in STEPS:
                attempted += 1
                proc, scaled = self._paired(name, args, tracer, overhead, parity)
                if (proc.returncode != 0 or scaled is None
                        or self.outputs(proc, files) != golden["steps"][name]):
                    failed += 1
                    print(f"step {name}: exit {proc.returncode}, outputs differ from the recorded"
                          f" digests\n{proc.stderr.decode(errors='replace')}", file=sys.stderr)
                steps.append(scaled)
            if None not in steps:
                pipelines.append(steps)
        if tracer is not None:
            self.replay(gauge, tracer)
        # the steps differ in kind, so an order statistic over all of them jumps
        # from one kind to the next: the typical step is their geometric mean,
        # the tail the slowest step, each taken per pipeline
        typical = [math.exp(sum(map(math.log, steps)) / len(steps)) for steps in pipelines]
        totals = [sum(steps) for steps in pipelines]
        metrics = {
            "request_ms": median(typical) * 1000,
            "session_ms_p50": median(totals) * 1000,
            "sessions_per_s": len(totals) / sum(totals),
        }
        info = {"samples": attempted, "pipelines": len(pipelines),
                "request_ms_tail": median([max(steps) for steps in pipelines]) * 1000,
                "reference_ms_p50": median(startups) * 1000,
                "request_over_reference": median(typical) / median(startups),
                "steps_ms_p50": {name: median([steps[k] for steps in pipelines]) * 1000
                                 for k, (name, _, _) in enumerate(STEPS)}}
        if overhead:
            info["trace_overhead_pct"] = (median(overhead) - 1) * 100
        return {"attempted": attempted, "failed": failed, "metrics": metrics, "info": info}

    def _paired(self, name, args, tracer, overhead, parity):
        """Run a step; in a traced run, run it traced and untraced in alternating order."""
        if tracer is None:
            return self._command(name, args, None)
        runs = {}
        for traced in (parity % 2 == 0, parity % 2 == 1):
            runs[traced] = self._command(name, args, tracer if traced else None)
        if None in (runs[True][1], runs[False][1]):
            return runs[True] if runs[True][1] is None else runs[False]
        overhead.append(runs[True][1] / runs[False][1])
        return runs[False]

    # -- traced run ---------------------------------------------------------

    def replay(self, gauge, tracer):
        """Time in-process the library functions the steps spend their time in."""
        tracer.query = None
        self.book_bytes = {kind: os.path.getsize(self._path(f"{kind}.ecb")) for kind in ("knn", "cf")}

        def timed(name, fn, *args, **kwargs):
            return gauge.timed(tracer.call, name, fn, *args, **kwargs)[0]

        def parse(name, fn, path):
            with open(self._path(path), encoding="utf-8") as fh:
                return timed(name, fn, fh)

        for _ in range(REPLAY_REPEATS):
            parse("datasets.parse_libsvm", datasets.parse_libsvm, "train.libsvm")
            parse("datasets.parse_ratings_csv", datasets.parse_ratings_csv, "ratings.csv")
            books = {kind: timed(f"coding.load_codebook.{kind}", coding.load_codebook,
                                 self._path(f"{kind}.ecb")) for kind in ("knn", "cf")}
            for kind, book in books.items():
                timed(f"coding.dump_codebook.{kind}", coding.dump_codebook, book)
            timed("elasticity.audit_entropy_monotonicity",
                  elasticity.audit_entropy_monotonicity, books["knn"])
            with open(self._path("schedule.csv"), encoding="utf-8") as fh:
                schedule = planner.PriceSchedule.from_csv(fh.read(), 0.5)
            results = [planner.ResultPoint(q, h) for q, h in RESULTS]
            timed("planner.spot_plan", planner.spot_plan, results, schedule, 48.0,
                  required_quality=0.8)
        # the bench step's descent baseline, with the OFS strategy and a budget
        # equal to the elastic chain's mean cumulative scan
        with open(self._path("fourclass.libsvm"), encoding="utf-8") as fh:
            data = datasets.parse_libsvm(fh)
        train, test = datasets.split_dataset(
            data, datasets.SplitSpec(test_count=min(100, len(data) // 5), seed=2))
        book = coding.build_dual_rtrees(train, 3, 2)
        queries = [knn.KnnQuery(test.features[i], K) for i in range(len(test))]
        budget = round(sum(sum(r.scanned for r in knn.refine_chain(book, q)) for q in queries)
                       / len(queries))
        for q in queries:
            timed("baselines.anytime_knn_rtree", baselines.anytime_knn_rtree,
                  book, train, q, budget, "ofs")

    def layer_metrics(self, tracer, self_ms) -> dict:
        groups = defaultdict(list)
        for s in tracer.spans:
            # a step's process is timed by its own scaled CPU time, not the span's wall time
            if s["name"].startswith("cli."):
                if s["attrs"]["scaled_s"] is not None:
                    groups[s["name"]].append(s["attrs"]["scaled_s"] * 1000)
            else:
                groups[s["name"]].append(self_ms[s["id"]])
        out = {}
        for name, values in groups.items():
            if name.startswith("cli."):
                out[f"{name}_s"] = median(values) / 1000
            elif name.startswith("coding."):
                fn, kind = name.rsplit(".", 1)
                out[f"{fn}_ms.{kind}"] = median(values)
            elif name == "elasticity.audit_entropy_monotonicity":
                out["elasticity.audit_entropy_ms"] = median(values)
            else:
                out[f"{name}_ms"] = median(values)
        out.update({f"coding.codebook_bytes.{kind}": size for kind, size in self.book_bytes.items()})
        return out
