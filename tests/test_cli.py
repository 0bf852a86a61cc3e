import argparse
import json
import math

import pytest

import elastic_mine as em
from elastic_mine.cli import build_parser, main

SCHEDULE = "hour,price\n" + "".join(f"{h},0.{10 + h}\n" for h in range(24))  # hour h on line h + 2


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory holding a small classification corpus and rating data."""
    root = tmp_path_factory.mktemp("cli")
    data = em.synthetic.fourclass_like(42)
    train, test = em.split_dataset(data, em.SplitSpec(test_count=60, seed=7))
    with open(root / "train.libsvm", "w") as fh:
        em.write_libsvm(train, fh)
    with open(root / "test.libsvm", "w") as fh:
        em.write_libsvm(test, fh)
    with open(root / "full.libsvm", "w") as fh:
        em.write_libsvm(data, fh)
    matrix = em.synthetic.ratings_like(num_users=40, num_items=30, seed=6)
    ratings_train, held = em.split_ratings(matrix, em.SplitSpec(seed=6))
    with open(root / "ratings.csv", "w") as fh:
        em.write_ratings_csv(ratings_train, fh)
    with open(root / "ratings_test.csv", "w") as fh:
        fh.write("user,item,rating\n")
        for u, i, r in held:
            fh.write(f"{u},{i},{r!r}\n")
    with open(root / "schedule.csv", "w") as fh:
        fh.write("hour,price\n")
        prices = [0.10, 0.11, 0.12, 0.14, 0.16, 0.18, 0.20, 0.22, 0.24, 0.26, 0.28,
                  0.30, 0.30, 0.28, 0.26, 0.24, 0.22, 0.20, 0.18, 0.16, 0.14, 0.12,
                  0.11, 0.10]
        for h, p in enumerate(prices):
            fh.write(f"{h},{p}\n")
    with open(root / "results.csv", "w") as fh:
        fh.write("quality,hours\n0.74,6.0\n0.80,10.6\n0.86,22.24\n0.91,40.0\n")
    return root


@pytest.fixture(scope="module")
def files(tmp_path_factory, fourclass_book, example_cf_book, example_matrix):
    """Books and small side files that the commands read, made without the CLI."""
    root = tmp_path_factory.mktemp("files")
    em.save_codebook(fourclass_book, root / "knn.ecb")
    em.save_codebook(example_cf_book, root / "cf.ecb")
    with open(root / "ratings.csv", "w") as fh:
        em.write_ratings_csv(example_matrix, fh)
    (root / "pred.csv").write_text("query_id,depth,scanned_nodes,k_P,k_N,predicted,actual\n0,1,4,3,2,1,1\n")
    (root / "series.csv").write_text("investment,quality\n1,0.5\n2,0.6\n")
    (root / "one.csv").write_text("investment,quality\n1,0.5\n")
    (root / "profile.txt").write_text("nodes_per_second 1000.0\n")
    return root


def run(args):
    return main([str(a) for a in args])


def fill(argv, workdir, files):
    """``argv`` with ``{w}`` and ``{f}`` read as the workdir and files directories."""
    return [str(a).format(w=workdir, f=files) for a in argv]


class TestCodeBuild:
    def test_build_is_reproducible(self, workdir):
        out = workdir / "a.ecb"
        blobs = []
        for _ in range(2):
            code = run(["code", "build", "--task", "knn", "--input", workdir / "train.libsvm",
                        "--max-entries", 3, "--seed", 7, "--out", out])
            assert code == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_cf_build_records_svd_config(self, workdir):
        out = workdir / "cf.ecb"
        code = run(["code", "build", "--task", "cf", "--input", workdir / "ratings.csv",
                    "--max-entries", 3, "--features", 2, "--lr", 0.001,
                    "--epochs", 40, "--seed", 3, "--out", out])
        assert code == 0
        book = em.load_codebook(out)
        assert book.features is not None
        assert book.config["cli"]["features"] == 2

    @pytest.mark.parametrize("setting", [["--epochs", 0], ["--lr", 0], ["--lr", -0.001],
                                         ["--lr", "nan"], ["--features", 0]])
    def test_bad_svd_setting_fails_loudly(self, workdir, capsys, setting):
        out = workdir / "never.ecb"
        code = run(["code", "build", "--task", "cf", "--input", workdir / "ratings.csv",
                    *setting, "--out", out])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("setting, named", [(["cf", "--max-entries", 1], "max entries"),
                                                (["kmeans", "--branching", 1], "branching"),
                                                (["kmeans", "--iterations", 0], "iterations")])
    def test_sizes_checked_before_training(self, workdir, tmp_path, capsys, monkeypatch, setting,
                                           named):
        """A codebook size out of range fails before the features are trained."""
        def train(*args, **kwargs):
            raise AssertionError("features trained before the size check")

        monkeypatch.setattr("elastic_mine.cf.train_incremental_svd", train)
        argv = ["code", "build", "--input", workdir / "ratings.csv", "--task", *setting]
        assert_fails_cleanly([str(a) for a in argv], tmp_path, capsys, named)


class TestMine:
    def test_knn_rows_and_state_refinement(self, workdir):
        book_path = workdir / "a.ecb"
        out1 = workdir / "d1.csv"
        state = workdir / "s1.txt"
        assert run(["mine", "knn", "--book", book_path, "--test", workdir / "test.libsvm",
                    "--k", 5, "--depth", 1, "--save-state", state, "--out", out1]) == 0
        rows = [l for l in out1.read_text().splitlines() if not l.startswith("#")]
        assert rows[0] == "query_id,depth,scanned_nodes,k_P,k_N,predicted,actual"
        assert len(rows) == 61
        out2 = workdir / "d3.csv"
        assert run(["mine", "knn", "--book", book_path, "--test", workdir / "test.libsvm",
                    "--k", 5, "--depth", 3, "--from-state", state, "--out", out2]) == 0
        scanned = [int(l.split(",")[2]) for l in out2.read_text().splitlines()[3:]]
        full = em.load_codebook(book_path).code_at_depth(3).length
        assert all(s <= full for s in scanned)

    def test_budget_picks_depth(self, workdir):
        out = workdir / "budget.csv"
        assert run(["mine", "knn", "--book", workdir / "a.ecb", "--test",
                    workdir / "test.libsvm", "--k", 5, "--budget-nodes", 30,
                    "--out", out]) == 0
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        depths = {int(l.split(",")[1]) for l in body[1:]}
        book = em.load_codebook(workdir / "a.ecb")
        assert depths == {em.select_code(book, 30).depth}

    def test_budget_too_small_fails_loudly(self, workdir, capsys):
        code = run(["mine", "knn", "--book", workdir / "a.ecb", "--test",
                    workdir / "test.libsvm", "--k", 5, "--budget-nodes", 1,
                    "--out", workdir / "never.csv"])
        assert code == 2
        assert "budget" in capsys.readouterr().err

    def test_book_without_codes_fails_loudly(self, single_leaf_split, tmp_path, capsys):
        ds, book = single_leaf_split
        em.save_codebook(book, tmp_path / "leaf.ecb")
        with open(tmp_path / "leaf.libsvm", "w") as fh:
            em.write_libsvm(ds, fh)
        assert run(["mine", "knn", "--book", tmp_path / "leaf.ecb", "--test",
                    tmp_path / "leaf.libsvm", "--k", 1, "--budget-nodes", 5,
                    "--out", tmp_path / "never.csv"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "no usable code" in captured.err

    def test_cf_single_query(self, workdir, capsys):
        assert run(["mine", "cf", "--book", workdir / "cf.ecb", "--ratings",
                    workdir / "ratings.csv", "--user", 5, "--item", 3,
                    "--depth", 2]) == 0
        out = capsys.readouterr().out
        assert "user,item,depth,scanned_nodes,prediction,actual,fallback_flag" in out

    def test_cf_batch_and_quality_report(self, workdir):
        pred = workdir / "cf_pred.csv"
        assert run(["mine", "cf", "--book", workdir / "cf.ecb", "--ratings",
                    workdir / "ratings.csv", "--test", workdir / "ratings_test.csv",
                    "--depth", 2, "--out", pred]) == 0
        report = workdir / "cf_quality.csv"
        assert run(["report", "quality", "--pred", pred, "--task", "cf",
                    "--out", report]) == 0
        text = report.read_text()
        assert "rmse" in text and "fallback_rate" in text

    @pytest.mark.parametrize("algorithm, size", [("sampling", ["--sample-size", 10]),
                                                 ("clustering", ["--clusters", 3]),
                                                 ("recttree", ["--levels", 2])])
    def test_cf_baseline_rows(self, workdir, algorithm, size):
        """One row per held-out rating, in (user, item) order, with its actual rating."""
        out = workdir / f"{algorithm}.csv"
        assert run(["mine", "baseline", "--algorithm", algorithm, *size, "--ratings",
                    workdir / "ratings.csv", "--test", workdir / "ratings_test.csv",
                    "--epochs", 2, "--out", out]) == 0
        body = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")]
        assert body[0] == ["user", "item", "algorithm", "scanned", "prediction", "actual",
                           "fallback_flag"]
        held = sorted(tuple(map(float, l.split(",")))
                      for l in (workdir / "ratings_test.csv").read_text().splitlines()[1:])
        assert [tuple(map(float, (r[0], r[1], r[5]))) for r in body[1:]] == held
        assert all(r[2] == algorithm and 1.0 <= float(r[4]) <= 5.0 for r in body[1:])

    def test_baseline_ranking(self, workdir):
        out = workdir / "rank.csv"
        assert run(["mine", "baseline", "--algorithm", "ranking", "--train",
                    workdir / "train.libsvm", "--test", workdir / "test.libsvm",
                    "--k", 5, "--budget", 100, "--out", out]) == 0
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(body) == 61


class TestReports:
    def test_quality_table_over_multiple_depths(self, workdir):
        """Concatenated per-depth runs report a nondecreasing accuracy column."""
        book = em.load_codebook(workdir / "a.ecb")
        merged = workdir / "alldepths.csv"
        lines = ["query_id,depth,scanned_nodes,k_P,k_N,predicted,actual"]
        for depth in book.depths():
            out = workdir / f"md{depth}.csv"
            assert run(["mine", "knn", "--book", workdir / "a.ecb", "--test",
                        workdir / "test.libsvm", "--k", 5, "--depth", depth,
                        "--out", out]) == 0
            lines += [l for l in out.read_text().splitlines()
                      if l and not l.startswith(("#", "query_id"))]
        merged.write_text("\n".join(lines) + "\n")
        report = workdir / "alldepths_quality.csv"
        assert run(["report", "quality", "--pred", merged, "--task", "knn",
                    "--out", report]) == 0
        accs = [float(l.split(",")[2]) for l in report.read_text().splitlines()
                if ",accuracy," in l]
        assert len(accs) == len(book.depths())
        assert all(b >= a - 0.02 for a, b in zip(accs, accs[1:]))

    def test_cf_quality_against_exact_rows(self, tmp_path):
        """Depth -1 rows are the exact oracle's; a row with no actual rating is skipped."""
        pred = tmp_path / "pred.csv"
        pred.write_text("user,item,depth,scanned_nodes,prediction,actual,fallback_flag\n"
                        "1,1,-1,9,3.0,4.0,0\n1,2,-1,9,2.0,2.0,0\n"
                        "1,1,1,3,3.5,4.0,1\n1,2,1,3,2.0,2.0,0\n1,3,1,3,5.0,,1\n")
        out = tmp_path / "quality.csv"
        assert run(["report", "quality", "--pred", pred, "--task", "cf", "--out", out]) == 0
        exact, approx = math.sqrt(0.5), math.sqrt(0.125)
        assert out.read_text().splitlines()[2:] == [
            "depth,metric,value", f"-1,rmse,{exact!r}", f"1,rmse,{approx!r}",
            f"1,relative_error,{em.relative_error(approx, exact)!r}", "1,fallback_rate,0.5",
        ]

    def test_elasticity_table(self, workdir):
        series = workdir / "series.csv"
        qualities = [0.38, 0.52, 0.64, 0.72, 0.80, 0.88, 0.92, 1.00]
        with open(series, "w") as fh:
            fh.write("investment,quality\n")
            for i, q in enumerate(qualities):
                fh.write(f"{i + 1},{q}\n")
        out = workdir / "elastic.csv"
        assert run(["report", "elasticity", "--series", series, "--out", out]) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[-1].endswith("7->8")
        first = float(lines[1].split(",")[3])
        assert abs(first - 0.368421) < 1e-4

    def test_empty_table_fails_loudly(self, workdir, capsys):
        empty = workdir / "empty.csv"
        empty.write_text("# comment only\n\n")
        assert run(["report", "quality", "--pred", empty, "--task", "knn"]) == 2
        assert run(["plan", "--results", empty, "--scheme", "fixed"]) == 2
        assert "no header line" in capsys.readouterr().err

    def test_resolution_verdict(self, workdir, capsys):
        out = workdir / "resolution.csv"
        assert run(["report", "resolution", "--book", workdir / "a.ecb",
                    "--out", out]) == 0
        assert "pass" in capsys.readouterr().out
        assert "verdict,,,,,pass" in out.read_text()

    @pytest.mark.parametrize("setting", [
        ("--log-base", "1"), ("--log-base", "0.5"), ("--log-base", "nan"),
        ("--cell-volume", "0"), ("--cell-volume", "-1"), ("--m", "0"),
    ], ids=["log-base-1", "log-base-half", "log-base-nan", "cell-volume-0",
            "cell-volume-negative", "m-0"])
    def test_bad_resolution_setting_fails_cleanly(self, fourclass_book, tmp_path, capsys,
                                                   setting):
        book = tmp_path / "book.ecb"
        em.save_codebook(fourclass_book, book)
        assert run(["report", "resolution", "--book", book, *setting]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "too coarse" not in captured.err


class TestPlan:
    def test_fixed_scenario(self, workdir):
        out = workdir / "plan_fixed.txt"
        assert run(["plan", "--results", workdir / "results.csv", "--scheme", "fixed",
                    "--query", "min-investment-for-quality", "--quality", 0.8,
                    "--budget", 20, "--fixed-price", 0.5, "--out", out]) == 0
        text = out.read_text()
        assert "investment 5.3" in text
        assert "feasible true" in text

    def test_spot_scenario(self, workdir):
        out = workdir / "plan_spot.txt"
        assert run(["plan", "--results", workdir / "results.csv", "--scheme", "spot",
                    "--query", "min-bid-for-deadline", "--quality", 0.8,
                    "--deadline-hours", 48, "--schedule", workdir / "schedule.csv",
                    "--out", out]) == 0
        text = out.read_text()
        assert "price 0.12" in text
        assert "investment 1.44" in text

    def test_spot_elasticity_bid_table(self, workdir):
        out = workdir / "plan_bids.txt"
        assert run(["plan", "--results", workdir / "results.csv", "--scheme", "spot",
                    "--query", "elasticity-constrained-quality", "--elasticity-floor", 0.1,
                    "--schedule", workdir / "schedule.csv", "--out", out]) == 0
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert body[:2] == ["[spot]", "result,bid,delta_investment,cumulative_investment,"
                                      "hours_per_day,capped"]
        rows = [l.split(",") for l in body[2:]]
        assert [r[0] for r in rows] == ["1", "2", "3", "4"]
        cumulative = [float(r[3]) for r in rows]
        assert all(a < b for a, b in zip(cumulative, cumulative[1:]))
        assert all(0 < float(r[1]) and 0 < int(r[4]) <= 24 and r[5] in ("0", "1") for r in rows)

    def test_infeasible_plan_still_exits_zero(self, workdir):
        out = workdir / "plan_bad.txt"
        code = run(["plan", "--results", workdir / "results.csv", "--scheme", "spot",
                    "--query", "min-bid-for-deadline", "--quality", 0.8,
                    "--deadline-hours", 0.1, "--schedule", workdir / "schedule.csv",
                    "--out", out])
        assert code == 0
        assert "feasible false" in out.read_text()


class TestBench:
    def test_bench_emits_csv(self, workdir):
        out = workdir / "bench.csv"
        assert run(["bench", "--task", "knn", "--input", workdir / "full.libsvm",
                    "--k", 5, "--max-entries", 3, "--seed", 2, "--out", out]) == 0
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert body[0] == "dataset,algorithm,seed,budget,metric_name,metric_value,scanned,wall_ms"
        algorithms = {l.split(",")[1] for l in body[1:]}
        assert algorithms == {"elastic", "ranking", "rtree-bfs", "rtree-dfs", "rtree-ofs"}
        # five budgets for the elastic run and for each of the four baselines
        assert len(body) - 1 == 25

    def test_budget_below_every_baseline_reads_nan(self, workdir):
        """A budget no baseline can run under gives each a NaN accuracy row, not an error."""
        out = workdir / "bench_small.csv"
        assert run(["bench", "--input", workdir / "full.libsvm", "--k", 5, "--max-entries", 3,
                    "--seed", 2, "--budgets", "3,500", "--out", out]) == 0
        rows = [l.split(",") for l in out.read_text().splitlines()[3:]]
        baseline = [r for r in rows if r[1] != "elastic"]
        assert [(r[1], r[3]) for r in baseline] == [
            (a, b) for a in ("ranking", "rtree-bfs", "rtree-dfs", "rtree-ofs") for b in ("3", "500")]
        for r in baseline:
            if r[3] == "3":
                assert (r[5], r[6]) == ("nan", "0")
            else:
                assert 0.5 < float(r[5]) <= 1.0 and 0 < int(r[6]) <= 500

    def test_bench_reproducible_without_timings(self, workdir):
        out = workdir / "bench_rep.csv"
        blobs = []
        for _ in range(2):
            assert run(["bench", "--task", "knn", "--input", workdir / "train.libsvm",
                        "--k", 5, "--max-entries", 3, "--seed", 2, "--out", out]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]


class TestThreadsAndBudgets:
    def test_thread_count_does_not_change_rows(self, workdir):
        bodies = []
        for threads in (1, 3):
            out = workdir / f"threads{threads}.csv"
            assert run(["mine", "knn", "--book", workdir / "a.ecb", "--test",
                        workdir / "test.libsvm", "--k", 5, "--depth", 3,
                        "--threads", threads, "--out", out]) == 0
            bodies.append([l for l in out.read_text().splitlines() if not l.startswith("#")])
        assert bodies[0] == bodies[1]

    def test_cf_thread_count_does_not_change_rows(self, workdir):
        # threads share the book's and the matrix's lazily built deviation tables
        bodies = []
        for threads in (1, 3):
            out = workdir / f"cf_threads{threads}.csv"
            assert run(["mine", "cf", "--book", workdir / "cf.ecb", "--ratings",
                        workdir / "ratings.csv", "--test", workdir / "ratings_test.csv",
                        "--depth", 2, "--threads", threads, "--out", out]) == 0
            bodies.append([l for l in out.read_text().splitlines() if not l.startswith("#")])
        assert len(bodies[0]) > 10
        assert bodies[0] == bodies[1]

    def test_budget_ms_through_profile(self, workdir):
        profile = workdir / "profile.txt"
        profile.write_text("nodes_per_second 1000.0\n")
        out = workdir / "ms.csv"
        # 30 ms at 1000 nodes/s is a 30-node length budget
        assert run(["mine", "knn", "--book", workdir / "a.ecb", "--test",
                    workdir / "test.libsvm", "--k", 5, "--budget-ms", 30,
                    "--profile", profile, "--out", out]) == 0
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        book = em.load_codebook(workdir / "a.ecb")
        assert {int(l.split(",")[1]) for l in body[1:]} == {em.select_code(book, 30).depth}

    def test_state_file_echoes_query_and_distances(self, workdir):
        state = workdir / "echo_state.txt"
        assert run(["mine", "knn", "--book", workdir / "a.ecb", "--test",
                    workdir / "test.libsvm", "--k", 5, "--depth", 1,
                    "--save-state", state, "--out", workdir / "echo.csv"]) == 0
        lines = [l for l in state.read_text().splitlines() if not l.startswith("#")]
        assert lines[0].startswith("query 0 ")
        assert lines[1].startswith("result 0 1 ")
        token = lines[1].split()[3]
        assert len(token.split(":")[1].split(".")[1]) == 9  # nine decimal places
        assert lines[2].startswith("state 0 1 ")

    def test_cf_state_round_trip(self, workdir):
        state = workdir / "cf_state.txt"
        assert run(["mine", "cf", "--book", workdir / "cf.ecb", "--ratings",
                    workdir / "ratings.csv", "--test", workdir / "ratings_test.csv",
                    "--depth", 1, "--save-state", state,
                    "--out", workdir / "cf_d1.csv"]) == 0
        out = workdir / "cf_d2.csv"
        assert run(["mine", "cf", "--book", workdir / "cf.ecb", "--ratings",
                    workdir / "ratings.csv", "--test", workdir / "ratings_test.csv",
                    "--depth", 2, "--from-state", state, "--out", out]) == 0
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        full = em.load_codebook(workdir / "cf.ecb").code_at_depth(2).length
        assert all(int(l.split(",")[3]) <= full for l in body[1:])


class TestSideFiles:
    """A malformed state, prediction, profile, series or schedule file exits 2
    with one error line naming the file and the line."""

    @pytest.mark.parametrize("name, text, line, command", [
        ("state.txt", "# header\nstate 0 x 1 2\n", 2,
         ["mine", "knn", "--depth", 2, "--from-state"]),
        ("state.txt", "state 0\n", 1, ["mine", "knn", "--depth", 2, "--from-state"]),
        ("state.txt", "# header\nstate 0 3 1 2\n", 2, ["mine", "knn", "--depth", 3, "--from-state"]),
        ("state.txt", "state 0 3 1 2\n", 1, ["mine", "knn", "--depth", 2, "--from-state"]),
        ("state.txt", "state 0 1 0\n", 1, ["mine", "knn", "--depth", 2, "--from-state"]),
        ("pred.csv", "query_id,scanned_nodes,k_P,k_N,predicted,actual\n0,4,3,2,1,1\n", 1,
         ["report", "quality", "--task", "knn", "--pred"]),
        ("profile.txt", "nodes_per_second abc\n", 1,
         ["mine", "knn", "--budget-ms", 30, "--profile"]),
        ("profile.txt", "nodes_per_second -5\n", 1, ["mine", "knn", "--budget-ms", 30, "--profile"]),
        ("profile.txt", "nodes_per_second nan\n", 1, ["mine", "knn", "--budget-ms", 30, "--profile"]),
        ("profile.txt", "nodes_per_second inf\n", 1, ["mine", "knn", "--budget-ms", 30, "--profile"]),
        ("series.csv", "investment,quality\n1,0.5\n2,nan\n", 3, ["report", "elasticity", "--series"]),
        ("results.csv", "quality,hours\n0.74,nan\n", 2, ["plan", "--scheme", "fixed", "--quality", 0.7,
                                                        "--results"]),
        ("schedule.csv", SCHEDULE.replace("\n3,0.13\n", "\n3,abc\n"), 5,
         ["plan", "--scheme", "spot", "--deadline-hours", 48, "--schedule"]),
        ("schedule.csv", SCHEDULE.replace("\n3,0.13\n", "\n3,nan\n"), 5,
         ["plan", "--scheme", "spot", "--deadline-hours", 48, "--schedule"]),
        ("schedule.csv", SCHEDULE.replace("\n3,0.13\n", "\n3,inf\n"), 5,
         ["plan", "--scheme", "spot", "--deadline-hours", 48, "--schedule"]),
        ("schedule.csv", SCHEDULE + "3,0.5\n", 26,
         ["plan", "--scheme", "spot", "--deadline-hours", 48, "--schedule"]),
    ], ids=["state-bad-depth", "state-no-depth", "state-at-mined-depth", "state-below-mined-depth",
            "state-root-id", "pred-no-depth-column", "profile-bad-rate", "profile-negative-rate",
            "profile-nan-rate", "profile-inf-rate", "series-nan", "results-nan-hours",
            "schedule-bad-price", "schedule-nan-price", "schedule-inf-price", "schedule-repeated-hour"])
    def test_malformed_file_fails_cleanly(self, workdir, fourclass_book, tmp_path, capsys,
                                          name, text, line, command):
        path = tmp_path / name
        path.write_text(text)
        em.save_codebook(fourclass_book, tmp_path / "book.ecb")
        mine = ["--book", tmp_path / "book.ecb", "--test", workdir / "test.libsvm", "--k", 5]
        if command[0] == "plan" and name != "results.csv":
            command = command[:1] + ["--results", workdir / "results.csv"] + command[1:]
        args = command + [path] + (mine if command[0] == "mine" else [])
        assert run(args + ["--out", tmp_path / "never.csv"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: line {line}: ")
        assert str(path) in captured.err and captured.err.count("\n") == 1

    def test_cf_state_that_does_not_fit_fails_cleanly(self, workdir, tmp_path, capsys):
        """A CF state must lie above the mined depth, as a kNN state must."""
        book_path = tmp_path / "cf.ecb"
        assert run(["code", "build", "--task", "cf", "--input", workdir / "ratings.csv",
                    "--max-entries", 3, "--features", 2, "--epochs", 10, "--out", book_path]) == 0
        path = tmp_path / "state.txt"
        path.write_text("state 1 2 2 1\n")
        assert run(["mine", "cf", "--book", book_path, "--ratings", workdir / "ratings.csv",
                    "--user", 1, "--item", 2, "--depth", 2, "--from-state", path,
                    "--out", tmp_path / "never.csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 1: ") and str(path) in err and err.count("\n") == 1


class TestReproducibility:
    def test_mine_rerun_is_byte_identical(self, workdir):
        out = workdir / "rep.csv"
        blobs = set()
        for _ in range(3):
            assert run(["mine", "knn", "--book", workdir / "a.ecb", "--test",
                        workdir / "test.libsvm", "--k", 5, "--depth", 2,
                        "--out", out]) == 0
            blobs.add(out.read_bytes())
        assert len(blobs) == 1

    def test_seed_env_override(self, workdir, monkeypatch):
        monkeypatch.setenv("ELASTIC_MINE_SEED", "123")
        from elastic_mine.cli import build_parser

        args = build_parser().parse_args(
            ["mine", "knn", "--book", "x", "--test", "y", "--depth", "1"]
        )
        assert args.seed == 123


def _commands(parser, path=""):
    """(path, parser) of every command ``parser`` runs, such as ``("mine knn", ...)``."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [(path, parser)]
    return [c for name, sub in subs[0].choices.items() for c in _commands(sub, f"{path} {name}".strip())]


# the fewest arguments each command runs with, apart from --out
MINIMAL_ARGV = {
    "code build": ["--task", "knn", "--input", "{w}/train.libsvm"],
    "mine knn": ["--book", "{f}/knn.ecb", "--test", "{w}/test.libsvm", "--depth", 1],
    "mine cf": ["--book", "{f}/cf.ecb", "--ratings", "{f}/ratings.csv", "--user", 1, "--item", 3,
                "--depth", 1],
    "mine baseline": ["--algorithm", "ranking", "--train", "{w}/train.libsvm",
                      "--test", "{w}/test.libsvm", "--budget", 50],
    "report quality": ["--pred", "{f}/pred.csv", "--task", "knn"],
    "report elasticity": ["--series", "{f}/series.csv"],
    "report resolution": ["--book", "{f}/knn.ecb"],
    "plan": ["--results", "{w}/results.csv", "--scheme", "fixed", "--quality", 0.8],
    "bench": ["--input", "{w}/train.libsvm", "--budgets", 20],
}


class TestHeader:
    COMMANDS = dict(_commands(build_parser()))

    @pytest.mark.parametrize("path", COMMANDS)
    def test_config_echoes_every_option(self, workdir, files, tmp_path, path):
        """A header's config holds the command and exactly the options its parser defines."""
        parser = self.COMMANDS[path]
        out = tmp_path / "out"
        assert run(path.split() + fill(MINIMAL_ARGV[path], workdir, files) + ["--out", out]) == 0
        if path == "code build":
            config = em.load_codebook(out).config["cli"]
        else:
            header = out.read_text().splitlines()[1]
            config = json.loads(header.removeprefix("# config "))
        assert config["command"] == path
        assert set(config) == {"command"} | {a.dest for a in parser._actions if a.dest != "help"}


class TestMisuse:
    """Every misuse exits 2 with one error line naming the problem, and writes nothing."""

    SPOT = ["plan", "--results", "{w}/results.csv", "--scheme", "spot", "--schedule", "{w}/schedule.csv"]
    KNN = ["mine", "knn", "--book", "{f}/knn.ecb", "--test", "{w}/test.libsvm"]
    CF_BASELINE = ["mine", "baseline", "--ratings", "{w}/ratings.csv", "--test",
                   "{w}/ratings_test.csv", "--epochs", 2]
    BUILD_KNN = ["code", "build", "--task", "knn", "--input", "{w}/train.libsvm"]
    BUILD_CF = ["code", "build", "--input", "{w}/ratings.csv", "--epochs", 2, "--task"]
    BAD_BUDGETS = ["abc", "", "20,,40", "20,", "0", "-5", "20,0", "2.5"]

    @pytest.mark.parametrize("argv, named", [
        (["plan", "--results", "{w}/results.csv", "--scheme", "spot", "--deadline-hours", 48],
         "--schedule"),
        (SPOT + ["--query", "elasticity-constrained-quality"], "--elasticity-floor"),
        (["plan", "--results", "{w}/results.csv", "--scheme", "fixed",
          "--query", "max-quality-within-budget"], "--budget"),
        (["plan", "--results", "{w}/results.csv", "--scheme", "fixed"], "--quality"),
        (SPOT + ["--deadline-hours", -1], "deadline"),
        (SPOT + ["--deadline-hours", 48, "--fixed-price", 0], "fixed price"),
        (["plan", "--results", "{w}/results.csv", "--scheme", "fixed", "--quality", 0.8,
          "--fixed-price", -1], "fixed price"),
        (["report", "elasticity", "--series", "{f}/one.csv"], "two results"),
        (KNN, "--depth"),
        (KNN + ["--budget-ms", 5], "--profile"),
        (KNN + ["--budget-ms", 0, "--profile", "{f}/profile.txt"], "time budget"),
        (["mine", "cf", "--book", "{f}/cf.ecb", "--ratings", "{f}/ratings.csv", "--depth", 1],
         "--test"),
        (["mine", "baseline", "--algorithm", "ranking", "--test", "{w}/test.libsvm", "--budget", 50],
         "--train"),
        (["mine", "baseline", "--algorithm", "ranking", "--train", "{w}/train.libsvm",
          "--test", "{w}/test.libsvm"], "--budget"),
        (["mine", "baseline", "--algorithm", "clustering", "--ratings", "{f}/ratings.csv",
          "--test", "{f}/ratings.csv"], "--clusters"),
        (["mine", "knn", "--book", "{f}/missing.ecb", "--test", "{w}/test.libsvm", "--depth", 1],
         "missing.ecb"),
        (CF_BASELINE + ["--algorithm", "sampling", "--sample-size", 0], "sample size"),
        (CF_BASELINE + ["--algorithm", "sampling", "--sample-size", 41], "sample size"),
        (CF_BASELINE + ["--algorithm", "clustering", "--clusters", 0], "cluster count"),
        (CF_BASELINE + ["--algorithm", "clustering", "--clusters", 41], "cluster count"),
        (CF_BASELINE + ["--algorithm", "recttree", "--levels", 0], "levels"),
        (CF_BASELINE + ["--algorithm", "recttree", "--levels", 2, "--branching", 0], "branching"),
        *((["bench", "--input", "{w}/train.libsvm", f"--budgets={b}"], "--budgets")
          for b in BAD_BUDGETS),
        (CF_BASELINE + ["--algorithm", "clustering", "--clusters", 3, "--iterations", 0], "iterations"),
        (CF_BASELINE + ["--algorithm", "recttree", "--levels", 2, "--iterations", -1], "iterations"),
        (BUILD_KNN + ["--max-entries", 1], "max entries"),
        (BUILD_KNN + ["--leaf-capacity", 0], "leaf capacity"),
        (BUILD_KNN + ["--leaf-capacity", -3], "leaf capacity"),
        (BUILD_CF + ["cf", "--max-entries", 1], "max entries"),
        (BUILD_CF + ["cf", "--leaf-capacity", 0], "leaf capacity"),
        (BUILD_CF + ["kmeans", "--branching", 1], "branching"),
        (BUILD_CF + ["kmeans", "--iterations", 0], "iterations"),
        (["mine", "cf", "--book", "{f}/knn.ecb", "--ratings", "{f}/ratings.csv", "--user", 3,
          "--item", 4, "--depth", 1], "rating aggregates"),
        (["mine", "knn", "--book", "{f}/cf.ecb", "--test", "{w}/test.libsvm", "--depth", 1],
         "rtree-dual"),
        (["mine", "baseline", "--algorithm", "rtree-bfs", "--book", "{f}/cf.ecb", "--train",
          "{w}/train.libsvm", "--test", "{w}/test.libsvm", "--budget", 50], "rtree-dual"),
    ], ids=["spot-no-schedule", "elasticity-no-floor", "max-quality-no-budget",
            "min-investment-no-quality", "negative-deadline", "zero-price-spot", "negative-price-fixed",
            "one-row-series", "knn-no-depth", "budget-ms-no-profile", "budget-ms-zero",
            "cf-no-query", "ranking-no-train", "ranking-no-budget", "clustering-no-clusters",
            "missing-input", "sample-size-0", "sample-size-above-users", "clusters-0",
            "clusters-above-users", "levels-0", "branching-0",
            *(f"budgets-{b or 'empty'}" for b in BAD_BUDGETS),
            "clustering-iterations-0", "recttree-iterations-negative", "build-knn-max-entries-1",
            "build-knn-leaf-capacity-0", "build-knn-leaf-capacity-negative", "build-cf-max-entries-1",
            "build-cf-leaf-capacity-0", "build-kmeans-branching-1", "build-kmeans-iterations-0",
            "cf-on-knn-book", "knn-on-cf-book", "rtree-baseline-on-cf-book"])
    def test_exits_2_with_one_error_line(self, workdir, files, tmp_path, capsys, argv, named):
        assert_fails_cleanly(fill(argv, workdir, files), tmp_path, capsys, named)

    PLAN = ["plan", "--results", "{w}/results.csv", "--schedule", "{w}/schedule.csv",
            "--deadline-hours", 48, "--quality", 0.8]

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("option, scheme", [
        (option, scheme) for option in ("--budget", "--quality", "--deadline-hours",
                                        "--elasticity-floor", "--fixed-price")
        for scheme in ("fixed", "spot") if (option, scheme) != ("--deadline-hours", "fixed")
    ])  # a fixed-price plan reads no deadline
    def test_non_finite_plan_number_rejected(self, workdir, files, tmp_path, capsys, option,
                                             scheme, value):
        """A NaN or infinite number gets no plan: every comparison with NaN is false, so it
        would answer as if the constraint were absent."""
        query = ["--query", "elasticity-constrained-quality"] if option == "--elasticity-floor" else []
        argv = self.PLAN + ["--scheme", scheme] + query + [option, value]
        assert_fails_cleanly(fill(argv, workdir, files), tmp_path, capsys, "finite",
                             option.split("-")[2])


def assert_fails_cleanly(argv, tmp_path, capsys, *named):
    """``argv`` exits 2 with one ``error:`` line holding every ``named`` text, and writes nothing."""
    out = tmp_path / "never.txt"
    assert run(argv + ["--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert all(text in captured.err for text in named)
