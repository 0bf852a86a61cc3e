"""Command-line entry point.

Subcommands: ``code build``, ``mine knn|cf|baseline``, ``report
quality|elasticity|resolution``, ``plan``, and ``bench``. Every output
file opens with a comment header carrying the tool version and the full
effective configuration, so re-running the header's config reproduces the
file byte for byte. All experiment outputs are CSV for external plotting.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time

from . import __version__
from .errors import DepthNotFoundError, ElasticMineError, ForeignStateError, InvalidDatasetError, ParseError

# Each command imports the modules it runs, inside the command, so that a
# process pays the import cost of its own command only.


def _config(args) -> dict:
    """The command and every option its parser defines, so no option can miss the header."""
    routing = ("command", "subcommand", "func", "command_path")
    return {**{k: v for k, v in vars(args).items() if k not in routing}, "command": args.command_path}


def _write(path, args, lines: list[str]):
    """Write ``lines`` under a header of the tool version and the config of ``args``."""
    blob = json.dumps(_config(args), sort_keys=True, separators=(",", ":"))
    text = f"# elastic-mine {__version__}\n# config {blob}\n" + "\n".join(lines) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _read_input(path, parse):
    """``parse`` of the open file at ``path``; a :class:`ParseError` or
    :class:`InvalidDatasetError` it raises names the file, as a side file's does."""
    with open(path, encoding="utf-8") as fh:
        try:
            return parse(fh)
        except (ParseError, InvalidDatasetError) as exc:
            raise type(exc)(f"{exc} in {path}") from None


def _rating_triples(path) -> list[tuple[int, int, float]]:
    """(user, item, rating) of every rating of the ratings CSV at ``path``, in (user, item) order."""
    from . import datasets

    columns = _read_input(path, datasets.parse_ratings_csv).rating_arrays()
    return list(zip(*(column.tolist() for column in columns)))


def _read_data_lines(path) -> list[tuple[int, str]]:
    """(1-based line number, line) of every line that is not a ``#`` comment."""
    with open(path, encoding="utf-8") as fh:
        return [(n, line) for n, line in enumerate(fh, 1) if not line.startswith("#")]


def _read_table(path, columns: dict, required=None, check=None) -> list[dict]:
    """Rows of a CSV with a header line, as header -> cell.

    A column named in ``columns`` is converted by its function, any other
    is kept as a string. Every column of ``required`` (by default, every
    column of ``columns``) must be in the header. A missing column, a row
    of the wrong width, a cell that does not convert, a number that is NaN
    or infinite, or a converted row for which ``check`` raises ``ValueError``
    raises :class:`ParseError` with the path and line number.
    """
    lines = [(n, line.strip()) for n, line in _read_data_lines(path) if line.strip()]
    if not lines:
        raise ParseError(f"no header line in {path}")
    at, first = lines[0]
    header = [h.strip() for h in first.split(",")]
    for name in columns if required is None else required:
        if name not in header:
            raise ParseError(f"no {name!r} column in {path}", at)
    rows = []
    for at, line in lines[1:]:
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != len(header):
            raise ParseError(f"{len(cells)} cells under {len(header)} columns in {path}", at)
        try:
            row = {h: columns.get(h, str)(c) for h, c in zip(header, cells)}
            if check is not None:
                check(row)
        except ValueError as exc:
            raise ParseError(f"malformed row in {path} ({exc})", at) from None
        if any(isinstance(v, float) and not math.isfinite(v) for v in row.values()):
            raise ParseError(f"non-finite number in {path}", at)
        rows.append(row)
    return rows


def _load_states(path, key_fields, book, depth) -> tuple[dict, dict]:
    """The ``state <key ints> <depth> <ids>`` lines of a state file as states of
    ``book`` above the code ``depth``, and its ``query <key ints> <echo>`` lines
    as (line number, echo), each keyed by the key ints. A second line of one
    kind for one key raises :class:`ParseError` naming both lines."""
    from . import coding

    states, echoes, first = {}, {}, {}
    for at, line in _read_data_lines(path):
        kind, *toks = line.split() or [None]
        if kind not in ("state", "query"):
            continue
        try:
            key = tuple(int(toks[i]) for i in range(key_fields))
            if kind == "state":
                state_depth, ids = int(toks[key_fields]), list(map(int, toks[key_fields + 1 :]))
        except (ValueError, IndexError):
            raise ParseError(f"malformed {kind} line in {path} (want {key_fields} key ints, then "
                             "a depth and node ids, or a point)", at) from None
        if first.setdefault((kind, key), at) != at:
            raise ParseError(f"a second {kind} line for one key in {path}, after line {first[kind, key]}", at)
        if kind == "query":
            echoes[key] = (at, " ".join(toks[key_fields:]))
        elif state_depth >= depth:
            raise ParseError(f"state in {path} at depth {state_depth}, not above depth {depth}", at)
        else:
            try:
                states[key] = coding.state_of(book, state_depth, ids)
            except ForeignStateError as exc:
                raise ParseError(f"state in {path} does not fit the book: {exc}", at) from None
    return states, echoes


def _echo(point) -> str:
    """A test point as the ``query`` line of a kNN state file echoes it."""
    return " ".join(f"{v:.9f}" for v in point)


def _state_line(key, state) -> str:
    """A state file line: the key ints, then the ``coding.State``'s depth and node ids, ascending."""
    return f"state {key} {state.depth} " + " ".join(map(str, state.view.ids[state.rows].tolist()))


def _require(args, mode: str, *names):
    """Raise, naming the option, unless every option of ``names`` that ``mode`` needs is given."""
    for name in names:
        if getattr(args, name) is None:
            raise ElasticMineError(f"{mode} needs --{name.replace('_', '-')}")


# ---------------------------------------------------------------------------
# code build


def _cmd_code_build(args) -> int:
    from . import coding, datasets

    # the builder's own size checks, before any input is read or features are trained
    if args.task == "kmeans":
        coding._check_kmeans_sizes(args.branching, args.iterations, args.depth_limit, args.seed)
    else:
        coding._check_rtree_sizes(args.max_entries, args.leaf_capacity, args.seed)
    if args.task == "knn":
        train = _read_input(args.input, datasets.parse_libsvm)
        book = coding.build_dual_rtrees(train, args.max_entries, args.seed, args.leaf_capacity)
    else:
        from . import cf

        matrix = _read_input(args.input, datasets.parse_ratings_csv)
        feats = cf.train_incremental_svd(matrix, args.features, args.lr, args.epochs, args.seed)
        if args.task == "cf":
            book = coding.build_cf_codebook(matrix, feats, args.max_entries, args.seed, args.leaf_capacity)
        else:
            book = coding.build_kmeans_codebook(
                matrix, feats, args.branching, args.depth_limit, args.iterations, args.seed
            )
    book.config["cli"] = _config(args)  # the book's own dict: a replaced book would build its views again
    coding.save_codebook(book, args.out)
    print(f"codebook {args.out}: kind={book.kind} depths={book.depths()}")
    for depth in book.depths():
        code = book.code_at_depth(depth)
        volume = coding.total_mbr_volume(book, depth)
        print(f"  depth {depth}: length {code.length} volume {volume:.6g}")
    for w in book.warnings:
        print(f"  warning: {w}")
    return 0


# ---------------------------------------------------------------------------
# mine


def _open_mine(args, key_fields):
    """(book, depth, start, echoes) of ``mine knn|cf``: the depth that ``--depth``,
    ``--budget-nodes`` or (knn only) ``--budget-ms`` chooses; the one rule for the
    state a query (keyed by ``key_fields`` ints) starts from: its ``--from-state``
    state, else the roots' under ``--save-state``, else none; and the query echoes
    of ``--from-state``. The options are checked before any file is read."""
    budget_ms = getattr(args, "budget_ms", None)
    if args.depth is None and args.budget_nodes is None:
        if budget_ms is None:
            more = ", --budget-ms" if hasattr(args, "budget_ms") else ""
            raise ElasticMineError(f"one of --depth, --budget-nodes{more} is required")
        _require(args, "--budget-ms", "profile")
    from . import coding

    book = _read_input(args.book, coding.load_codebook)
    if args.depth is not None:
        depth = args.depth
    elif args.budget_nodes is not None:
        depth = coding.select_code(book, args.budget_nodes).depth
    else:
        from . import planner

        profile = None
        for at, line in _read_data_lines(args.profile):
            if line.startswith("nodes_per_second"):
                try:
                    profile = planner.ThroughputProfile(float(line.split()[1]))
                except (ValueError, IndexError):
                    raise ParseError(f"malformed nodes_per_second line in {args.profile}", at) from None
        if profile is None:
            raise ElasticMineError(f"no nodes_per_second line in {args.profile}")
        depth = coding.select_code(book, planner.length_budget(budget_ms / 1000.0, profile)).depth
    states, echoes = _load_states(args.from_state, key_fields, book, depth) if args.from_state else ({}, {})
    roots = coding._roots_state(book) if args.save_state else None  # so that results carry states
    return book, depth, lambda key: states.get(key, roots), echoes


def _run_ordered(worker, count, threads):
    """Run worker(i) for i in range(count), preserving input order in the output."""
    if threads <= 1:
        return [worker(i) for i in range(count)]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, range(count)))


def _cmd_mine_knn(args) -> int:
    from . import datasets, knn

    book, depth, start, echoes = _open_mine(args, 1)
    test = _read_input(args.test, datasets.parse_libsvm)
    for (qid,), (at, echo) in echoes.items():  # a query past the test set is not mined
        if qid < len(test) and echo != _echo(test.features[qid]):
            raise ParseError(f"state of query {qid} in {args.from_state} was saved for another point", at)

    def classify_one(qid):
        return knn.classify(book, depth, knn.KnnQuery(test.features[qid], args.k), start((qid,)))

    outcomes = _run_ordered(classify_one, len(test), args.threads)
    rows = ["query_id,depth,scanned_nodes,k_P,k_N,predicted,actual"]
    state_lines = []
    for qid, result in enumerate(outcomes):
        rows.append(f"{qid},{depth},{result.scanned},{result.k_pos},{result.k_neg},"
                    f"{result.predicted},{int(test.labels[qid])}")
        if args.save_state:
            pairs = " ".join(f"{nid}:{dist:.9f}" for nid, dist in zip(result.node_ids, result.distances))
            state_lines.append(f"query {qid} {_echo(test.features[qid])}")
            state_lines.append(f"result {qid} {depth} {pairs}")
            state_lines.append(_state_line(qid, result.state))
    _write(args.out, args, rows)
    if args.save_state:
        _write(args.save_state, args, state_lines)
    return 0


def _cmd_mine_cf(args) -> int:
    if not args.test and None in (args.user, args.item):
        raise ElasticMineError("mine cf needs --test or --user/--item")
    from . import cf, datasets

    book, depth, start, _ = _open_mine(args, 2)
    matrix = _read_input(args.ratings, datasets.parse_ratings_csv)
    if args.test:
        queries = _rating_triples(args.test)
    else:
        queries = [(args.user, args.item, None)]

    def predict_one(idx):
        user, item, _ = queries[idx]
        query = cf.CfQuery.from_matrix(matrix, user, item)
        return cf.predict(book, depth, query, start((user, item)), matrix=matrix)

    outcomes = _run_ordered(predict_one, len(queries), args.threads)
    rows = ["user,item,depth,scanned_nodes,prediction,actual,fallback_flag"]
    state_lines = []
    for (user, item, actual), result in zip(queries, outcomes):
        shown = "" if actual is None else repr(actual)
        rows.append(f"{user},{item},{depth},{result.scanned},{result.prediction!r},{shown},"
                    f"{int(result.fallback)}")
        if args.save_state:
            state_lines.append(_state_line(f"{user} {item}", result.state))
    _write(args.out, args, rows)
    if args.save_state:
        _write(args.save_state, args, state_lines)
    return 0


_KNN_BASELINES = ("ranking", "rtree-bfs", "rtree-dfs", "rtree-ofs")
_CF_BASELINES = {"sampling": "sample_size", "clustering": "clusters", "recttree": "levels"}  # -> size option


def _knn_baseline(algorithm, train, book, query, budget, order):
    """One query of the anytime kNN baseline ``algorithm``, a name of ``_KNN_BASELINES``."""
    from . import baselines

    if algorithm == "ranking":
        return baselines.anytime_knn_ranking(train, query, budget, order)
    return baselines.anytime_knn_rtree(book, train, query, budget, algorithm.split("-")[1])


def _cmd_mine_baseline(args) -> int:
    from . import baselines, datasets

    algo = args.algorithm
    rows = []
    if algo in _KNN_BASELINES:
        _require(args, f"--algorithm {algo}", "train", "test", "budget")
        from . import coding, knn

        train = _read_input(args.train, datasets.parse_libsvm)
        test = _read_input(args.test, datasets.parse_libsvm)
        rows.append("query_id,algorithm,budget,scanned,predicted,actual")
        order = baselines.rank_training_points(train) if algo == "ranking" else None
        book = _read_input(args.book, coding.load_codebook) if args.book else (
            None if algo == "ranking" else coding.build_dual_rtrees(train, seed=args.seed)
        )
        for qid in range(len(test)):
            query = knn.KnnQuery(test.features[qid], args.k)
            result = _knn_baseline(algo, train, book, query, args.budget, order)
            rows.append(
                f"{qid},{algo},{args.budget},{result.scanned},{result.predicted},{int(test.labels[qid])}"
            )
    else:
        _require(args, f"--algorithm {algo}", "ratings", "test", _CF_BASELINES[algo])
        from . import cf

        matrix = _read_input(args.ratings, datasets.parse_ratings_csv)
        tests = _rating_triples(args.test)
        if algo != "sampling":  # only the clustering baselines read user features
            feats = cf.train_incremental_svd(matrix, args.features, args.lr, args.epochs, args.seed)
        rows.append("user,item,algorithm,scanned,prediction,actual,fallback_flag")
        for user, item, actual in tests:
            query = cf.CfQuery.from_matrix(matrix, user, item)
            if algo == "sampling":
                result = baselines.cf_sampling(matrix, query, args.sample_size, args.seed)
            elif algo == "clustering":
                result = baselines.cf_clustering(matrix, feats, query, args.clusters, args.iterations)
            else:
                result = baselines.cf_recttree(matrix, feats, query, args.levels,
                                               args.branching, args.iterations)
            rows.append(
                f"{user},{item},{algo},{result.scanned},{result.prediction!r},{actual!r},{int(result.fallback)}"
            )
    _write(args.out, args, rows)
    return 0


# ---------------------------------------------------------------------------
# report


def _check_knn_prediction(row):
    """Raise ``ValueError`` unless a kNN prediction row counts at least one
    neighbour, none negatively, and its labels are +1 or -1."""
    if row["k_P"] < 0 or row["k_N"] < 0 or row["k_P"] + row["k_N"] == 0:
        raise ValueError(f"k_P {row['k_P']} and k_N {row['k_N']} are not counts of one or more neighbours")
    for name in ("predicted", "actual"):
        if row[name] not in (1, -1):
            raise ValueError(f"{name} {row[name]} is not 1 or -1")


def _check_cf_prediction(row):
    """Raise ``ValueError`` unless a CF prediction row's fallback flag is 0 or 1."""
    if row["fallback_flag"] not in (0, 1):
        raise ValueError(f"fallback_flag {row['fallback_flag']} is not 0 or 1")


def _cmd_report_quality(args) -> int:
    out_rows = ["depth,metric,value"]
    if args.task == "knn":
        from . import knn

        body = _read_table(args.pred, dict.fromkeys(("depth", "predicted", "actual", "k_P", "k_N"), int),
                           check=_check_knn_prediction)
        by_depth: dict[int, list[dict]] = {}
        for row in body:
            by_depth.setdefault(row["depth"], []).append(row)
        for depth in sorted(by_depth):
            rows = by_depth[depth]
            preds = [r["predicted"] for r in rows]
            actuals = [r["actual"] for r in rows]
            out_rows.append(f"{depth},accuracy,{knn.accuracy(preds, actuals)!r}")
            scores = [r["k_P"] / (r["k_P"] + r["k_N"]) for r in rows]
            try:
                out_rows.append(f"{depth},auc,{knn.auc(scores, actuals)!r}")
            except ElasticMineError:
                pass
    else:
        from . import cf, coding

        body = _read_table(args.pred, {"depth": int, "prediction": float, "fallback_flag": int,
                                       "actual": lambda v: float(v) if v else None},
                           check=_check_cf_prediction)
        by_depth = {}
        for row in body:
            if row["actual"] is None:
                continue
            by_depth.setdefault(row["depth"], []).append(row)
        exact = by_depth.pop(coding.EXACT_DEPTH, None)
        exact_rmse = None
        if exact is not None:
            exact_rmse = cf.rmse([r["prediction"] for r in exact], [r["actual"] for r in exact])
            out_rows.append(f"{coding.EXACT_DEPTH},rmse,{exact_rmse!r}")
        for depth in sorted(by_depth):
            rows = by_depth[depth]
            value = cf.rmse([r["prediction"] for r in rows], [r["actual"] for r in rows])
            out_rows.append(f"{depth},rmse,{value!r}")
            if exact_rmse:
                out_rows.append(f"{depth},relative_error,{cf.relative_error(value, exact_rmse)!r}")
            fallback = sum(r["fallback_flag"] for r in rows) / len(rows)
            out_rows.append(f"{depth},fallback_rate,{fallback!r}")
    _write(args.out, args, out_rows)
    return 0


def _cmd_report_elasticity(args) -> int:
    from . import elasticity

    points = []
    numbers = dict.fromkeys(("quality", "investment", "resource", "price"), float)
    for row in _read_table(args.series, numbers, required=("quality", "investment")):
        points.append(elasticity.InvestmentPoint(
            quality=row["quality"], investment=row["investment"],
            resource=row.get("resource"), price=row.get("price"),
        ))
    report = elasticity.investment_elasticity(points)
    out_rows = ["pair,dQ_pct,dI_pct,elasticity"]
    for p in report.pairs:
        value = "" if p.elasticity is None else repr(p.elasticity)
        out_rows.append(f"{p.start + 1}->{p.start + 2},{p.quality_gain_pct!r},{p.investment_gain_pct!r},{value}")
    out_rows.append(f"argmax,,,{report.argmax_pair() + 1}->{report.argmax_pair() + 2}")
    _write(args.out, args, out_rows)
    return 0


def _cmd_report_resolution(args) -> int:
    from . import coding, elasticity

    book = _read_input(args.book, coding.load_codebook)
    report = elasticity.audit_entropy_monotonicity(book, args.m, args.cell_volume, args.log_base)
    out_rows = ["depth,length,volume,n,H_cond_bits,resolution_bits"]
    for c in report.codes:
        out_rows.append(
            f"{c.depth},{c.length},{c.volume!r},{c.possible_points},"
            f"{c.conditional_entropy!r},{c.resolution!r}"
        )
    out_rows.append(f"verdict,,,,,{'pass' if report.monotone else 'fail'}")
    _write(args.out, args, out_rows)
    print("resolution monotonicity:", "pass" if report.monotone else f"fail at {report.first_violation()}")
    return 0


# ---------------------------------------------------------------------------
# plan


# the planner's QUERY_* names, spelled out so that building the parser loads no planner
_PLAN_QUERIES = ("max-quality-within-budget", "min-investment-for-quality",
                 "min-bid-for-deadline", "elasticity-constrained-quality")


def _answer_lines(answer) -> list[str]:
    """The lines of one ``planner.PlanAnswer``."""
    fields = [f.name for f in dataclasses.fields(answer) if f.name not in ("query", "feasible")]
    out = [f"query {answer.query}", f"feasible {str(answer.feasible).lower()}"]
    cells = [answer.query, str(answer.feasible).lower()]
    for name in fields:
        value = getattr(answer, name)
        if value is not None:
            out.append(f"{name} {value!r}" if isinstance(value, float) else f"{name} {value}")
        cells.append("" if value is None else (repr(value) if isinstance(value, float) else str(value)))
    out.append("csv query,feasible," + ",".join(fields))
    out.append("csv " + ",".join(cells))
    return out


def _cmd_plan(args) -> int:
    from . import planner

    fixed_needs = {planner.QUERY_MAX_QUALITY: "budget", planner.QUERY_MIN_INVESTMENT: "quality",
                   planner.QUERY_ELASTICITY: "elasticity_floor"}  # fixed-price query -> option it needs
    # the deadline-driven spot query maps to the quality-floor fixed query
    fixed_query = planner.QUERY_MIN_INVESTMENT if args.query == planner.QUERY_MIN_BID else args.query
    if args.scheme in ("fixed", "both"):
        _require(args, f"the fixed-price {fixed_query} query", fixed_needs[fixed_query])
    if args.scheme in ("spot", "both"):
        spot_need = "elasticity_floor" if args.query == planner.QUERY_ELASTICITY else "deadline_hours"
        _require(args, "a spot plan", "schedule", spot_need)
    results = [planner.ResultPoint(row["quality"], row["hours"])
               for row in _read_table(args.results, {"quality": float, "hours": float})]
    out_rows = []
    if args.scheme in ("fixed", "both"):
        answer = planner.fixed_plan(
            results, args.fixed_price, fixed_query, budget=args.budget,
            required_quality=args.quality, elasticity_floor=args.elasticity_floor,
        )
        out_rows.append("[fixed]")
        out_rows.extend(_answer_lines(answer))
    if args.scheme in ("spot", "both"):
        schedule = _read_input(args.schedule,
                               lambda fh: planner.PriceSchedule.from_csv(fh.read(), args.fixed_price))
        if args.query == planner.QUERY_ELASTICITY:
            bids = planner.spot_elasticity_bids(results, schedule, args.elasticity_floor)
            out_rows.append("[spot]")
            out_rows.append("result,bid,delta_investment,cumulative_investment,hours_per_day,capped")
            for b in bids:
                out_rows.append(
                    f"{b.index + 1},{b.bid!r},{b.delta_investment!r},"
                    f"{b.cumulative_investment!r},{b.hours_per_day},{int(b.capped)}"
                )
        else:
            answer = planner.spot_plan(
                results, schedule, args.deadline_hours,
                required_quality=args.quality, budget=args.budget,
            )
            out_rows.append("[spot]")
            out_rows.extend(_answer_lines(answer))
    _write(args.out, args, out_rows)
    return 0


# ---------------------------------------------------------------------------
# bench


def _node_budgets(text: str) -> list[int]:
    """The positive whole node budgets of a comma-separated ``--budgets`` value."""
    try:
        budgets = [int(b) for b in text.split(",")]
        if min(budgets) >= 1:
            return budgets
    except ValueError:
        pass
    raise ParseError(f"--budgets wants comma-separated positive whole numbers, got {text!r}")


def _cmd_bench(args) -> int:
    import numpy as np

    from . import baselines, coding, datasets, knn

    # budgets default to the elastic algorithm's cumulative refinement costs
    budgets = None if args.budgets is None else _node_budgets(args.budgets)
    rows = ["dataset,algorithm,seed,budget,metric_name,metric_value,scanned,wall_ms"]
    name = os.path.basename(args.input)

    def emit(algorithm, budget, metric, value, scanned, wall_ms):
        ms = repr(wall_ms) if args.timings else "0.0"
        rows.append(f"{name},{algorithm},{args.seed},{budget},{metric},{value!r},{scanned},{ms}")

    data = _read_input(args.input, datasets.parse_libsvm)
    train, test = datasets.split_dataset(
        data, datasets.SplitSpec(test_count=min(100, len(data) // 5), seed=args.seed)
    )
    book = coding.build_dual_rtrees(train, args.max_entries, args.seed)
    if not book.depths():
        raise DepthNotFoundError(f"the book has no usable code: {'; '.join(book.warnings)}")
    queries = [knn.KnnQuery(test.features[i], args.k) for i in range(len(test))]
    actuals = [int(y) for y in test.labels]

    # every query refined from the roots down the depths, each step timed:
    # the elastic row of a depth costs the steps that reach it
    depths = book.depths()
    scans = np.zeros((len(queries), len(depths)), dtype=np.int64)
    preds = np.zeros((len(depths), len(queries)), dtype=np.int64)
    step_s = np.zeros(len(depths))
    for i, query in enumerate(queries):
        state = coding._roots_state(book)
        for j, depth in enumerate(depths):
            t0 = time.perf_counter()
            result = knn.classify(book, depth, query, state)
            step_s[j] += time.perf_counter() - t0
            scans[i, j], preds[j, i], state = result.scanned, result.predicted, result.state
    mean_cumulative = np.mean(np.cumsum(scans, axis=1), axis=0)
    if budgets is None:
        budgets = [int(round(b)) for b in mean_cumulative]
    for j, wall_s in enumerate(np.cumsum(step_s)):
        emit("elastic", budgets[min(j, len(budgets) - 1)], "accuracy", knn.accuracy(preds[j], actuals),
             int(round(mean_cumulative[j])), float(wall_s) * 1000)

    order = baselines.rank_training_points(train)
    for algorithm in _KNN_BASELINES:
        for budget in budgets:
            t0 = time.perf_counter()
            preds = []
            scanned = 0
            for query in queries:
                try:
                    r = _knn_baseline(algorithm, train, book, query, budget, order)
                except ElasticMineError:
                    preds = None
                    break
                preds.append(r.predicted)
                scanned += r.scanned
            wall = (time.perf_counter() - t0) * 1000
            if preds is None:
                emit(algorithm, budget, "accuracy", float("nan"), 0, wall)
                continue
            emit(algorithm, budget, "accuracy", knn.accuracy(preds, actuals),
                 scanned // len(queries), wall)
    _write(args.out, args, rows)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="elastic-mine", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # options that two commands read the same way, each defined once
    svd = argparse.ArgumentParser(add_help=False)  # user features: code build, mine baseline
    svd.add_argument("--features", type=int, default=3)
    svd.add_argument("--lr", type=float, default=0.001)
    svd.add_argument("--epochs", type=int, default=120)
    mining = argparse.ArgumentParser(add_help=False)  # mine knn, mine cf
    mining.add_argument("--book", required=True)
    mining.add_argument("--depth", type=int, default=None)
    mining.add_argument("--budget-nodes", type=int, default=None)
    mining.add_argument("--from-state", default=None)
    mining.add_argument("--save-state", default=None)
    mining.add_argument("--out", default="-")
    mining.add_argument("--seed", type=int, default=0)
    mining.add_argument("--threads", type=int, default=1)

    code = sub.add_parser("code", help="codebook construction").add_subparsers(
        dest="subcommand", required=True
    )
    build = code.add_parser("build", parents=[svd], help="build and persist a codebook")
    build.add_argument("--task", choices=["knn", "cf", "kmeans"], required=True)
    build.add_argument("--input", required=True)
    build.add_argument("--out", required=True)
    build.add_argument("--seed", type=int, default=0)
    build.add_argument("--max-entries", type=int, default=4)
    build.add_argument("--leaf-capacity", type=int, default=None)
    build.add_argument("--branching", type=int, default=2)
    build.add_argument("--depth-limit", type=int, default=4)
    build.add_argument("--iterations", type=int, default=10)
    build.set_defaults(func=_cmd_code_build, command_path="code build")

    mine = sub.add_parser("mine", help="run mining under a budget").add_subparsers(
        dest="subcommand", required=True
    )
    mine_knn = mine.add_parser("knn", parents=[mining])
    mine_knn.add_argument("--test", required=True)
    mine_knn.add_argument("--k", type=int, default=5)
    mine_knn.add_argument("--budget-ms", type=float, default=None)
    mine_knn.add_argument("--profile", default=None)
    mine_knn.set_defaults(func=_cmd_mine_knn, command_path="mine knn")

    mine_cf = mine.add_parser("cf", parents=[mining])
    mine_cf.add_argument("--ratings", required=True, help="training ratings CSV")
    mine_cf.add_argument("--test", default=None, help="ratings CSV of queries")
    mine_cf.add_argument("--user", type=int, default=None)
    mine_cf.add_argument("--item", type=int, default=None)
    mine_cf.set_defaults(func=_cmd_mine_cf, command_path="mine cf")

    mine_base = mine.add_parser("baseline", parents=[svd])
    mine_base.add_argument("--algorithm", required=True, choices=[*_KNN_BASELINES, *_CF_BASELINES])
    mine_base.add_argument("--train", default=None)
    mine_base.add_argument("--test", default=None)
    mine_base.add_argument("--book", default=None)
    mine_base.add_argument("--ratings", default=None)
    mine_base.add_argument("--k", type=int, default=5)
    mine_base.add_argument("--budget", type=int, default=None)
    mine_base.add_argument("--sample-size", type=int, default=None)
    mine_base.add_argument("--clusters", type=int, default=None)
    mine_base.add_argument("--levels", type=int, default=None)
    mine_base.add_argument("--branching", type=int, default=2)
    mine_base.add_argument("--iterations", type=int, default=10)
    mine_base.add_argument("--out", default="-")
    mine_base.add_argument("--seed", type=int, default=0)
    mine_base.set_defaults(func=_cmd_mine_baseline, command_path="mine baseline")

    report = sub.add_parser("report", help="metrics and audits").add_subparsers(
        dest="subcommand", required=True
    )
    quality = report.add_parser("quality")
    quality.add_argument("--pred", required=True)
    quality.add_argument("--task", choices=["knn", "cf"], required=True)
    quality.add_argument("--out", default="-")
    quality.set_defaults(func=_cmd_report_quality, command_path="report quality")

    elast = report.add_parser("elasticity")
    elast.add_argument("--series", required=True)
    elast.add_argument("--out", default="-")
    elast.set_defaults(func=_cmd_report_elasticity, command_path="report elasticity")

    resol = report.add_parser("resolution")
    resol.add_argument("--book", required=True)
    resol.add_argument("--m", type=int, default=None)
    resol.add_argument("--cell-volume", type=float, default=None)
    resol.add_argument("--log-base", type=float, default=2.0)
    resol.add_argument("--out", default="-")
    resol.set_defaults(func=_cmd_report_resolution, command_path="report resolution")

    plan = sub.add_parser("plan", help="fixed/spot budget planning")
    plan.add_argument("--results", required=True, help="CSV with quality,hours columns")
    plan.add_argument("--scheme", choices=["fixed", "spot", "both"], default="both")
    plan.add_argument("--query", default="min-investment-for-quality", choices=_PLAN_QUERIES)
    plan.add_argument("--fixed-price", type=float, default=0.5)
    plan.add_argument("--schedule", default=None, help="CSV with hour,price rows")
    plan.add_argument("--budget", type=float, default=None)
    plan.add_argument("--quality", type=float, default=None)
    plan.add_argument("--deadline-hours", type=float, default=None)
    plan.add_argument("--elasticity-floor", type=float, default=None)
    plan.add_argument("--out", default="-")
    plan.set_defaults(func=_cmd_plan, command_path="plan")

    bench = sub.add_parser("bench", help="elastic vs baselines comparison")
    bench.add_argument("--task", choices=["knn"], default="knn")
    bench.add_argument("--input", required=True)
    bench.add_argument("--k", type=int, default=5)
    bench.add_argument("--max-entries", type=int, default=3)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--budgets", default=None, help="comma-separated node budgets")
    bench.add_argument("--timings", action="store_true", help="record wall_ms (non-reproducible)")
    bench.add_argument("--out", default="-")
    bench.set_defaults(func=_cmd_bench, command_path="bench")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ElasticMineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
