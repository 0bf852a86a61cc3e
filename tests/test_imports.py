"""The package's names and the modules each command loads.

``import elastic_mine`` resolves its names on first use, and every CLI
command imports only the modules it runs; these tests pin both.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import elastic_mine as em
from elastic_mine import planner
from elastic_mine.cli import build_parser

SRC = str(Path(em.__file__).resolve().parents[1])
ROOT = Path(__file__).resolve().parents[1]

# every name the package exposes, as "module.name"; a bare name is a module
EXPORTS = """
    datasets.LabeledDataset datasets.NEGATIVE datasets.POSITIVE datasets.RatingMatrix
    datasets.SplitSpec datasets.parse_libsvm datasets.parse_ratings_csv datasets.split_dataset
    datasets.split_ratings datasets.write_libsvm datasets.write_ratings_csv
    errors.DimensionMismatchError errors.ElasticMineError errors.ForeignStateError
    errors.TrainingConfigError errors.UnknownUserError
    coding.Aggregates coding.Code coding.CodeBook coding.NodeArrays coding.State
    coding.build_cf_codebook coding.build_dual_rtrees coding.build_kmeans_codebook
    coding.dump_codebook coding.kmeans coding.load_codebook
    coding.save_codebook coding.select_code coding.state_of coding.total_mbr_volume
    knn.KnnApproxResult knn.KnnQuery knn.accuracy knn.auc knn.classify
    knn.exact_knn knn.maintain_state
    cf.CfApproxResult cf.CfQuery cf.exact_cf_predict cf.predict cf.relative_error cf.rmse cf.train_incremental_svd
    elasticity.ElasticityReport elasticity.InvestmentPoint elasticity.ResolutionReport
    elasticity.audit_entropy_monotonicity elasticity.audit_quality_monotonicity
    elasticity.investment_elasticity elasticity.log_binomial elasticity.resolution
    elasticity.resource_and_price_elasticity
    planner.PlanAnswer planner.PriceSchedule planner.ResultPoint planner.ThroughputProfile
    planner.calibrate planner.fixed_plan planner.length_budget planner.spot_availability
    planner.spot_elasticity_bids planner.spot_plan
    baselines.anytime_knn_ranking baselines.anytime_knn_rtree baselines.cf_clustering
    baselines.cf_recttree baselines.cf_sampling baselines.rank_training_points
    baselines cf coding datasets elasticity errors knn planner synthetic
""".split()


def _python(script, cwd):
    """Standard output of ``script`` run by a fresh interpreter in ``cwd``."""
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env, capture_output=True,
                          text=True, check=True).stdout


def test_package_exposes_pinned_names(tmp_path):
    """A fresh ``import elastic_mine`` lists every pinned name and loads none of its modules."""
    script = ("import sys, elastic_mine\n"
              "print(*[n for n in dir(elastic_mine) if not n.startswith('_')])\n"
              "print(*sorted(m for m in sys.modules if m.startswith('elastic_mine.')))\n")
    names, loaded = _python(script, tmp_path).split("\n")[:2]
    assert names.split() == sorted(e.rsplit(".", 1)[-1] for e in EXPORTS)
    assert loaded == ""


@pytest.mark.parametrize("export", EXPORTS)
def test_name_is_defining_modules_object(export):
    module, _, name = export.rpartition(".")
    if not module:
        assert getattr(em, name) is importlib.import_module(f"elastic_mine.{name}")
    else:
        assert getattr(em, name) is getattr(importlib.import_module(f"elastic_mine.{module}"), name)


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        em.nonexistent  # noqa: B018


def test_plan_and_knn_report_load_no_other_command(tmp_path):
    """``plan`` and ``report quality --task knn`` load neither the CF, elasticity,
    baseline and synthetic-data modules nor a thread pool."""
    (tmp_path / "results.csv").write_text("quality,hours\n0.74,6.0\n0.80,10.6\n0.86,22.24\n")
    (tmp_path / "schedule.csv").write_text("hour,price\n" + "".join(f"{h},0.{10 + h}\n" for h in range(24)))
    (tmp_path / "pred.csv").write_text(
        "query_id,depth,scanned_nodes,k_P,k_N,predicted,actual\n0,1,4,3,2,1,1\n1,1,4,1,4,-1,-1\n")
    unused = ["elastic_mine.cf", "elastic_mine.elasticity", "elastic_mine.baselines",
              "elastic_mine.synthetic", "concurrent.futures"]
    script = (
        "import sys\n"
        "from elastic_mine.cli import main\n"
        "assert main(['plan', '--results', 'results.csv', '--scheme', 'both', '--quality', '0.8',\n"
        "             '--query', 'min-bid-for-deadline', '--deadline-hours', '48',\n"
        "             '--schedule', 'schedule.csv', '--out', 'plan.txt']) == 0\n"
        "assert main(['report', 'quality', '--pred', 'pred.csv', '--task', 'knn',\n"
        "             '--out', 'quality.csv']) == 0\n"
        f"print(*[m for m in {unused!r} if m in sys.modules])\n"
    )
    assert _python(script, tmp_path).split() == []
    plan = (tmp_path / "plan.txt").read_text()
    assert "[fixed]" in plan and "[spot]" in plan
    assert "auc" in (tmp_path / "quality.csv").read_text()


def test_plan_query_choices_are_planner_queries():
    """The parser spells out the planner's query names, so they are pinned to them here."""
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    query = next(a for a in sub.choices["plan"]._actions if a.dest == "query")
    assert list(query.choices) == [planner.QUERY_MAX_QUALITY, planner.QUERY_MIN_INVESTMENT,
                                   planner.QUERY_MIN_BID, planner.QUERY_ELASTICITY]
    assert query.default == planner.QUERY_MIN_INVESTMENT


def test_src_imports_only_stdlib_and_numpy():
    """The package depends on numpy alone: every absolute import in its
    modules names a standard-library package or numpy."""
    foreign = []
    for path in sorted(Path(em.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names | {"numpy"}]
    assert foreign == []


def test_src_reads_no_environment_variable():
    """The package takes its settings from arguments alone: no module reads
    ``os.environ`` or calls ``os.getenv``, by attribute or by import."""
    reads = []
    for path in sorted(Path(em.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = [alias.name for alias in node.names]
            else:
                continue
            reads += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name in ("environ", "environb", "getenv", "getenvb")]
    assert reads == []


def test_every_export_has_a_caller_outside_the_tests():
    """Each name the package exports is used by the library, the benchmark
    or a demo, as a name, an attribute or an import; docstrings do not count."""
    paths = [p for p in sorted(Path(em.__file__).parent.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(ROOT.glob("bench/*.py")) + sorted(ROOT.glob("demos/*.py"))
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
    assert sorted(set(em.__all__) - set(em._EXPORTS) - used) == []


def test_settable_value_count():
    """The number of values a caller can set and of exported names, as
    ``tools/settable_values.py`` counts them. A change that adds or removes a
    setting or an export updates these pins in its own diff."""
    script = (ROOT / "tools" / "settable_values.py").read_text(encoding="utf-8")
    settable, exported = _python(script, ROOT).splitlines()
    assert (settable.split()[0], exported.split()[0]) == ("373", "79")
