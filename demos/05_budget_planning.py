"""Planning mining runs under fixed and spot pricing.

A throughput profile converts wall-clock budgets into code-length budgets.
Under a fixed hourly price, investment is execution time times the price.
Under spot pricing, a bid buys only the hours it covers, so cheap bids
stretch the elapsed time; the planner finds the smallest bid that still
meets the deadline, and can derive per-result bids meeting an
investment-elasticity floor.
"""

import elastic_mine as em
from elastic_mine.planner import (
    QUERY_ELASTICITY,
    QUERY_MAX_QUALITY,
    QUERY_MIN_INVESTMENT,
    ResultPoint,
)

# calibrate throughput on a profiling subset, then size time budgets
data = em.synthetic.fourclass_like(seed=42)
train, test = em.split_dataset(data, em.SplitSpec(test_count=100, seed=3))
book = em.build_dual_rtrees(train, max_entries=3, seed=7)
queries = [em.KnnQuery(test.features[i], 5) for i in range(20)]
profile = em.calibrate(book, queries)
print(f"throughput: {profile.nodes_per_second:,.0f} nodes/second")
for ms in (0.5, 2.0, 50.0):
    budget = em.length_budget(ms / 1000.0, profile)
    try:
        depth = em.select_code(book, budget).depth
        print(f"  {ms:>5} ms -> length budget {budget:>6} -> depth {depth}")
    except Exception as exc:
        print(f"  {ms:>5} ms -> length budget {budget:>6} -> {exc}")

# a four-result refinement series: quality and cumulative machine-hours
results = [ResultPoint(0.74, 6.0), ResultPoint(0.80, 10.6),
           ResultPoint(0.86, 22.24), ResultPoint(0.91, 40.0)]
schedule = em.PriceSchedule(0.5, (
    0.10, 0.11, 0.12, 0.14, 0.16, 0.18, 0.20, 0.22, 0.24, 0.26, 0.28, 0.30,
    0.30, 0.28, 0.26, 0.24, 0.22, 0.20, 0.18, 0.16, 0.14, 0.12, 0.11, 0.10,
))

print("\nfixed pricing at 0.5/hour:")
a = em.fixed_plan(results, 0.5, QUERY_MIN_INVESTMENT, budget=20.0, required_quality=0.8)
print(f"  quality 0.8 costs {a.investment:.2f} (result {a.result_index + 1})")
b = em.fixed_plan(results, 0.5, QUERY_MAX_QUALITY, budget=20.0)
print(f"  a 20.00 budget reaches quality {b.quality:.2f}")
c = em.fixed_plan(results, 0.5, QUERY_ELASTICITY, budget=20.0, elasticity_floor=0.10)
print(f"  requiring 10% elasticity stops at quality {c.quality:.2f}")

print("\nspot pricing, 2-day deadline:")
d = em.spot_plan(results, schedule, 48.0, required_quality=0.8)
print(f"  quality 0.8: bid {d.price:.2f}, granted {d.execution_hours:.0f}h,"
      f" pays {d.investment:.2f}, work done at hour {d.completion_hours:.1f}")
e = em.spot_plan(results, schedule, 48.0, required_quality=0.91)
print(f"  quality 0.91: bid {e.price:.2f}, pays {e.investment:.2f}"
      f" (vs {results[-1].hours * 0.5:.2f} at the fixed price)")

print("\nper-result bids under a 10% elasticity floor:")
for row in em.spot_elasticity_bids(results, schedule, elasticity_floor=0.10):
    tag = "capped by floor" if row.capped else "base bid"
    print(f"  result {row.index + 1}: bid {row.bid:.3f} ({tag}),"
          f" cumulative investment {row.cumulative_investment:.2f}")
