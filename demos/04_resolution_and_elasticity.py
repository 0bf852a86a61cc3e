"""The information-theoretic and economic sides of elasticity.

Resolution measures how many bits a code reveals about the training set:
with n possible point placements and m actual points, pinning the dataset
down costs log C(n, m) bits. A coder whose codes resolve more as they
lengthen supports quality-monotone mining. Investment elasticity then
prices refinement: percentage quality gained per percentage invested.
"""

import elastic_mine as em
from elastic_mine.elasticity import InvestmentPoint, audit_quality_monotonicity

# --- the number-guessing intuition ------------------------------------------
report = em.resolution([50], m=1, prior_points=100, log_base=10.0)
print("guessing an integer in 1..100 (decimal digits of uncertainty):")
print(f"  prior entropy      {report.prior_entropy:.2f}")
print(f"  after halving      {report.codes[0].conditional_entropy:.2f}")
print(f"  resolution gained  {report.codes[0].resolution:.2f}")

# --- auditing a built codebook ----------------------------------------------
data = em.synthetic.fourclass_like(seed=42)
book = em.build_dual_rtrees(data, max_entries=3, seed=7)
audit = em.audit_entropy_monotonicity(book)
print(f"\nentropy monotonicity on the built book: {'pass' if audit.monotone else 'fail'}")
print("depth  length      volume  resolution(bits)")
for code in audit.codes:
    print(f"{code.depth:>5}  {code.length:>6}  {code.volume:>10.2f}  {code.resolution:>14.1f}")

# --- investment elasticity of a refinement series ---------------------------
qualities = [0.38, 0.52, 0.64, 0.72, 0.80, 0.88, 0.92, 1.00]
series = [InvestmentPoint(q, float(i + 1)) for i, q in enumerate(qualities)]
elastic = em.investment_elasticity(series)
print("\npair   %dQ      %dI      elasticity")
for pair in elastic.pairs:
    print(f"{pair.start + 1}->{pair.start + 2}  {pair.quality_gain_pct:6.3f}"
          f"  {pair.investment_gain_pct:6.3f}  {pair.elasticity:10.3f}")
best = elastic.argmax_pair()
print(f"refining result {best + 1} pays best per percentage point invested.")

verdictk = audit_quality_monotonicity(series, slack=0.0)
print(f"four elastic-algorithm properties hold: {verdictk.all_passed}")

# --- the equivalence of investment, resource, and price elasticity ----------
for price in (0.5, 1.0, 2.0):
    priced = [InvestmentPoint(p.quality, p.investment * price,
                              resource=p.investment, price=price) for p in series]
    first = em.resource_and_price_elasticity(priced).pairs[0].elasticity
    print(f"price {price:>3}: first-pair elasticity {first:.4f} (invariant to price)")
