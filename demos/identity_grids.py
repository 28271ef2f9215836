"""Sweep the scalar identities on exact integer grids.

Two sums carry the whole matrix pipeline.  The row-product entry equals
1 exactly for 1 <= r <= k+1 and drifts away outside that window; the
normalized moment sum equals 1 exactly for 0 <= b <= k.  The grid
runners assert the unit values and the vanishing recurrences inside the
windows, and record (without asserting) whatever shows up beyond them.
"""

from collections import Counter

from lisenum import GridSpec, binomial_moment_sum, ones_product_entry, vandermonde_chu_check
from lisenum.identities import run_moment_identity_grid, run_ones_identity_grid

print("Row-product entry at k=2, n=9, for r inside and outside the window:")
for r in range(1, 7):
    marker = "in window" if r <= 3 else "outside"
    print(f"  r={r}: {ones_product_entry(2, r, 9)}  ({marker})")

print("\nMoment sum at k=2, n=9, for b inside and outside the window:")
for b in range(0, 6):
    marker = "in window" if b <= 2 else "outside"
    print(f"  b={b}: {binomial_moment_sum(2, b, 9)}  ({marker})")

print("\nConvolution check with negative parameters:", vandermonde_chu_check(-3, 2, 2).status)

spec = GridSpec(k=(0, 3), n=(0, 12))
for label, runner in (("row-product grid", run_ones_identity_grid),
                      ("moment grid", run_moment_identity_grid)):
    results = runner(spec)
    by_status = dict(Counter(r.status for r in results))
    print(f"\n{label}: {by_status}")
    recorded = next(r for r in results if r.status == "skipped" and "recorded" in (r.witness or ""))
    print(f"  example recorded point: {recorded.name}: {recorded.witness}")
