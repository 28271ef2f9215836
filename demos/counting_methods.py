"""Count one class four independent ways.

The class at size (n, k) holds the permutations of {1..n} whose first
n-k entries increase and whose longest increasing subsequence has length
at most n-k.  This walkthrough counts it by

  1. the alternating closed formula,
  2. brute-force enumeration,
  3. the column recursion seeded by the solved kernel,
  4. column-replacement determinant solves,

and shows that all four agree, entry by entry.
"""

from lisenum import components, count, format_perm, iter_class

print("The five members at (n=4, k=2):")
for mu in iter_class(4, 2):
    print(" ", format_perm(mu))

print("\nCounting (n=9, k=3) by every route:")
for method in ("formula", "oracle", "kernel", "cramer"):
    print(f"  {method:8s} -> {count(9, 3, method)}")

print("\nComponent vectors [#B(1), ..., #B(k+1)] at (n=9, k=3):")
for method in ("oracle", "recursion", "transfer_matrix", "cramer"):
    print(f"  {method:16s} -> {components(9, 3, method)}")

print("\nLarger sizes are closed-form territory; no enumeration needed:")
for n in (20, 40, 80):
    print(f"  count(n={n}, k=5) = {count(n, 5)}")
