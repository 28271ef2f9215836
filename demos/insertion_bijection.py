"""Watch the prefix-insertion bijection build the next column.

Taking a member with first entry r, shifting every value >= i up by one
and prepending i (for any i <= r) produces a member at size n+1 whose
first entry is i and whose second entry is r+1.  Grouping images by that
second entry shows the map is a bijection, which is exactly why each
component count at n+1 is a tail sum of the counts at n.
"""

from lisenum import (
    check_insertion_bijection,
    component_counts,
    format_perm,
    insert_prefix,
    iter_class,
)

N, K = 4, 2

print(f"Members at (n={N}, k={K}), grouped by first entry:")
sources = {r: list(iter_class(N, K, r)) for r in range(1, K + 2)}
for r, members in sources.items():
    print(f"  B({r}): {[format_perm(mu) for mu in members] or '(empty)'}")

print(f"\nImages at n={N + 1}, target prefix by row, source component by column:")
for i in range(1, K + 2):
    cells = []
    for r in range(1, K + 2):
        if r < i:
            cells.append("-")  # insertion needs i <= r: empty contribution
        else:
            cells.append(" ".join(format_perm(insert_prefix(mu, i)) for mu in sources[r]))
    print(f"  into B({i}): " + " | ".join(c if c else "-" for c in cells))

print(f"\nEnumerated afresh at (n={N + 1}, k={K}) for comparison:")
for i in range(1, K + 2):
    print(f"  B({i}): {[format_perm(mu) for mu in iter_class(N + 1, K, i)]}")

result = check_insertion_bijection(N, K)
print(f"\nbijection check: {result.status}")
print(f"component counts {component_counts(N, K)} -> {component_counts(N + 1, K)} "
      "(each entry a tail sum of the previous column)")
