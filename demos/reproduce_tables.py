"""Reproduce the component tables for k = 1, 2, 3.

Each column lists the component counts #B(1), ..., #B(k+1) followed by
the class size #A.  Columns are generated by the recursion (each entry
is the tail sum of the previous column) and every total is cross-checked
against the closed formula before printing, so a rendered table is a
verified table.
"""

from lisenum import component_table, kernel_by_solve

for k, n_from, n_to in ((1, 2, 6), (2, 4, 9), (3, 6, 11)):
    print(f"k = {k}, kernel column (n = {2 * k}): {kernel_by_solve(k)}")
    print(component_table(k, n_from, n_to).render("md"))
    print()

print("The same machinery in CSV, ready for a spreadsheet:")
print(component_table(2, 4, 9).render("csv"))
