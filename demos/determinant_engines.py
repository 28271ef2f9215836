"""Two exact determinant engines and why unit determinants matter.

The kernel and component matrices all have determinant 1, so Cramer
solves against them stay integral: the component counts literally are
column-replacement determinants (route 4).  Route 3 solves the same
kind of system with one fraction-free elimination instead.  Bareiss
elimination is the reference engine; Dodgson condensation is the
independent second opinion.  It condenses the matrix plus c times the
Pascal matrix, whose interior minors are never 0, and reads the
determinant off modulo c.
"""

from lisenum import (
    Matrix,
    binomial_det_product,
    component_matrix,
    det_bareiss,
    det_dodgson,
    initial_vector,
    kernel_matrix,
    shifted_binomial_matrix,
    solve_bareiss,
    solve_cramer,
)

print("Unit determinants of the structured matrices:")
for k in (1, 3, 5):
    m, q = kernel_matrix(k), component_matrix(k, 2 * k + 5)
    print(f"  k={k}: det kernel = {det_bareiss(m)} / {det_dodgson(m)}   "
          f"det component = {det_bareiss(q)} / {det_dodgson(q)}  (bareiss / dodgson)")

print("\nkernel_matrix(2) and the two solves that produce the kernel column:")
for row in kernel_matrix(2).entries:
    print("  ", [int(x) for x in row])
print("  initial vector:", list(initial_vector(2)))
for label, solve in (("elimination", solve_bareiss), ("cramer", solve_cramer)):
    print(f"  {label:>11} solve ->", [int(x) for x in solve(kernel_matrix(2), initial_vector(2))])

print("\nCondensation needs interior entries to be nonzero; the all-ones")
print("matrix has none, so condensation runs on it shifted by a Pascal multiple:")
ones = Matrix([[1] * 4 for _ in range(4)])
print(f"  det (dodgson, shifted) = {det_dodgson(ones)}")

print("\nThe parameterized binomial determinant and its closed product form:")
for k, x, y in ((1, 3, 2), (2, 0, 0), (3, -1, 4)):
    direct = det_bareiss(shifted_binomial_matrix(k, x, y))
    closed = binomial_det_product(k, x, y)
    print(f"  k={k} x={x:+d} y={y:+d}: determinant {direct} = product {closed}")
