"""Two exact determinant engines and why unit determinants matter.

The kernel and component matrices all have determinant 1, so Cramer
solves against them stay integral: the component counts literally are
column-replacement determinants (route 4).  Route 3 solves the same
kind of system with one fraction-free elimination instead.  Bareiss
elimination is the reference engine; Dodgson condensation is the
independent second opinion.  Condensation divides by interior
contiguous minors.  While none is 0 it condenses the matrix itself; at
the first zero divisor it restarts on the matrix plus c times the
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


def interior_minors(m: Matrix, size: int) -> list:
    """The size x size contiguous minors off the border: the divisors of
    condensation stage size + 2."""
    inner = range(1, m.rows - size)
    return [det_bareiss(Matrix([row[j:j + size] for row in m.entries[i:i + size]]))
            for i in inner for j in inner]


print("\nCondensation divides by the interior contiguous minors.  None of")
print("component_matrix(5, 15)'s is 0, so it condenses the matrix itself:")
q = component_matrix(5, 15)
for size in range(1, q.rows - 1):
    print(f"  smallest |{size}x{size} interior minor| = "
          f"{min(abs(d) for d in interior_minors(q, size))}")
print(f"  det (dodgson, unshifted) = {det_dodgson(q)}")

print("\nThe all-ones matrix has nonzero interior entries, but its 2x2 minors")
print("vanish, so the zero divisor comes at stage 4 and condensation restarts")
print("on the matrix shifted by a Pascal multiple:")
ones = Matrix([[1] * 4 for _ in range(4)])
print(f"  2x2 interior minors = {[int(d) for d in interior_minors(ones, 2)]}")
print(f"  det (dodgson, shifted) = {det_dodgson(ones)}")

print("\nThe parameterized binomial determinant and its closed product form:")
for k, x, y in ((1, 3, 2), (2, 0, 0), (3, -1, 4)):
    direct = det_bareiss(shifted_binomial_matrix(k, x, y))
    closed = binomial_det_product(k, x, y)
    print(f"  k={k} x={x:+d} y={y:+d}: determinant {direct} = product {closed}")
