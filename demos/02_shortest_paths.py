"""Shortest paths as linear algebra over the min-plus semiring.

Run:  python3 demos/02_shortest_paths.py
"""

from tropikit import (
    MINPLUS,
    Graph,
    NegativeCycle,
    SemiringMatrix,
    adjacency_matrix,
    kleene_star,
    shortest_paths,
    solve_bellman_gauss_seidel,
    solve_bellman_jacobi,
)

# A small road network.  Edge weights are travel costs.
g = Graph(4, ((0, 1, 5.0), (0, 2, 1.0), (2, 1, 2.0), (1, 3, 1.0), (2, 3, 6.0)))

# In min-plus, matrix product (A . B)[i,j] = min_k (A[i,k] + B[k,j]) is
# exactly "best two-leg trip"; the Kleene star I (+) A (+) A^2 (+) ... is
# "best trip of any length", i.e. the all-pairs distance matrix.
D = shortest_paths(g)
print("all-pairs distances:")
for i in range(4):
    print("  ", [float(v) for v in D.data[i]])

# The same thing, spelled as the fixpoint equation X = H.X (+) F.  With
# F = I the least solution is the star; Jacobi iterates all rows at once,
# Gauss-Seidel sweeps rows in place.  All three agree bitwise.
H = adjacency_matrix(g, MINPLUS)
F = SemiringMatrix.identity(4, MINPLUS)
assert solve_bellman_jacobi(H, F) == solve_bellman_gauss_seidel(H, F) == kleene_star(H)
print("\nJacobi, Gauss-Seidel and the star closure agree.")

# With a negative cycle there is no least solution: costs can be pumped
# down forever.  The solver reports it, naming one such cycle.
bad = Graph(3, ((0, 1, 1.0), (1, 2, -3.0), (2, 1, 1.0)))
try:
    shortest_paths(bad)
except NegativeCycle as e:
    print("negative cycle detected:", e)
    assert e.cycle == (1, 2)
