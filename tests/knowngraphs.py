"""Small graphs with frozen independence polynomials.

The coefficient tuples were computed with the subset-filter oracle in
``oracles.py`` and are pinned here so regressions in the engine cannot
drift past the tests.  Several entries come in pairs of non-isomorphic
graphs sharing one polynomial; the pairs drive the equivalence-search
tests.
"""

from coronapoly.graphs import Graph

# very well-covered trees: the first is real-rooted, the second is not
TREE10_REALROOTED = Graph(
    10, [(0, 1), (2, 3), (3, 4), (4, 5), (6, 7), (1, 3), (3, 7), (8, 4), (9, 5)]
)
TREE10_REALROOTED_POLY = (1, 10, 36, 60, 47, 14)

TREE8_NONREAL = Graph(8, [(0, 1), (3, 4), (4, 5), (6, 7), (1, 4), (4, 7), (2, 5)])
TREE8_NONREAL_POLY = (1, 8, 21, 23, 9)

# equal-polynomial, non-isomorphic pairs on 5 resp. 6 vertices
PAIR5_A = Graph(5, [(0, 1), (1, 2), (0, 3), (3, 4), (2, 4)])   # the 5-cycle
PAIR5_B = Graph(5, [(0, 1), (1, 2), (0, 3), (1, 3), (2, 4)])
PAIR5_POLY = (1, 5, 5)

PAIR6_A = Graph(6, [(0, 1), (1, 2), (0, 3), (0, 4), (1, 5)])   # a tree
PAIR6_B = Graph(6, [(0, 1), (0, 2), (0, 3), (2, 3), (1, 3)])   # diamond + 2 K_1
PAIR6_POLY = (1, 6, 10, 6, 1)

# a non-well-covered tree and a well-covered graph with one polynomial
CHAIR_TREE = Graph(5, [(0, 1), (1, 3), (2, 3), (3, 4)])
C4_PLUS_K1 = Graph(5, [(0, 3), (0, 1), (1, 4), (3, 4)])
CHAIR_POLY = (1, 5, 6, 2)

# equal-polynomial pair on 6 vertices: not well-covered vs. well-covered
DENSE6_A = Graph(
    6, [(0, 3), (1, 4), (2, 5), (0, 1), (1, 2), (3, 4), (4, 5), (0, 4), (1, 5), (1, 3), (2, 4)]
)
DENSE6_B = Graph(
    6, [(2, 3), (3, 4), (4, 5), (1, 2), (1, 3), (0, 2), (0, 3), (1, 5), (1, 4), (0, 5), (0, 4)]
)
DENSE6_POLY = (1, 6, 4)

# the classic pair of non-isomorphic 10-vertex trees with equal polynomials
EQUAL_TREES10_A = Graph(
    10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 6), (2, 7), (3, 8), (5, 9)]
)
EQUAL_TREES10_B = Graph(
    10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 9), (6, 7), (3, 7), (4, 8)]
)
EQUAL_TREES10_POLY = (1, 10, 36, 58, 42, 12, 1)

# the empty graph on 65 vertices, one past the vertex cap, as a graph6
# line: the long header for 65, then 65*64/2 = 2080 zero bits in 347 bytes
EMPTY65_GRAPH6 = "~?@@" + "?" * 347
