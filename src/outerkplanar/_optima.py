"""Optima proven by the exact search, which its vertex term reads.

``_PROVEN_OPTIMA[(mode, n)][k]`` is ``max_edges(n, k, mode)`` for the
general, bipartite_free and bipartite_consecutive modes, n <= 11 and
k <= 6, each proven by the search within 3M nodes.  A row stops before
its first k not so proven.  ``python tests/test_search.py`` rebuilds the
table in increasing n, each row proven with the rows above it, and prints
it; ``test_proven_optima_reprove`` checks it the same way.
"""

_PROVEN_OPTIMA = {
    ("general", 2): (1, 1, 1, 1, 1, 1, 1),
    ("general", 3): (3, 3, 3, 3, 3, 3, 3),
    ("general", 4): (5, 6, 6, 6, 6, 6, 6),
    ("general", 5): (7, 8, 10, 10, 10, 10, 10),
    ("general", 6): (9, 11, 12, 14, 15, 15, 15),
    ("general", 7): (11, 13, 15, 16, 18, 19, 21),
    ("general", 8): (13, 16, 19, 19, 21, 22, 24),
    ("general", 9): (15, 18, 21, 23, 24, 26, 27),
    ("general", 10): (17, 21, 24, 27, 29),
    ("general", 11): (19, 23, 28),
    ("bipartite_free", 2): (1, 1, 1, 1, 1, 1, 1),
    ("bipartite_free", 3): (2, 2, 2, 2, 2, 2, 2),
    ("bipartite_free", 4): (4, 4, 4, 4, 4, 4, 4),
    ("bipartite_free", 5): (5, 6, 6, 6, 6, 6, 6),
    ("bipartite_free", 6): (7, 8, 9, 9, 9, 9, 9),
    ("bipartite_free", 7): (8, 10, 11, 12, 12, 12, 12),
    ("bipartite_free", 8): (10, 12, 13, 14, 16, 16, 16),
    ("bipartite_free", 9): (11, 14, 15, 16, 18, 19, 20),
    ("bipartite_free", 10): (13, 16, 18, 18, 20, 22, 23),
    ("bipartite_free", 11): (14, 18, 20, 21, 22, 24, 25),
    ("bipartite_consecutive", 2): (1, 1, 1, 1, 1, 1, 1),
    ("bipartite_consecutive", 3): (2, 2, 2, 2, 2, 2, 2),
    ("bipartite_consecutive", 4): (3, 4, 4, 4, 4, 4, 4),
    ("bipartite_consecutive", 5): (4, 5, 6, 6, 6, 6, 6),
    ("bipartite_consecutive", 6): (5, 7, 7, 8, 9, 9, 9),
    ("bipartite_consecutive", 7): (6, 8, 9, 10, 10, 11, 12),
    ("bipartite_consecutive", 8): (7, 10, 11, 12, 12, 14, 14),
    ("bipartite_consecutive", 9): (8, 11, 12, 14, 14, 15, 16),
    ("bipartite_consecutive", 10): (9, 13, 14, 16, 17, 18, 19),
    ("bipartite_consecutive", 11): (10, 14, 16, 18, 18, 20, 21),
}
