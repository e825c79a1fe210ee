"""Independent brute-force oracles used to freeze expected values.

Nothing here shares code with the package's computation paths: stable
sets are enumerated by plain backtracking over vertex order (or literal
subset filtering for tiny graphs), so these can certify the polynomial
engine, the stability number and the well-coveredness predicates.
"""

from itertools import combinations

from coronapoly.graphs import Graph


def stable_set_masks(g: Graph):
    """Yield every stable set of g (as a bitmask) exactly once, by
    lowest-vertex include/exclude backtracking."""
    masks = g.masks
    n = g.n

    def rec(allowed: int, chosen: int):
        if not allowed:
            yield chosen
            return
        v = (allowed & -allowed).bit_length() - 1
        yield from rec(allowed & ~(1 << v), chosen)
        yield from rec(allowed & ~(masks[v] | (1 << v)), chosen | (1 << v))

    yield from rec((1 << n) - 1, 0)


def count_vector(g: Graph) -> tuple[int, ...]:
    """Stable-set counts by size via the backtracking enumerator."""
    counts = [0] * (g.n + 1)
    for s in stable_set_masks(g):
        counts[s.bit_count()] += 1
    while counts and counts[-1] == 0:
        counts.pop()
    return tuple(counts)


def count_vector_subsets(g: Graph) -> tuple[int, ...]:
    """Stable-set counts by literal filtering of all vertex subsets."""
    assert g.n <= 18, "subset filter is for tiny graphs"
    counts = [0] * (g.n + 1)
    for k in range(g.n + 1):
        for sub in combinations(range(g.n), k):
            if all(not g.has_edge(u, v) for i, u in enumerate(sub) for v in sub[i + 1:]):
                counts[k] += 1
    while counts and counts[-1] == 0:
        counts.pop()
    return tuple(counts)


def brute_alpha(g: Graph) -> int:
    return max(s.bit_count() for s in stable_set_masks(g))


def brute_maximal_stable_sets(g: Graph) -> list[int]:
    sets = list(stable_set_masks(g))
    out = []
    for s in sets:
        if not any(t != s and t & s == s for t in sets):
            out.append(s)
    return out


def brute_is_well_covered(g: Graph) -> bool:
    sizes = {s.bit_count() for s in brute_maximal_stable_sets(g)}
    return len(sizes) == 1


def brute_is_claw_free(g: Graph) -> bool:
    for quad in combinations(range(g.n), 4):
        for center in quad:
            leaves = [v for v in quad if v != center]
            if all(g.has_edge(center, v) for v in leaves) and all(
                not g.has_edge(u, v) for u, v in combinations(leaves, 2)
            ):
                return False
    return True


def isomorphic_by_permutation_search(g: Graph, h: Graph) -> bool:
    """Explicit vertex-map backtracking (degree-pruned), independent of the
    package's canonical codes."""
    if g.n != h.n or g.num_edges != h.num_edges:
        return False
    if sorted(len(a) for a in g.adj) != sorted(len(a) for a in h.adj):
        return False
    n = g.n
    mapping = [-1] * n
    used = [False] * n

    def place(v: int) -> bool:
        if v == n:
            return True
        for w in range(n):
            if used[w] or len(g.adj[v]) != len(h.adj[w]):
                continue
            ok = True
            for u in range(v):
                if g.has_edge(v, u) != h.has_edge(w, mapping[u]):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used[w] = True
                if place(v + 1):
                    return True
                used[w] = False
                mapping[v] = -1
        return False

    return place(0)


def clique_cover_identity_holds(g: Graph, i: int, j: int) -> bool:
    """Euler-style identity: summing, over all stable i-sets, the number of
    stable j-sets containing each one must give C(j,i) * s_j."""
    from math import comb

    sets = list(stable_set_masks(g))
    by_size: dict[int, list[int]] = {}
    for s in sets:
        by_size.setdefault(s.bit_count(), []).append(s)
    s_j = len(by_size.get(j, []))
    total = sum(
        sum(1 for t in by_size.get(j, []) if t & q == q) for q in by_size.get(i, [])
    )
    return total == comb(j, i) * s_j


def unpruned_graph_levels(max_n: int) -> list[tuple[Graph, ...]]:
    """Levels 1..max_n of the graph catalog by plain canonical augmentation:
    every parent is extended by all 2^n neighbourhood subsets, in
    increasing mask order, and the first candidate seen with each code is
    kept; each level is sorted by code.  Unlike the rest of this module it
    uses the package's ``canonical_code``, because it is the reference for
    the orbit pruning of ``enumerate_graphs``, not for the codes."""
    from coronapoly.canon import canonical_code

    levels = [(Graph(1),)]
    while len(levels) < max_n:
        seen: dict[bytes, Graph] = {}
        for g in levels[-1]:
            base = list(g.edges())
            for sub in range(1 << g.n):
                extra = [(i, g.n) for i in range(g.n) if (sub >> i) & 1]
                cand = Graph(g.n + 1, base + extra)
                seen.setdefault(canonical_code(cand), cand)
        levels.append(tuple(seen[c] for c in sorted(seen)))
    return levels
