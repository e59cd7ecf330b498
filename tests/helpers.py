"""Independent reference implementations used to cross-check the package.

Everything here is written in the most literal style possible (label sets,
python loops, no bitmask tricks, no imports from the package internals)
so that agreement between these helpers and the library is meaningful.
"""

from __future__ import annotations

from itertools import chain, combinations


def powerset(items):
    """All subsets of ``items`` as frozensets, smallest first."""
    items = list(items)
    return [
        frozenset(c)
        for c in chain.from_iterable(combinations(items, k) for k in range(len(items) + 1))
    ]


def naive_modular(weights, subset):
    return sum(weights.get(x, 0) for x in subset)


def naive_cut_undirected(edges, subset):
    subset = frozenset(subset)
    total = 0
    for u, v, w in edges:
        if (u in subset) != (v in subset):
            total += w
    return total


def naive_cut_directed(arcs, subset):
    subset = frozenset(subset)
    total = 0
    for u, v, w in arcs:
        if u in subset and v not in subset:
            total += w
    return total


def naive_coverage(covered_sets, subset):
    hit = set()
    for x in subset:
        hit.update(covered_sets.get(x, ()))
    return len(hit)


def naive_closure(subset, forced_in, arcs):
    """Fixpoint of adding forced-in elements and firing implications."""
    out = set(subset) | set(forced_in)
    changed = True
    while changed:
        changed = False
        for u, v in arcs:
            if u in out and v not in out:
                out.add(v)
                changed = True
    return frozenset(out)


def naive_ring_member(subset, forced_in, forced_out, arcs):
    subset = frozenset(subset)
    if not set(forced_in) <= subset:
        return False
    if subset & set(forced_out):
        return False
    return all(not (u in subset and v not in subset) for u, v in arcs)


def naive_ring_members(labels, forced_in, forced_out, arcs):
    return [
        s for s in powerset(labels) if naive_ring_member(s, forced_in, forced_out, arcs)
    ]


def naive_pairs(labels, d):
    """All ordered disjoint pairs (A, B) with both sizes at most d."""
    labels = list(labels)
    out = []
    for sa in range(min(len(labels), d) + 1):
        for a in combinations(labels, sa):
            rest = [x for x in labels if x not in a]
            for sb in range(min(len(rest), d) + 1):
                for b in combinations(rest, sb):
                    out.append((frozenset(a), frozenset(b)))
    return out


def modular_congruence_min(weights, labels, forced_in, forced_out, modulus, residue):
    """Least total weight of a set S of ``labels`` that holds ``forced_in``,
    avoids ``forced_out`` and has |S| = residue (mod modulus), or None if
    no S does.  A dynamic program over the residue of |S|, one label at a
    time, in O(n * modulus) steps, so it checks solves at any n."""
    best = {0: 0}  # residue of |S| so far -> least weight so far
    for x in labels:
        w = weights.get(x, 0)
        step = {}
        for res, value in best.items():
            moves = []
            if x not in forced_in:
                moves.append((res, value))
            if x not in forced_out:
                moves.append(((res + 1) % modulus, value + w))
            for r, v in moves:
                if r not in step or v < step[r]:
                    step[r] = v
        best = step
    return best.get(residue % modulus)


def brute_constrained_min(labels, value_fn, member_fn):
    """(optimum, list of optimal sets) over feasible subsets, None if none."""
    feasible = [s for s in powerset(labels) if member_fn(s)]
    if not feasible:
        return None, []
    best = min(value_fn(s) for s in feasible)
    return best, [s for s in feasible if value_fn(s) == best]


def inclusion_minimal(sets):
    """The inclusion-wise minimal members of a collection of frozensets."""
    out = []
    for s in sets:
        if not any(t < s for t in sets):
            out.append(s)
    return out


def card_lex_key(ground_order):
    """Sort key implementing the (cardinality, label order) tie-break."""

    def key(subset):
        idx = sorted(ground_order.index(x) for x in subset)
        return (len(idx), idx)

    return key
