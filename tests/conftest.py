import random
from typing import Callable, Iterable, Optional

import pytest

from frobmat import (
    FiniteGroup,
    FrobeniusContext,
    GainGraph,
    Subgroup,
    frobenius_partitions,
    make_cyclic,
    make_dihedral,
    make_field_affine,
)
from frobmat.biased import RankOracle


@pytest.fixture(scope="session")
def d6():
    return make_dihedral(6)


@pytest.fixture(scope="session")
def d6_partitions(d6):
    return frobenius_partitions(d6)


@pytest.fixture(scope="session")
def d6_frobenius(d6, d6_partitions):
    return FrobeniusContext(d6, d6_partitions[2])


@pytest.fixture(scope="session")
def f20():
    return make_field_affine(5)


@pytest.fixture(scope="session")
def f20_frobenius(f20):
    return FrobeniusContext(f20, frobenius_partitions(f20)[2])


@pytest.fixture(scope="session")
def z2():
    return make_cyclic(2)


def random_gain_graph(group, rng: random.Random, max_vertices=4, max_edges=8):
    nv = rng.randint(2, max_vertices)
    ne = rng.randint(1, max_edges)
    triples = [
        (rng.randrange(nv), rng.randrange(nv), rng.randrange(group.order))
        for _ in range(ne)
    ]
    return GainGraph.from_triples(group, nv, triples)


class FuncOracle(RankOracle):
    """A rank oracle given by a function of frozensets, asked once per subset."""

    def __init__(self, ground: Iterable[int], fn: Callable[[frozenset[int]], int]):
        self.ground = tuple(sorted(ground))
        self._fn = fn

    def rank(self, subset: Iterable[int]) -> int:
        return self._fn(frozenset(subset))


# Group isomorphism by backtracking: an independent check of the group
# constructors and of the embedding that kernel-loop contraction uses.


def element_order(group: FiniteGroup, a: int) -> int:
    x, k = a, 1
    while x != 0:
        x = group.table[x][a]
        k += 1
    return k


def order_profile(group: FiniteGroup) -> tuple[int, ...]:
    """Sorted element orders; a cheap isomorphism fingerprint."""
    return tuple(sorted(element_order(group, a) for a in group.elements()))


def subgroup_as_group(group: FiniteGroup, sub: Subgroup) -> FiniteGroup:
    """The subgroup as a standalone FiniteGroup; element i is sub.elements[i]."""
    index = {e: i for i, e in enumerate(sub.elements)}
    table = [
        [index[group.mul(a, b)] for b in sub.elements] for a in sub.elements
    ]
    return FiniteGroup(table, labels=[group.label(e) for e in sub.elements])


def find_isomorphism(a: FiniteGroup, b: FiniteGroup) -> Optional[list[int]]:
    """An isomorphism a -> b as an image array, or None.

    Backtracks over images of a small generating sequence, propagating the
    products each choice forces.
    """
    if a.order != b.order:
        return None
    if order_profile(a) != order_profile(b):
        return None
    gens = a.generators
    by_order: dict[int, list[int]] = {}
    for y in b.elements():
        by_order.setdefault(element_order(b, y), []).append(y)

    def close(mapping: dict[int, int]) -> Optional[dict[int, int]]:
        used = set(mapping.values())
        if len(used) != len(mapping):
            return None
        work = list(mapping)
        known = list(mapping)
        while work:
            p = work.pop()
            for q in list(known):
                for (x, y) in ((p, q), (q, p)):
                    r = a.mul(x, y)
                    img = b.mul(mapping[x], mapping[y])
                    if r in mapping:
                        if mapping[r] != img:
                            return None
                    else:
                        if img in used:
                            return None
                        mapping[r] = img
                        used.add(img)
                        work.append(r)
                        known.append(r)
        return mapping

    def extend(mapping: dict[int, int], i: int) -> Optional[dict[int, int]]:
        if i == len(gens):
            return mapping if len(mapping) == a.order else None
        g = gens[i]
        if g in mapping:
            return extend(mapping, i + 1)
        for y in by_order[element_order(a, g)]:
            if y in mapping.values():
                continue
            nxt = close(dict(mapping) | {g: y})
            if nxt is None:
                continue
            res = extend(nxt, i + 1)
            if res is not None:
                return res
        return None

    full = extend({0: 0}, 0)
    if full is None:
        return None
    return [full[x] for x in a.elements()]


def is_isomorphic(a: FiniteGroup, b: FiniteGroup) -> bool:
    return find_isomorphism(a, b) is not None
