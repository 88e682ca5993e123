import random
from typing import Callable, Iterable

import pytest

from frobmat import (
    FrobeniusContext,
    GainGraph,
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
