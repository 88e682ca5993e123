"""Finite-field incidence matrices for gain graphs over GF(q)+ ⋊ GF(q)*.

Columns follow edge id order; rows are the extra row (index 0) then the
vertices. Entries are reduced residues mod q.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .biased import EXHAUSTIVE_LIMIT, RankOracle, first_disagreement, subset_sweep
from .gaingraph import Edge, GainGraph, apply_switching
from .groups import FiniteGroup
from .lifts import FrobeniusContext, LiftedMatroid

# Most entries incidence_matrix builds, counting an edgeless graph's rows as
# one column; checked before the first row exists. K_4 over AGL(1,47), the
# largest group, needs 5 x 12972.
MAX_MATRIX_ENTRIES = 2_000_000


@dataclass(frozen=True)
class AffinePair:
    """An element a + bx of the affine group over GF(q); b is never 0."""

    a: int
    b: int

    def __post_init__(self):
        if self.b == 0:
            raise ValueError("the multiplier of an affine pair cannot be 0")


def affine_modulus(group: FiniteGroup) -> int:
    q = group.affine_modulus
    if q is None:
        raise ValueError("group was not built by make_field_affine")
    return q


def affine_pair(group: FiniteGroup, element: int) -> AffinePair:
    q = affine_modulus(group)
    a, b = divmod(element, q - 1)
    return AffinePair(a, b + 1)


def affine_index(group: FiniteGroup, a: int, b: int) -> int:
    q = affine_modulus(group)
    if not 0 < b % q:
        raise ValueError("multiplier must be nonzero mod q")
    return (a % q) * (q - 1) + (b % q) - 1


@dataclass(frozen=True)
class FieldMatrix:
    """Dense matrix over the prime field GF(q), row-major reduced entries."""

    q: int
    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    @classmethod
    def build(cls, q: int, data: Sequence[Sequence[int]]) -> "FieldMatrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        ent = []
        for row in data:
            if len(row) != cols:
                raise ValueError("ragged matrix")
            ent.append(tuple(x % q for x in row))
        return cls(q, rows, cols, tuple(ent))

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def to_text(self) -> str:
        lines = [f"{self.q} {self.rows} {self.cols}"]
        if self.cols:
            lines.extend(" ".join(str(x) for x in row) for row in self.entries)
        return "\n".join(lines) + "\n"


def incidence_matrix(g: GainGraph) -> FieldMatrix:
    """(|V|+1) x |E| matrix over GF(q) for an affine-group gain graph.

    A non-loop v->w with gain (a, b) gets a in row 0, 1 at v, -b at w; a loop
    gets a in row 0 and 1-b at its vertex.
    """
    q = affine_modulus(g.group)
    rows, cols = g.vertex_count + 1, len(g.edges)
    if rows * max(cols, 1) > MAX_MATRIX_ENTRIES:
        raise ValueError(
            f"a {rows} x {cols} incidence matrix is above the cap of "
            f"{MAX_MATRIX_ENTRIES} entries"
        )
    edges = sorted(g.edges, key=lambda e: e.id)
    data = [[0] * cols for _ in range(rows)]
    for j, e in enumerate(edges):
        pair = affine_pair(g.group, e.gain)
        data[0][j] = pair.a
        if e.is_loop:
            data[1 + e.tail][j] = 1 - pair.b
        else:
            data[1 + e.tail][j] = 1
            data[1 + e.head][j] = -pair.b
    return FieldMatrix.build(q, data)


def matrix_rank_gf(m: FieldMatrix, columns: Optional[Iterable[int]] = None) -> int:
    """Rank of (a column subset of) the matrix by Gaussian elimination mod q."""
    cols = sorted(columns) if columns is not None else list(range(m.cols))
    q = m.q
    work = [[m.entries[i][j] for j in cols] for i in range(m.rows)]
    rank = 0
    for c in range(len(cols)):
        pivot = next((i for i in range(rank, m.rows) if work[i][c] % q), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][c], q - 2, q)
        work[rank] = [(x * inv) % q for x in work[rank]]
        for i in range(m.rows):
            if i != rank and work[i][c] % q:
                f = work[i][c]
                work[i] = [(x - f * y) % q for x, y in zip(work[i], work[rank])]
        rank += 1
        if rank == m.rows:
            break
    return rank


class VectorOracle(RankOracle):
    """Rank oracle of a column matroid; ground ids are column indices."""

    incremental = True

    def __init__(self, matrix: FieldMatrix, ids: Optional[Sequence[int]] = None):
        self.matrix = matrix
        ids = list(ids) if ids is not None else list(range(matrix.cols))
        if len(ids) != matrix.cols:
            raise ValueError("one ground id per column required")
        self._col_of = {eid: j for j, eid in enumerate(ids)}
        self.ground = tuple(sorted(ids))

    def rank(self, subset: Iterable[int]) -> int:
        return matrix_rank_gf(self.matrix, [self._col_of[i] for i in subset])

    def walk(self):
        """The state is a basis of the columns so far, in echelon form: a
        tuple of (pivot, row), each row scaled to 1 at its pivot and zero at
        the pivots of the rows before it. A step reduces one column against
        the rows in order and appends what is left, if anything."""
        q = self.matrix.q
        columns = {eid: self.matrix.column(j) for eid, j in self._col_of.items()}
        inverse = [0] + [pow(x, q - 2, q) for x in range(1, q)]

        def step(basis: tuple, eid: int, last: bool):
            col = columns[eid]
            for p, row in basis:
                f = col[p]
                if f:
                    col = [(x - f * y) % q for x, y in zip(col, row)]
            pivot = next((i for i, x in enumerate(col) if x), None)
            if pivot is None:
                return basis, len(basis)
            c = inverse[col[pivot]]
            basis += ((pivot, tuple(x * c % q for x in col)),)
            return basis, len(basis)

        return (), 0, step


# Random subsets verify_representation compares above EXHAUSTIVE_LIMIT edges
SAMPLES = 2000


def verify_representation(ctx: FrobeniusContext, g: GainGraph, seed: int = 0):
    """Compare matrix rank and matroid rank on all (or sampled) subsets.

    Returns (True, None) or (False, witness subset).
    """
    matrix = incidence_matrix(g)
    ids = sorted(e.id for e in g.edges)
    vec = VectorOracle(matrix, ids)
    m = LiftedMatroid(ctx, g)
    sample = None
    if len(ids) > EXHAUSTIVE_LIMIT:
        sample = subset_sweep(ids, SAMPLES, random.Random(seed))
    bad = first_disagreement(vec, m, sample)
    return bad is None, bad


def scale_gains(g: GainGraph, c: int) -> GainGraph:
    """Replace every gain (a, b) by (ac, b)."""
    q = affine_modulus(g.group)
    if c % q == 0:
        raise ValueError("scale factor must be nonzero mod q")
    out = []
    for e in g.edges:
        pair = affine_pair(g.group, e.gain)
        out.append(Edge(e.id, e.tail, e.head, affine_index(g.group, pair.a * c, pair.b)))
    return g.with_edges(out)


def switching_projective_check(g: GainGraph, eta: Sequence[int]) -> bool:
    """Row/column operations turn A(D, psi) into A(D, switched psi) exactly.

    Per switched vertex v with value (c, d): add -c times row v to row 0,
    multiply row v by d, then scale by d^-1 the columns of loops at v and of
    non-loops oriented away from v.
    """
    q = affine_modulus(g.group)
    rows = [list(row) for row in incidence_matrix(g).entries]
    tails = [e.tail for e in sorted(g.edges, key=lambda e: e.id)]
    for v, el in enumerate(eta):
        pair = affine_pair(g.group, el)
        if pair.a == 0 and pair.b == 1:
            continue
        c, d = pair.a, pair.b
        rows[0] = [(x - c * y) % q for x, y in zip(rows[0], rows[1 + v])]
        rows[1 + v] = [x * d % q for x in rows[1 + v]]
        dinv = pow(d, q - 2, q)
        for j, tail in enumerate(tails):
            if tail == v:
                for row in rows:
                    row[j] = row[j] * dinv % q
    return FieldMatrix.build(q, rows) == incidence_matrix(apply_switching(g, eta))
