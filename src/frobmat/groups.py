"""Finite groups as Cayley tables: constructors, subgroups, Frobenius partitions.

Elements are always the integers 0..order-1 and 0 is the identity; constructors
relabel their natural element sets to keep that invariant.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Collection, Iterable, Iterator, Optional, Sequence

# Largest Cayley table a constructor builds, and so the one bound on a group:
# the order of AGL(1,47), the largest group make_field_affine admits. Its
# table builds in 0.6-0.7 s at 215 MB peak RSS (2-core Xeon, CPython 3.11), so
# it fits under a 1 GB address-space limit. Checked before any table exists.
MAX_TABLE_ORDER = 2162

# Levels of products a group may nest, counted from the groups without
# factors; checked before the product is made. A product keeps its factors
# until its table is first read, about 1.1 KB a level (tracemalloc, 50,000
# trivial levels), so an unbuilt chain grows with its length.
MAX_PRODUCT_DEPTH = 300


class FiniteGroup:
    """Immutable group given by its multiplication table.

    ``rows`` is a function with no arguments returning the ``order`` rows of
    the table, ``rows()[a][b]`` the product a∘b, and ``factors`` are the
    groups whose tables it reads. It is called once, at the first read of
    ``table``: the constructors check their arguments at once and leave the
    table to its first use. ``inverse[a]`` is the inverse of a.
    ``affine_modulus`` is set only by :func:`make_field_affine`; it records the
    prime q for which elements decode as pairs (a, b) with b in GF(q)*.
    """

    affine_modulus: Optional[int] = None

    def __init__(
        self,
        order: int,
        rows: Callable[[], Iterable[Iterable[int]]],
        factors: Sequence[FiniteGroup] = (),
    ):
        self.order = order
        self._rows = rows
        self._factors = tuple(factors)
        # levels of factors below, counted from the groups without factors
        self._depth = max((f._depth + 1 for f in self._factors), default=0)

    @functools.cached_property
    def table(self) -> tuple[tuple[int, ...], ...]:
        # every unbuilt table below is built first, shallowest first, and a
        # factor is shallower than its product: so each rows function reads
        # built tables only, and a first read takes a few frames at any depth
        below: dict[FiniteGroup, None] = {}
        todo = list(self._factors)
        while todo:
            f = todo.pop()
            if "table" not in f.__dict__ and f not in below:
                below[f] = None
                todo += f._factors
        for f in sorted(below, key=lambda f: f._depth):
            f.table
        table = tuple(map(tuple, self._rows()))
        del self._rows, self._factors  # nor keep the rows, or the factors they read
        return table

    @functools.cached_property
    def inverse(self) -> tuple[int, ...]:
        return tuple(row.index(0) for row in self.table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def elements(self) -> range:
        return range(self.order)

    @functools.cached_property
    def generators(self) -> tuple[int, ...]:
        """A generating sequence, chosen greedily: each element, in index
        order, that the earlier ones do not generate joins it."""
        gens: list[int] = []
        span = [0]
        seen = {0}
        for x in range(self.order):
            if x not in seen:
                gens.append(x)
                span = _close(self.table, span, gens)
                seen = set(span)
        return tuple(gens)

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"


@dataclass(frozen=True, order=True)
class Subgroup:
    """Strictly increasing element indices, always containing 0."""

    elements: tuple[int, ...]

    def __post_init__(self):
        if not self.elements or self.elements[0] != 0:
            raise ValueError("subgroup must contain the identity 0")
        if list(self.elements) != sorted(set(self.elements)):
            raise ValueError("subgroup elements must be strictly increasing")

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, a: int) -> bool:
        return a in self.element_set

    @property
    def element_set(self) -> frozenset[int]:
        return frozenset(self.elements)


@dataclass(frozen=True)
class FrobeniusPartition:
    """A normal kernel plus a conjugation-closed family of malnormal subgroups.

    Every non-identity group element lies in exactly one of kernel or the
    complements.
    """

    kernel: Subgroup
    complements: tuple[Subgroup, ...]

    def is_nontrivial(self, group_order: int) -> bool:
        nontrivial = (self.kernel.order > 1) + sum(
            1 for a in self.complements if a.order > 1
        )
        return nontrivial >= 2 and self.kernel.order < group_order

    def describe(self) -> str:
        comp = ",".join(str(a.order) for a in self.complements) or "none"
        return f"kernel size {self.kernel.order}; complement sizes: {comp}"


@dataclass(frozen=True)
class QuotientMap:
    """Projection onto Γ/N, cosets numbered in the order of their minima."""

    source: FiniteGroup
    quotient: FiniteGroup
    projection: tuple[int, ...]


def _check_table_order(n: int) -> None:
    if n > MAX_TABLE_ORDER:
        raise ValueError(f"group order {n} exceeds the table cap {MAX_TABLE_ORDER}")


def make_cyclic(n: int) -> FiniteGroup:
    """Z/n with addition mod n."""
    if n < 1:
        raise ValueError("cyclic group order must be positive")
    _check_table_order(n)
    # row a is range(n) rotated left by a: (a + b) mod n
    return FiniteGroup(n, lambda: [[*range(a, n), *range(a)] for a in range(n)])


def make_dihedral(two_n: int) -> FiniteGroup:
    """Dihedral group of order 2n; indices 0..n-1 are r^i, n..2n-1 are r^i s.

    Multiplication uses s r = r^-1 s.
    """
    if two_n < 2 or two_n % 2:
        raise ValueError("dihedral order must be a positive even integer")
    _check_table_order(two_n)
    n = two_n // 2

    def rows() -> list[list[int]]:
        # r^i ∘ r^j s^q = r^(i+j) s^q; r^i s ∘ r^j s^q = r^(i-j) s^(1+q)
        up = [[*range(i, n), *range(i)] for i in range(n)]
        down = [[*range(i, -1, -1), *range(n - 1, i, -1)] for i in range(n)]
        return [r + [k + n for k in r] for r in up] + [[k + n for k in r] + r for r in down]

    return FiniteGroup(two_n, rows)


def make_direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """Componentwise product on pairs, indexed lexicographically."""
    return _semidirect(g1, g2, [g1.elements()] * g2.order)


def _first_difference(xs: Sequence[int], ys: Sequence[int]) -> int:
    return next(i for i, (x, y) in enumerate(zip(xs, ys)) if x != y)


def make_semidirect(
    g1: FiniteGroup, g2: FiniteGroup, action: Sequence[Sequence[int]]
) -> FiniteGroup:
    """Outer semidirect product with (a,b)∘(c,d) = (a + φ_b(c), bd).

    ``action[b]`` is the permutation φ_b of g1's elements; the family must be a
    homomorphism from g2 into Aut(g1). Pairs (a,b) get index a*|g2| + b.
    """
    phis = [tuple(p) for p in action]
    group = _semidirect(g1, g2, phis)  # the order cap first; builds no table
    if len(action) != g2.order:
        raise ValueError("action must give one permutation per element of g2")
    ident = tuple(g1.elements())
    for b, phi in enumerate(phis):
        if tuple(sorted(phi)) != ident:
            raise ValueError(f"action[{b}] is not a permutation of g1")
        if phi[0] != 0:
            raise ValueError(f"action[{b}] does not fix the identity")
        if phi == ident:
            continue  # the identity is an automorphism
        for x, row in enumerate(g1.table):
            # φ(x∘y) against φ(x)∘φ(y), for every y at once
            image = tuple(map(phi.__getitem__, row))
            product = tuple(map(g1.table[phi[x]].__getitem__, phi))
            if image != product:
                y = _first_difference(image, product)
                raise ValueError(f"action[{b}] is not an automorphism: breaks ({b},{x},{y})")
    if phis[0] != ident:
        raise ValueError("action[0] must be the identity automorphism")
    # a trivial action is a homomorphism, so a direct product reads no table
    if phis.count(ident) < len(phis):
        for b, phi in enumerate(phis):
            for d, bd in enumerate(g2.table[b]):
                if tuple(map(phi.__getitem__, phis[d])) != phis[bd]:
                    raise ValueError(f"action is not a homomorphism: breaks ({b},{d},{bd})")
    return group


def _semidirect(g1: FiniteGroup, g2: FiniteGroup, phis: Sequence[Sequence[int]]) -> FiniteGroup:
    """make_semidirect without its checks on the action, for an action that is
    a homomorphism into Aut(g1) by construction; reads no table until the
    product's is read."""
    _check_table_order(g1.order * g2.order)
    if max(g1._depth, g2._depth) >= MAX_PRODUCT_DEPTH:
        raise ValueError(f"products nest more than {MAX_PRODUCT_DEPTH} levels deep")
    n2 = g2.order

    def rows() -> list[list[int]]:
        # row (a,b): (a∘φ_b(c))*|g2| + b∘d at column c*|g2| + d
        t2 = g2.table
        scaled = [[x * n2 for x in row] for row in g1.table]
        return [[sa[c] + v for c in phi for v in rb] for sa in scaled for phi, rb in zip(phis, t2)]

    return FiniteGroup(g1.order * n2, rows, (g1, g2))


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, int(n**0.5) + 1))


def make_field_affine(q: int) -> FiniteGroup:
    """GF(q)+ ⋊ GF(q)* with (a,b)∘(c,d) = (a + bc, bd) mod q.

    The pair (a,b) with a in 0..q-1, b in 1..q-1 gets index a*(q-1) + (b-1),
    so the identity (0,1) is index 0. The order q(q-1) is checked against the
    table cap before q's primality, whose trial division takes O(sqrt q) steps.
    """
    if q >= 3:
        _check_table_order(q * (q - 1))
    if q < 3 or not is_prime(q):
        raise ValueError("field modulus must be a prime >= 3")

    # GF(q)* on 0..q-2, index b standing for the unit b + 1, acting by
    # multiplication
    units = FiniteGroup(
        q - 1, lambda: [[(b * d) % q - 1 for d in range(1, q)] for b in range(1, q)]
    )
    # b ↦ (c ↦ bc) maps GF(q)* into Aut(Z_q) homomorphically
    action = [[b * c % q for c in range(q)] for b in range(1, q)]
    group = _semidirect(make_cyclic(q), units, action)
    group.affine_modulus = q
    return group


def make_inversion_extension(g1: FiniteGroup) -> FiniteGroup:
    """g1 ⋊ {1,-1} where -1 acts by inversion; g1 must be abelian of odd order."""
    if g1.order % 2 == 0:
        raise ValueError("base group must have odd order")
    # generators that commute make the group they generate abelian
    if any(g1.mul(a, b) != g1.mul(b, a) for a in g1.generators for b in g1.generators):
        raise ValueError("base group must be abelian")
    # inversion is an automorphism of an abelian group, of order two
    return _semidirect(g1, make_cyclic(2), [g1.elements(), g1.inverse])


def from_table(table: Sequence[Sequence[int]]) -> FiniteGroup:
    """Validate an arbitrary Cayley table, relabeling so the identity is 0.

    Reports the first violated axiom: closure, associativity, identity,
    inverses.
    """
    n = len(table)
    if n == 0:
        raise ValueError("empty table")
    _check_table_order(n)
    rows = [list(r) for r in table]
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"table is not square: row {i} has length {len(row)}")
        for x in row:
            if not isinstance(x, int) or not 0 <= x < n:
                raise ValueError(f"not closed: row {i} contains {x!r}")
    # Light's test: the m with (a∘m)∘c = a∘(m∘c) for every a and c are closed
    # under ∘. So m is checked, a row per a, only if no right product of
    # checked ones reaches it; a failure is named by a scan in (a, b, c) order.
    checked: list[int] = []
    reached: set[int] = set()
    for m in range(n):
        if m in reached:
            continue
        if any(rows[row[m]] != list(map(row.__getitem__, rows[m])) for row in rows):
            for a, row in enumerate(rows):
                for b, ab in enumerate(row):
                    left, right = rows[ab], list(map(row.__getitem__, rows[b]))
                    if left != right:
                        c = _first_difference(left, right)
                        raise ValueError(f"not associative at triple ({a},{b},{c})")
        checked.append(m)
        reached, todo = set(checked), list(checked)
        for x in todo:
            new = set(map(rows[x].__getitem__, checked)) - reached
            reached |= new
            todo += new
    ident = None
    for e in range(n):
        if rows[e] == list(range(n)) and all(rows[a][e] == a for a in range(n)):
            ident = e
            break
    if ident is None:
        raise ValueError("no identity element")
    if ident != 0:
        perm = list(range(n))
        perm[0], perm[ident] = ident, 0
        rows = [[perm[rows[perm[a]][perm[b]]] for b in range(n)] for a in range(n)]
    # a right inverse in every row is two-sided: from a∘b = 0 and b∘c = 0,
    # a = a∘(b∘c) = (a∘b)∘c = c
    for a, row in enumerate(rows):
        if 0 not in row:
            raise ValueError(f"no inverse for {a}")
    return FiniteGroup(n, lambda: rows)


def _close(
    table: tuple[tuple[int, ...], ...], base: Sequence[int], gens: Sequence[int]
) -> list[int]:
    """<base, gens> for the elements ``base`` of a subgroup; ``gens`` must
    include generators of ``base``.

    The result is the union of the right cosets base·r reached from base by
    right multiplication by ``gens``: each coset representative is multiplied
    once by each generator, and a product outside every coset so far opens
    one new coset, listed in full. That is |cosets|·|gens| lookups plus one
    coset expansion per new coset. The union is closed under right
    multiplication by a generating set, hence a subgroup: b·r·g = b·(r·g)
    lies in base·(r·g), and r·g lies in a coset found. Base (0,) gives the
    orbit of 0 under the generators.
    """
    elems = list(base)
    seen = set(elems)
    reps = [0]
    for r in reps:
        row = table[r]
        for g in gens:
            c = row[g]
            if c not in seen:
                reps.append(c)
                for b in base:
                    x = table[b][c]
                    seen.add(x)
                    elems.append(x)
    return elems


def generated_subgroup(group: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    """The subgroup generated by ``gens``: the orbit of 0 under right
    multiplication by the generators.

    Each element is multiplied once by each distinct non-identity generator,
    so the cost is O(|H|·|gens|). No inverse step is needed: in a finite group
    g^-1 = g^(k-1) for k the order of g, so a set closed under products is
    closed under inverses.
    """
    return Subgroup(tuple(sorted(_close(group.table, (0,), tuple(set(gens) - {0})))))


def _check_range(group: FiniteGroup, elements: Collection[int]) -> None:
    """Raise ValueError if an element is not an index of the group."""
    low, high = min(elements, default=0), max(elements, default=0)
    if low < 0 or high >= group.order:
        bad = low if low < 0 else high
        raise ValueError(f"element {bad} out of range for a group of order {group.order}")


def is_subgroup(group: FiniteGroup, elements: Iterable[int]) -> bool:
    s = frozenset(elements)
    _check_range(group, s)
    if 0 not in s:
        return False
    return all(group.mul(a, b) in s for a in s for b in s)


def subgroups(group: FiniteGroup) -> list[Subgroup]:
    """All subgroups, sorted by (size, elements).

    Every subgroup is the join of the cyclic subgroups of its elements, so
    joining one cyclic subgroup at a time from the cyclic subgroups reaches
    them all: for found K < H and g in H - K, <K, g> is a larger subgroup of
    H. Each found subgroup, with the short generator tuple it was found by,
    is joined with the least generator g of each cyclic subgroup outside it,
    by a coset closure over the found subgroup (:func:`_close`).
    """
    table = group.table
    found = {(0,): Subgroup((0,))}
    frontier: list[tuple[Subgroup, tuple[int, ...]]] = []
    cyclic_gens = []
    for g in range(1, group.order):
        c = generated_subgroup(group, (g,))
        if c.elements not in found:
            found[c.elements] = c
            cyclic_gens.append(g)
            frontier.append((c, (g,)))
    while frontier:
        h, gens = frontier.pop()
        inside = h.element_set
        for g in cyclic_gens:
            if g in inside:
                continue
            joined = gens + (g,)
            key = tuple(sorted(_close(table, h.elements, joined)))
            if key not in found:
                k = found[key] = Subgroup(key)
                frontier.append((k, joined))
    return sorted(found.values(), key=lambda s: (s.order, s.elements))


def is_normal(group: FiniteGroup, h: Subgroup) -> bool:
    """True iff h is closed under conjugation by the group's generators.

    That is enough: g^-1·h·g has the size of h, so it is h, and a set fixed
    by conjugation by each generator is fixed by the group they generate.
    """
    _check_range(group, h.elements)
    s = h.element_set
    table, inverse = group.table, group.inverse
    return all(
        table[table[inverse[g]][a]][g] in s for g in group.generators for a in h.elements
    )


def is_malnormal(group: FiniteGroup, h: Subgroup) -> bool:
    """True iff every conjugate by an element outside h meets h only in 0."""
    _check_range(group, h.elements)
    s = h.element_set
    table, inverse = group.table, group.inverse
    for g in group.elements():
        if g in s:
            continue
        row = table[inverse[g]]
        for a in h.elements:
            if a != 0 and table[row[a]][g] in s:
                return False
    return True


def frobenius_partitions(group: FiniteGroup) -> list[FrobeniusPartition]:
    """Every partition {kernel} ∪ complements satisfying the invariants.

    Order: the whole-group partition, then (for order > 1) the trivial-kernel
    one ({0}, (G,)), then the nontrivial one if the group is a Frobenius group.

    A proper nontrivial malnormal subgroup H is a Frobenius complement, so by
    Frobenius's theorem the rest of G outside the conjugates of H, with 0, is
    a normal subgroup, the kernel; the kernel is unique and the complements
    are one conjugacy class (Isaacs, *Finite Group Theory*, 2008). So there is
    at most one nontrivial partition, and no trivial-kernel family but {G}.

    The complement is found from centralizers. For y in H − {0},
    malnormality gives C_G(y) ⊆ H, and H has a nontrivial centre, so for x
    in H − {0} the largest C_G(y) over y in C_G(x) − {0} is H itself. A
    kernel element's centralizer stays in the kernel, so for x in the kernel
    that largest centralizer lies in the kernel and is not malnormal, and
    skipping its elements skips kernel elements only. The walk over x thus
    meets a complement element unless G is not a Frobenius group, and tests
    malnormality once per distinct candidate. A Frobenius group has a
    trivial centre, since the centralizers of a kernel element and of a
    complement element meet only in 0; so the walk stops at the first
    candidate that is the whole group, at x = 1 for an abelian group.
    """
    n = group.order
    whole = Subgroup(tuple(range(n)))
    out = [FrobeniusPartition(whole, ())]
    if n > 1:
        out.append(FrobeniusPartition(Subgroup((0,)), (whole,)))
    table = group.table
    centralizers: dict[int, list[int]] = {}

    def centralizer(y: int) -> list[int]:
        if y not in centralizers:
            row = table[y]
            centralizers[y] = [g for g, r in enumerate(table) if r[y] == row[g]]
        return centralizers[y]

    seen: set[int] = set()
    for x in range(1, n):
        if x in seen:
            continue
        c = centralizer(x)
        h = c if len(c) == n else max(map(centralizer, c[1:]), key=len)
        if len(h) == n:
            break
        if is_malnormal(group, Subgroup(tuple(h))):
            out.append(_partition_from_complement(group, h))
            break
        seen.update(h)
    return out


def _conjugates(group: FiniteGroup, h: Sequence[int]) -> Iterator[list[int]]:
    """The conjugates g^-1·h·g of the subgroup ``h``, each sorted, for one g
    per right coset h·g: the elements of a coset conjugate h alike, so every
    conjugate is listed, and for a nontrivial malnormal proper h each once."""
    table, inverse = group.table, group.inverse
    done: set[int] = set()
    for g in group.elements():
        if g not in done:
            done.update(table[a][g] for a in h)
            row = table[inverse[g]]
            yield sorted(table[row[a]][g] for a in h)


def _partition_from_complement(group: FiniteGroup, h: Sequence[int]) -> FrobeniusPartition:
    """The partition whose complements are the conjugates of the proper
    malnormal subgroup ``h``. Raises ValueError unless they meet only in 0
    and leave a normal kernel, as in any group.
    """
    rest = set(range(1, group.order))
    complements = []
    for conj in _conjugates(group, h):
        if not rest.issuperset(conj[1:]):
            raise ValueError("conjugates of a malnormal subgroup overlap")
        rest.difference_update(conj[1:])
        complements.append(Subgroup(tuple(conj)))
    kernel = Subgroup((0, *sorted(rest)))
    if kernel_fault(group, kernel) is not None:
        raise ValueError("Frobenius kernel is not a normal subgroup")
    return FrobeniusPartition(kernel, tuple(sorted(complements)))


def kernel_fault(group: FiniteGroup, kernel: Subgroup) -> str | None:
    """Why ``kernel`` is no normal subgroup of the group, or None."""
    if not is_subgroup(group, kernel.elements):
        return "kernel is not a subgroup"
    if not is_normal(group, kernel):
        return "kernel is not normal"
    return None


def validate_partition(group: FiniteGroup, part: FrobeniusPartition) -> None:
    """Raise ValueError if any FrobeniusPartition invariant fails: the
    ``kernel_fault``, or else that of ``validate_complements``."""
    fault = kernel_fault(group, part.kernel)
    if fault is not None:
        raise ValueError(fault)
    validate_complements(group, part)


def validate_complements(group: FiniteGroup, part: FrobeniusPartition) -> None:
    """Raise ValueError, naming a failing complement by its elements, unless
    the complements and the kernel, taken to be a normal subgroup, partition
    the group.

    Each complement in turn must be a nontrivial malnormal subgroup meeting
    the kernel and the earlier complements only in 0. Complement 0 is tested
    for malnormality in full, and a later one only when it is no conjugate
    of complement 0. Complements that pass are conjugation-closed: they are
    Frobenius complements, one conjugacy class (see frobenius_partitions).
    """
    seen: set[int] = set()
    conjugates: set[Subgroup] = set()
    for i, a in enumerate(part.complements):
        if a.order < 2:
            raise ValueError("complements must be nontrivial")
        if not is_subgroup(group, a.elements):
            raise ValueError(f"complement {a.elements} is not a subgroup")
        if a not in conjugates and not is_malnormal(group, a):
            raise ValueError(f"complement {a.elements} is not malnormal")
        if i == 0:
            conjugates = {Subgroup(tuple(c)) for c in _conjugates(group, a.elements)}
        for e in a.elements[1:]:
            if e in seen or e in part.kernel:
                raise ValueError(f"element {e} covered twice")
            seen.add(e)
    covered = seen | part.kernel.element_set
    if covered != set(group.elements()):
        missing = sorted(set(group.elements()) - covered)
        raise ValueError(f"elements not covered: {missing}")


def quotient(group: FiniteGroup, normal: Subgroup) -> QuotientMap:
    """Quotient by a normal subgroup with coset-minimum representatives."""
    fault = kernel_fault(group, normal)
    if fault is not None:
        raise ValueError(fault)
    rep = [-1] * group.order
    for a in group.elements():
        if rep[a] >= 0:
            continue
        coset = sorted(group.mul(a, x) for x in normal.elements)
        for c in coset:
            rep[c] = coset[0]
    reps = sorted(set(rep))
    index = {r: i for i, r in enumerate(reps)}
    projection = tuple(index[rep[a]] for a in group.elements())
    qgroup = FiniteGroup(
        len(reps),
        lambda: [[projection[group.mul(x, y)] for y in reps] for x in reps],
        (group,),
    )
    return QuotientMap(group, qgroup, projection)
