"""Ground sets, relations, preorders, and the order-theoretic primitives.

Elements are identified by index into a :class:`GroundSet`; labels exist only
for I/O.  Subsets of the ground set are plain ``int`` bitmasks (bit ``i`` set
iff element ``i`` is a member), which keeps maxima, restriction, and layer
computations branch-free.  Ground sets are capped at 64 elements so every row
of an incidence matrix is a single machine word.

All values are immutable after construction and every operation is a pure
function, so everything here is safe to share across threads.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cached_property

from ._record import record
from .errors import (
    EmptySubset,
    GroundMismatch,
    InvalidRelation,
    NotTotal,
    ViolationError,
)

Mask = int

MAX_GROUND = 64


def mask_of(indices) -> Mask:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def iter_bits(mask: Mask) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bits_tuple(mask: Mask) -> tuple[int, ...]:
    return tuple(iter_bits(mask))


@record
class GroundSet:
    """A labelled finite set; labels must be distinct, 1 <= n <= 64."""

    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if not 1 <= len(self.labels) <= MAX_GROUND:
            raise InvalidRelation(f"ground set size must be in 1..{MAX_GROUND}, "
                                  f"got {len(self.labels)}")
        if len(set(self.labels)) != len(self.labels):
            raise InvalidRelation("ground set labels must be distinct")

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def full_mask(self) -> Mask:
        return (1 << self.n) - 1

    def index_of(self, label: str) -> int:
        return self.labels.index(label)

    def label_set(self, mask: Mask) -> tuple[str, ...]:
        return tuple(sorted(self.labels[i] for i in iter_bits(mask)))


@record
class Relation:
    """Reflexive binary relation: ``rows[i]`` bit ``j`` set iff x_i >= x_j."""

    ground: GroundSet
    rows: tuple[Mask, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        n = self.ground.n
        if len(self.rows) != n:
            raise InvalidRelation("row count does not match ground set size")
        full = self.ground.full_mask
        for i, row in enumerate(self.rows):
            if row & ~full:
                raise InvalidRelation(f"row {i} has bits outside the ground set")
            if not (row >> i) & 1:
                raise InvalidRelation(f"relation is not reflexive at element {i}")

    @property
    def n(self) -> int:
        return self.ground.n

    def holds(self, i: int, j: int) -> bool:
        return bool((self.rows[i] >> j) & 1)

    def pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.n) for j in iter_bits(self.rows[i])]


@record
class Preorder(Relation):
    """A Relation that passed reflexivity + transitivity validation.

    The constructor checks transitivity, so an invalid Preorder cannot exist;
    :func:`validate_preorder` builds one and reports every witness on failure.
    """

    def __post_init__(self):
        super().__post_init__()
        w = _transitivity_witnesses(self.rows, first_only=True)
        if w:
            raise ViolationError(w)

    @cached_property
    def cols(self) -> tuple[Mask, ...]:
        # cols[j] = weak up-set of j = {i : x_i >= x_j}
        n = self.n
        cols = [0] * n
        for i, row in enumerate(self.rows):
            bit = 1 << i
            for j in iter_bits(row):
                cols[j] |= bit
        return tuple(cols)

    @cached_property
    def strict_up(self) -> tuple[Mask, ...]:
        # strict_up[x] = {a : a > x}
        return tuple(self.cols[x] & ~self.rows[x] for x in range(self.n))

    @cached_property
    def strict_down(self) -> tuple[Mask, ...]:
        # strict_down[x] = {a : x > a}
        return tuple(self.rows[x] & ~self.cols[x] for x in range(self.n))


def _transitivity_witnesses(rows, first_only=False):
    n = len(rows)
    witnesses = []
    for i in range(n):
        reach = 0
        for j in iter_bits(rows[i]):
            reach |= rows[j]
        missing = reach & ~rows[i]
        if not missing:
            continue
        for k in iter_bits(missing):
            for j in iter_bits(rows[i]):
                if (rows[j] >> k) & 1:
                    witnesses.append(("transitivity", i, j, k))
                    break
            if first_only:
                return witnesses
    return witnesses


def relation_violations(rel: Relation) -> list[tuple]:
    """Every transitivity witness of ``rel`` (empty if it is a preorder);
    reflexivity is already the :class:`Relation` invariant."""
    return _transitivity_witnesses(rel.rows)


def validate_preorder(rel: Relation) -> Preorder:
    """Return ``rel`` as a Preorder or raise ViolationError with all witnesses."""
    try:
        return Preorder(rel.ground, rel.rows)
    except ViolationError:
        raise ViolationError(relation_violations(rel)) from None


def transitive_closure_rows(rows: list[Mask]) -> list[Mask]:
    """Warshall's transitive closure of incidence rows (a new list)."""
    n = len(rows)
    rows = list(rows)
    for k in range(n):
        bit = 1 << k
        for i in range(n):
            if rows[i] & bit:
                rows[i] |= rows[k]
    return rows


def relation_from_pairs(labels, pairs) -> Relation:
    """Reflexive relation on ``labels`` holding exactly ``pairs`` (+ diagonal).

    Pairs are (upper, lower) index tuples meaning upper >= lower.
    """
    ground = GroundSet(tuple(labels))
    rows = [1 << i for i in range(ground.n)]
    for i, j in pairs:
        rows[i] |= 1 << j
    return Relation(ground, tuple(rows))


def preorder_from_predicate(labels, weakly_above) -> Preorder:
    """Build and validate a preorder from a label-level comparator.

    ``weakly_above(a, b)`` must say whether a >= b; the result is validated,
    so a non-transitive comparator raises ViolationError.
    """
    labels = tuple(labels)
    ground = GroundSet(labels)
    rows = []
    for a in labels:
        row = 0
        for j, b in enumerate(labels):
            if weakly_above(a, b):
                row |= 1 << j
        rows.append(row)
    return validate_preorder(Relation(ground, tuple(rows)))


@record
class TotalPreorder:
    """Total preorder as an ordered partition; ``blocks[0]`` is the top class."""

    ground: GroundSet
    blocks: tuple[Mask, ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        seen = 0
        for b in self.blocks:
            if b == 0:
                raise InvalidRelation("empty block in total preorder")
            if b & seen:
                raise InvalidRelation("overlapping blocks in total preorder")
            seen |= b
        if seen != self.ground.full_mask:
            raise InvalidRelation("blocks do not partition the ground set")

    @property
    def n(self) -> int:
        return self.ground.n

    def block_sizes(self) -> tuple[int, ...]:
        return tuple(b.bit_count() for b in self.blocks)

    @cached_property
    def block_index(self) -> tuple[int, ...]:
        idx = [0] * self.n
        for pos, b in enumerate(self.blocks):
            for i in iter_bits(b):
                idx[i] = pos
        return tuple(idx)

    def holds(self, i: int, j: int) -> bool:
        return self.block_index[i] <= self.block_index[j]

    @cached_property
    def as_preorder(self) -> Preorder:
        # row of x = union of x's block and everything below it
        suffix = [0] * (len(self.blocks) + 1)
        for pos in range(len(self.blocks) - 1, -1, -1):
            suffix[pos] = suffix[pos + 1] | self.blocks[pos]
        rows = [0] * self.n
        for pos, b in enumerate(self.blocks):
            for i in iter_bits(b):
                rows[i] = suffix[pos]
        return Preorder(self.ground, tuple(rows))

    def sort_key(self) -> tuple[Mask, ...]:
        return self.blocks

    def render(self, separator: str = " > ") -> str:
        parts = []
        for b in self.blocks:
            parts.append("[" + ",".join(self.ground.label_set(b)) + "]")
        return separator.join(parts)


def _require_same_ground(p, q) -> None:
    if p.ground.labels != q.ground.labels:
        raise GroundMismatch("relations live on different ground sets")


def asymmetric_part(p: Preorder) -> tuple[Mask, ...]:
    """Strict part as raw rows; irreflexive, hence not a Relation."""
    return tuple(p.rows[i] & ~p.cols[i] for i in range(p.n))


def symmetric_part(p: Preorder) -> Relation:
    return Relation(p.ground, tuple(p.rows[i] & p.cols[i] for i in range(p.n)))


def converse(p: Preorder) -> Preorder:
    """The reversed preorder (x >= y iff y >=_p x)."""
    return Preorder(p.ground, p.cols)


def restrict(p: Preorder, members: Mask) -> Preorder:
    """Restriction of ``p`` to ``members``; labels are preserved."""
    if members == 0:
        raise EmptySubset("cannot restrict to the empty set")
    keep = bits_tuple(members)
    ground = GroundSet(tuple(p.ground.labels[i] for i in keep))
    rows = []
    for i in keep:
        row = 0
        for new_j, j in enumerate(keep):
            if (p.rows[i] >> j) & 1:
                row |= 1 << new_j
        rows.append(row)
    return Preorder(ground, tuple(rows))


def maximal_elements(p: Preorder, s: Mask) -> Mask:
    """M(S, >=): members of S strictly dominated by no member of S."""
    if s == 0:
        raise EmptySubset("maxima are defined only for nonempty menus")
    out = 0
    for x in iter_bits(s):
        if s & p.strict_up[x] == 0:
            out |= 1 << x
    return out


def maximum_elements(p: Preorder, s: Mask) -> Mask:
    """m(S, >=): members of S weakly above every member of S (may be empty)."""
    if s == 0:
        raise EmptySubset("maxima are defined only for nonempty menus")
    out = 0
    for x in iter_bits(s):
        if p.rows[x] & s == s:
            out |= 1 << x
    return out


def down_set(p: Preorder, x: int, strict: bool = False) -> Mask:
    return p.strict_down[x] if strict else p.rows[x]


def up_set(p: Preorder, x: int, strict: bool = False) -> Mask:
    return p.strict_up[x] if strict else p.cols[x]


def layers(p: Preorder) -> tuple[Mask, ...]:
    """Iterated maximal layers M_1, M_2, ... partitioning the ground set."""
    out = []
    remaining = p.ground.full_mask
    while remaining:
        m = maximal_elements(p, remaining)
        out.append(m)
        remaining &= ~m
    return tuple(out)


def incomparable_witness(p: Preorder) -> tuple[int, int] | None:
    for i in range(p.n):
        undominated = p.ground.full_mask & ~(p.rows[i] | p.cols[i])
        if undominated:
            j = (undominated & -undominated).bit_length() - 1
            return (i, j)
    return None


def is_total(p: Preorder) -> bool:
    return incomparable_witness(p) is None


def to_total(p: Preorder) -> TotalPreorder:
    """Ordered-partition form of a total preorder; blocks are its layers."""
    witness = incomparable_witness(p)
    if witness is not None:
        raise NotTotal(witness)
    return TotalPreorder(p.ground, layers(p))


def is_completion(cand: TotalPreorder, base: Preorder) -> bool:
    """True iff base >= is contained in cand >= and base > in cand >."""
    _require_same_ground(cand, base)
    crel = cand.as_preorder
    for i in range(base.n):
        if base.rows[i] & ~crel.rows[i]:
            return False
        if base.strict_down[i] & crel.cols[i]:
            return False
    return True


def indifference_classes(p: Preorder) -> tuple[Mask, ...]:
    """Symmetric-part equivalence classes, ordered by smallest member."""
    seen = 0
    classes = []
    for i in range(p.n):
        if (seen >> i) & 1:
            continue
        cls = p.rows[i] & p.cols[i]
        classes.append(cls)
        seen |= cls
    return tuple(classes)


def class_label(p: Preorder, cls: Mask) -> str:
    return ",".join(p.ground.label_set(cls))


def hasse_edges(p: Preorder) -> tuple[tuple[str, str], ...]:
    """Transitive reduction of the strict order on indifference classes.

    Edges are (upper label, lower label) pairs, sorted; class labels are the
    sorted member labels joined by commas.
    """
    classes = indifference_classes(p)
    reps = [(c & -c).bit_length() - 1 for c in classes]
    k = len(classes)
    above = [[False] * k for _ in range(k)]
    for a in range(k):
        for b in range(k):
            if a != b:
                above[a][b] = p.holds(reps[a], reps[b])
    edges = []
    for a in range(k):
        for b in range(k):
            if not above[a][b]:
                continue
            if any(above[a][c] and above[c][b] for c in range(k)):
                continue
            edges.append((class_label(p, classes[a]), class_label(p, classes[b])))
    return tuple(sorted(edges))
