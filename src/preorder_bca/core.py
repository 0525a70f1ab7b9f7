"""Ground sets, relations, preorders, and the order-theoretic primitives.

Elements are identified by index into a :class:`GroundSet`; labels exist only
for I/O.  Subsets are plain ``int`` bitmasks (bit ``i`` set iff element ``i``
is a member); ground sets are capped at 64 elements.  A preorder's
:class:`Quotient`, the strict order on its indifference classes, is computed
once; layers, Hasse edges, completions and condition (*) all read it.

All values are immutable after construction and every operation is a pure
function, so everything here is safe to share across threads.
"""

from __future__ import annotations

from collections.abc import Iterator

from ._record import lazy, record
from .errors import BadParameter, NotTotal, TooLarge, ViolationError

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


@record
class GroundSet:
    """A labelled finite set; labels must be distinct, 1 <= n <= 64."""

    labels: tuple[str, ...]

    def __post_init__(self):
        labels = self.labels
        if not isinstance(labels, (tuple, list)) or not all(isinstance(s, str) for s in labels):
            raise BadParameter("ground set labels must be a list or tuple of strings")
        object.__setattr__(self, "labels", tuple(labels))
        if not 1 <= len(self.labels) <= MAX_GROUND:
            raise BadParameter(f"ground set size must be in 1..{MAX_GROUND}, "
                               f"got {len(self.labels)}")
        if len(set(self.labels)) != len(self.labels):
            raise BadParameter("ground set labels must be distinct")

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def full_mask(self) -> Mask:
        return (1 << self.n) - 1

    def label_set(self, mask: Mask) -> tuple[str, ...]:
        return tuple(sorted(self.labels[i] for i in iter_bits(mask)))


def guard(default: int, override, n: int, what: str, unit: str = "elements") -> int:
    """A feasibility guard: ``default``, or an override that is an int (not a
    bool) of at least 0.  Refuses to run ``what`` on ``n`` ``unit`` past the
    guard: every feasibility refusal of the package is worded here."""
    limit = default if override is None else override
    if not isinstance(limit, int) or isinstance(limit, bool) or limit < 0:
        raise BadParameter(f"guard override must be a nonnegative integer, got {limit!r}")
    if n > limit:
        raise TooLarge(f"{what} on {n} {unit} exceeds the guard ({limit})")
    return limit


def _check_arguments(value, kind: type | None = None, error: type = BadParameter) -> None:
    """The package's one type check of an argument: raises ``error`` unless
    ``value`` is a ``kind``, a :class:`Preorder` unless the call names another."""
    kind = kind or Preorder
    if not isinstance(value, kind):
        what = "ground must be" if kind is GroundSet else "expected"
        raise error(f"{what} a {kind.__name__}, got {type(value).__name__}")


@record
class Relation:
    """Reflexive binary relation: ``rows[i]`` bit ``j`` set iff x_i >= x_j."""

    ground: GroundSet
    rows: tuple[Mask, ...]

    def __post_init__(self):
        _check_arguments(self.ground, GroundSet)
        rows = self.rows
        if not isinstance(rows, (tuple, list)) or not all(type(r) is int for r in rows):
            raise BadParameter("relation rows must be a list or tuple of ints")
        object.__setattr__(self, "rows", tuple(rows))
        n = self.ground.n
        if len(self.rows) != n:
            raise BadParameter("row count does not match ground set size")
        full = self.ground.full_mask
        for i, row in enumerate(self.rows):
            if row & ~full:
                raise BadParameter(f"row {i} has bits outside the ground set")
            if not (row >> i) & 1:
                raise BadParameter(f"relation is not reflexive at element {i}")

    @property
    def n(self) -> int:
        return self.ground.n

    def holds(self, i: int, j: int) -> bool:
        return bool((self.rows[i] >> j) & 1)

    def pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.n) for j in iter_bits(self.rows[i])]


@record
class Quotient:
    """The strict order a preorder induces on its indifference classes: the
    ``classes`` (element masks, by smallest member) and their ``sizes``, then,
    as masks over class indices, ``up[c]`` and ``down[c]`` (the classes
    strictly above and below class ``c``) and the maximal ``layers``, top first."""

    classes: tuple[Mask, ...]
    sizes: tuple[int, ...]
    up: tuple[Mask, ...]
    down: tuple[Mask, ...]
    layers: tuple[Mask, ...]

    def expand(self, class_mask: Mask) -> Mask:
        """The elements of the classes in ``class_mask``."""
        m = 0
        for c in iter_bits(class_mask):
            m |= self.classes[c]
        return m

    def covers(self) -> Iterator[tuple[int, int]]:
        """Class pairs (a, b), a covering b (no class strictly between)."""
        return ((a, b) for a, below in enumerate(self.down)
                for b in iter_bits(below) if not self.up[b] & below)


@record
class Preorder(Relation):
    """A Relation that passed reflexivity + transitivity validation.

    The constructor checks transitivity, so an invalid Preorder cannot exist;
    on failure it raises ViolationError with every witness.
    """

    def __post_init__(self):
        Relation.__post_init__(self)
        w = _transitivity_witnesses(self.rows)
        if w:
            raise ViolationError(w)

    @lazy
    def strict_up(self) -> tuple[Mask, ...]:
        return _strict_up(self.rows)

    @lazy
    def strict_down(self) -> tuple[Mask, ...]:
        # strict_down[x] = {a : x > a}: x's row less its column {a : a >= x}
        rows = self.rows
        return tuple(mask_of(a for a in iter_bits(row) if not (rows[a] >> x) & 1)
                     for x, row in enumerate(rows))

    @lazy
    def quotient(self) -> Quotient:
        # x heads its class when no member of the class has a smaller index
        sym = [row & ~down for row, down in zip(self.rows, self.strict_down)]
        reps = [x for x in range(self.n) if not sym[x] & ((1 << x) - 1)]
        classes = tuple(sym[x] for x in reps)
        # the classes meeting each head's strict up-set, then its down-set
        up, down = (tuple(mask_of(c for c, m in enumerate(classes) if m & strict[x])
                          for x in reps)
                    for strict in (self.strict_up, self.strict_down))
        layers, remaining = [], (1 << len(classes)) - 1
        while remaining:
            layers.append(mask_of(c for c in iter_bits(remaining) if not up[c] & remaining))
            remaining ^= layers[-1]
        return Quotient(classes, tuple(c.bit_count() for c in classes), up, down,
                        tuple(layers))


def _strict_up(rows) -> tuple[Mask, ...]:
    """strict_up[x] = {a : a > x}: x's column {a : a >= x} less its row."""
    cols = [0] * len(rows)
    for i, row in enumerate(rows):
        bit = 1 << i
        while row:
            low = row & -row
            cols[low.bit_length() - 1] |= bit
            row ^= low
    return tuple(col & ~row for row, col in zip(rows, cols))


def _transitivity_witnesses(rows):
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
    return witnesses


def validate_preorder(rel: Relation) -> Preorder:
    """Return ``rel`` as a Preorder or raise ViolationError with all witnesses."""
    _check_arguments(rel, Relation)
    return Preorder(rel.ground, rel.rows)


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


@record
class TotalPreorder(Preorder):
    """Total preorder as an ordered partition; ``blocks[0]`` is the top class.
    Its rows are computed from the blocks on first read, so the constructor
    checks only that the blocks partition the ground set."""

    ground: GroundSet
    blocks: tuple[Mask, ...]

    def __post_init__(self):
        _check_arguments(self.ground, GroundSet)
        blocks = self.blocks
        if not isinstance(blocks, (tuple, list)) or not all(type(b) is int for b in blocks):
            raise BadParameter("total preorder blocks must be a list or tuple of ints")
        object.__setattr__(self, "blocks", tuple(blocks))
        seen = 0
        for b in self.blocks:
            if b == 0:
                raise BadParameter("empty block in total preorder")
            if b & seen:
                raise BadParameter("overlapping blocks in total preorder")
            seen |= b
        if seen != self.ground.full_mask:
            raise BadParameter("blocks do not partition the ground set")

    def block_sizes(self) -> tuple[int, ...]:
        return tuple(b.bit_count() for b in self.blocks)

    @lazy
    def rows(self) -> tuple[Mask, ...]:
        # row of x = union of x's block and everything below it
        rows = [0] * self.n
        below = 0
        for b in reversed(self.blocks):
            below |= b
            for i in iter_bits(b):
                rows[i] = below
        return tuple(rows)

    def render(self, separator: str = " > ") -> str:
        return separator.join(f"[{class_label(self, b)}]" for b in self.blocks)


def _require_same_ground(p, q) -> None:
    _check_arguments(p)
    _check_arguments(q)
    if p.ground.labels != q.ground.labels:
        raise BadParameter("relations live on different ground sets")


def maximal_elements(p: Preorder, s: Mask) -> Mask:
    """M(S, >=): members of S strictly dominated by no member of S."""
    _check_arguments(p)
    if type(s) is not int or s & ~p.ground.full_mask:
        raise BadParameter(f"menu {s!r} is not a subset of the ground set")
    if s == 0:
        raise BadParameter("maxima are defined only for nonempty menus")
    out = 0
    for x in iter_bits(s):
        if s & p.strict_up[x] == 0:
            out |= 1 << x
    return out


def down_set(p: Preorder, x: int) -> Mask:
    _check_arguments(p)
    if type(x) is not int or not 0 <= x < p.n:
        raise BadParameter(f"element {x!r} is not in 0..{p.n - 1}")
    return p.rows[x]


def layers(p: Preorder) -> tuple[Mask, ...]:
    """Iterated maximal layers M_1, M_2, ... partitioning the ground set."""
    _check_arguments(p)
    q = p.quotient
    return tuple(q.expand(layer) for layer in q.layers)


def incomparable_witness(p: Preorder) -> tuple[int, int] | None:
    _check_arguments(p)
    for i in range(p.n):
        undominated = p.ground.full_mask & ~(p.rows[i] | p.strict_up[i])
        if undominated:
            j = (undominated & -undominated).bit_length() - 1
            return (i, j)
    return None


def is_total(p: Preorder) -> bool:
    return incomparable_witness(p) is None


def to_total(p: Preorder) -> TotalPreorder:
    """Ordered-partition form of a total preorder; blocks are its layers."""
    if isinstance(p, TotalPreorder):
        return p
    witness = incomparable_witness(p)
    if witness is not None:
        raise NotTotal(witness)
    return TotalPreorder(p.ground, layers(p))


def is_completion(cand: Preorder, base: Preorder) -> bool:
    """True iff base >= is contained in cand >= and base > in cand >; raises
    NotTotal when ``cand`` is not total."""
    _require_same_ground(cand, base)
    cand = to_total(cand)
    for i in range(base.n):
        if base.rows[i] & ~cand.rows[i]:
            return False
        if base.strict_down[i] & ~cand.strict_down[i]:
            return False
    return True


def class_label(p: Preorder, cls: Mask) -> str:
    return ",".join(p.ground.label_set(cls))

