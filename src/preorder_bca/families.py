"""Generators for the studied order families and their closed-form answers.

Label conventions are fixed so fixtures and DOT output diff cleanly:

* containment: base elements are letters ``a, b, ...``; subsets render as
  ``{a,c}`` with sorted members, the empty set as ``{}``.  Ground order is
  increasing subset bitmask.
* refinement: partitions render as cells of concatenated sorted members
  joined by ``|`` (e.g. ``ab|c``), cells ordered by smallest member.  Ground
  order is the enumeration order of restricted growth strings.
* words: plain strings over ``a, b, ...``; ground order is by length, then
  lexicographic.
* grids: ``(i,j)`` with 1-based coordinates, row-major ground order.
* fence/crown/chain/equality/indifferent: ``x1 .. xn``.

Fence and crown follow the usual zigzag and bipartite cover patterns: the
fence alternates x1 < x2 > x3 < x4 ..., the crown puts each bottom below
every top except its partner (bottom x_{2i-1} is incomparable to top
x_{2i+2}, cyclically).  The size-6 cover edges are spelled out in the test
fixtures; prose conventions for these posets vary, so the adjacency lists
here are the contract.
"""

from __future__ import annotations

from itertools import product

from ._record import record
from .core import GroundSet, Preorder, TotalPreorder, mask_of, preorder_from_predicate
from .errors import BadParameter, ParameterMismatch, TooLarge


def _letters(z: int) -> list[str]:
    return [chr(ord("a") + i) for i in range(z)]


def _subset_labels(z: int) -> list[str]:
    letters = _letters(z)
    labels = []
    for m in range(1 << z):
        members = [letters[i] for i in range(z) if (m >> i) & 1]
        labels.append("{" + ",".join(members) + "}")
    return labels


def containment_order(z: int) -> Preorder:
    """A >= B iff A contains B, over all subsets of a z-element set."""
    if not 1 <= z <= 6:
        raise TooLarge("containment ground set is 2^z; z must be in 1..6")
    masks = {label: m for m, label in enumerate(_subset_labels(z))}
    return preorder_from_predicate(
        _subset_labels(z),
        lambda a, b: masks[b] & ~masks[a] == 0,
    )


def cardinality_ordering(z: int) -> TotalPreorder:
    """Subsets ranked by size, larger on top; the closed-form answer paired
    with :func:`containment_order`."""
    if not 1 <= z <= 6:
        raise ParameterMismatch("cardinality ordering takes z in 1..6")
    ground = GroundSet(tuple(_subset_labels(z)))
    blocks = [0] * (z + 1)
    for m in range(1 << z):
        blocks[z - m.bit_count()] |= 1 << m
    return TotalPreorder(ground, tuple(blocks))


def _partitions(z: int) -> list[tuple[frozenset[str], ...]]:
    # restricted growth strings, deterministic order
    letters = _letters(z)
    out: list[tuple[frozenset[str], ...]] = []

    def rec(i: int, cells: list[list[str]]):
        if i == z:
            out.append(tuple(frozenset(c) for c in cells))
            return
        for c in cells:
            c.append(letters[i])
            rec(i + 1, cells)
            c.pop()
        cells.append([letters[i]])
        rec(i + 1, cells)
        cells.pop()

    rec(0, [])
    return out


def _partition_label(cells) -> str:
    rendered = sorted("".join(sorted(c)) for c in cells)
    return "|".join(sorted(rendered, key=lambda s: s[0]))


def refinement_order(z: int) -> Preorder:
    """S >= T iff every cell of T sits inside a cell of S (S is coarser)."""
    if not 1 <= z <= 5:
        raise TooLarge("refinement ground set is Bell(z); z must be in 1..5")
    parts = _partitions(z)
    by_label = {_partition_label(p): p for p in parts}

    def coarser(a: str, b: str) -> bool:
        sa, tb = by_label[a], by_label[b]
        return all(any(t <= s for s in sa) for t in tb)

    return preorder_from_predicate([_partition_label(p) for p in parts], coarser)


def cell_count_ordering(z: int) -> TotalPreorder:
    """Partitions ranked by cell count, fewer cells on top; the closed-form
    answer paired with :func:`refinement_order`."""
    if not 1 <= z <= 5:
        raise ParameterMismatch("cell-count ordering takes z in 1..5")
    parts = _partitions(z)
    ground = GroundSet(tuple(_partition_label(p) for p in parts))
    blocks = [0] * z
    for i, p in enumerate(parts):
        blocks[len(p) - 1] |= 1 << i
    return TotalPreorder(ground, tuple(b for b in blocks if b))


def _words(alphabet: int, k: int) -> list[str]:
    letters = _letters(alphabet)
    words: list[str] = []
    for length in range(1, k + 1):
        words.extend("".join(w) for w in product(letters, repeat=length))
    return words


def _check_word_params(alphabet: int, k: int) -> None:
    if alphabet < 1 or k < 1:
        raise BadParameter("alphabet size and maximum length must be positive")
    total = sum(alphabet ** i for i in range(1, k + 1))
    if total > 64:
        raise TooLarge(f"word ground set has {total} elements; cap is 64")


def word_prefix_order(alphabet: int, k: int) -> Preorder:
    """x >= y iff y is an initial substring of x (longer words on top)."""
    _check_word_params(alphabet, k)
    return preorder_from_predicate(_words(alphabet, k), lambda a, b: a.startswith(b))


def word_length_ordering(alphabet: int, k: int) -> TotalPreorder:
    """Words ranked by length, longest on top; the closed-form answer paired
    with :func:`word_prefix_order`."""
    _check_word_params(alphabet, k)
    words = _words(alphabet, k)
    ground = GroundSet(tuple(words))
    blocks = [0] * k
    for i, w in enumerate(words):
        blocks[k - len(w)] |= 1 << i
    return TotalPreorder(ground, tuple(b for b in blocks if b))


def _grid_labels(m: int) -> list[str]:
    return [f"({i},{j})" for i in range(1, m + 1) for j in range(1, m + 1)]


def coordinatewise_order(m: int) -> Preorder:
    """Product order on the m-by-m grid of 1-based integer pairs."""
    if m < 1 or m * m > 64:
        raise TooLarge("grid has m^2 elements; m must be in 1..8")

    def ge(a: str, b: str) -> bool:
        a1, a2 = (int(t) for t in a.strip("()").split(","))
        b1, b2 = (int(t) for t in b.strip("()").split(","))
        return a1 >= b1 and a2 >= b2

    return preorder_from_predicate(_grid_labels(m), ge)


def sum_ordering(m: int) -> TotalPreorder:
    """Grid points ranked by coordinate sum, larger on top; the closed-form
    answer paired with :func:`coordinatewise_order`."""
    if m < 1 or m * m > 64:
        raise ParameterMismatch("sum ordering takes m in 1..8")
    labels = _grid_labels(m)
    ground = GroundSet(tuple(labels))
    blocks: dict[int, int] = {}
    for idx, label in enumerate(labels):
        i, j = (int(t) for t in label.strip("()").split(","))
        blocks.setdefault(-(i + j), 0)
        blocks[-(i + j)] |= 1 << idx
    return TotalPreorder(ground, tuple(blocks[key] for key in sorted(blocks)))


def _xlabels(n: int) -> list[str]:
    return [f"x{i}" for i in range(1, n + 1)]


def _closure_from_covers(n: int, covers: list[tuple[int, int]]) -> Preorder:
    # covers are (upper, lower) 0-based index pairs
    rows = [1 << i for i in range(n)]
    for i, j in covers:
        rows[i] |= 1 << j
    for k in range(n):
        for i in range(n):
            if (rows[i] >> k) & 1:
                rows[i] |= rows[k]
    return preorder_from_predicate(
        _xlabels(n),
        lambda a, b: (rows[int(a[1:]) - 1] >> (int(b[1:]) - 1)) & 1 == 1,
    )


def _check_even(k: int) -> None:
    if k < 4 or k % 2:
        raise BadParameter("fence and crown sizes must be even and at least 4")


def fence(k: int) -> Preorder:
    """Zigzag poset x1 < x2 > x3 < x4 ... on k elements."""
    _check_even(k)
    covers = []
    for top in range(1, k, 2):  # 0-based even positions are bottoms
        covers.append((top, top - 1))
        if top + 1 < k:
            covers.append((top, top + 1))
    return _closure_from_covers(k, covers)


def crown(k: int) -> Preorder:
    """Bipartite poset: bottoms x1,x3,.. each below every top x2,x4,.. except
    a cyclically shifted partner."""
    _check_even(k)
    half = k // 2
    covers = []
    for b in range(half):
        bottom = 2 * b
        for t in range(half):
            top = 2 * t + 1
            if t != (b + 1) % half:  # skip the partner top
                covers.append((top, bottom))
    return _closure_from_covers(k, covers)


def chain(n: int) -> Preorder:
    """Linear order with x1 on top."""
    if n < 1:
        raise BadParameter("chain size must be positive")
    return _closure_from_covers(n, [(i, i + 1) for i in range(n - 1)])


def equality(n: int) -> Preorder:
    if n < 1:
        raise BadParameter("ground set size must be positive")
    return _closure_from_covers(n, [])


def indifferent(n: int) -> Preorder:
    """The everywhere-indifferent relation."""
    if n < 1:
        raise BadParameter("ground set size must be positive")
    return preorder_from_predicate(_xlabels(n), lambda a, b: True)


def chain_ordering(n: int) -> TotalPreorder:
    """x1 over x2 over ... over xn; the answer paired with :func:`chain`,
    which is already total."""
    return TotalPreorder(GroundSet(tuple(_xlabels(n))),
                         tuple(1 << i for i in range(n)))


def one_block(n: int) -> TotalPreorder:
    """Every element indifferent; the answer paired with :func:`equality`
    and :func:`indifferent`."""
    ground = GroundSet(tuple(_xlabels(n)))
    return TotalPreorder(ground, (ground.full_mask,))


def two_block(k: int) -> TotalPreorder:
    """Tops over bottoms; the unique maximal completion of fence and crown."""
    _check_even(k)
    ground = GroundSet(tuple(_xlabels(k)))
    tops = mask_of(range(1, k, 2))
    return TotalPreorder(ground, (tops, ground.full_mask & ~tops))


# Every family by kind: its parameter names, its builder and its closed-form
# best approximation.  Both callables take the parameters in the named order.
FAMILIES = {
    "containment": (("z",), containment_order, cardinality_ordering),
    "refinement": (("z",), refinement_order, cell_count_ordering),
    "word_prefix": (("alphabet", "k"), word_prefix_order, word_length_ordering),
    "coordinatewise": (("m",), coordinatewise_order, sum_ordering),
    "fence": (("k",), fence, two_block),
    "crown": (("k",), crown, two_block),
    "chain": (("n",), chain, chain_ordering),
    "equality": (("n",), equality, one_block),
    "indifferent": (("n",), indifferent, one_block),
}


@record
class FamilySpec:
    """A family kind plus its integer parameters; builds the order and, where
    the answer has a closed form, the expected best approximation."""

    kind: str
    params: dict[str, int]

    def __post_init__(self):
        if self.kind not in FAMILIES:
            raise BadParameter(f"unknown family kind: {self.kind!r}; known "
                               f"kinds: {', '.join(FAMILIES)}")
        expected = FAMILIES[self.kind][0]
        given = tuple(sorted(self.params))
        if given != tuple(sorted(expected)):
            raise BadParameter(f"{self.kind} takes parameters {expected}, "
                               f"got {given}")
        object.__setattr__(self, "params", dict(self.params))

    def _args(self) -> list[int]:
        return [self.params[name] for name in FAMILIES[self.kind][0]]

    def build(self) -> Preorder:
        return FAMILIES[self.kind][1](*self._args())

    def expected_bca(self) -> TotalPreorder:
        """Closed-form best approximation for this family."""
        return FAMILIES[self.kind][2](*self._args())
