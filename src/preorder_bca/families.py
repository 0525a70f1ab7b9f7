"""Generators for the studied order families and their closed-form answers.

Label conventions are fixed so fixtures and DOT output diff cleanly:

* containment: base elements are letters ``a, b, ...``; subsets render as
  ``{a,c}`` with sorted members, the empty set as ``{}``.  Ground order is
  increasing subset bitmask.
* refinement: partitions render as cells of concatenated sorted members
  joined by ``|`` (e.g. ``ab|c``), cells ordered by smallest member.  Ground
  order is the enumeration order of restricted growth strings.
* words: plain strings over ``a`` .. ``z``, so an alphabet has at most 26
  letters; ground order is by length, then lexicographic.
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
from .core import (
    MAX_GROUND,
    GroundSet,
    Preorder,
    TotalPreorder,
    mask_of,
    transitive_closure_rows,
)
from .errors import BadParameter, ParameterMismatch, TooLarge


def _ranked(ground: GroundSet, scores) -> TotalPreorder:
    """The total preorder ranking the elements by score, highest on top."""
    blocks: dict = {}
    for i, score in enumerate(scores):
        blocks[score] = blocks.get(score, 0) | 1 << i
    return TotalPreorder(ground, tuple(blocks[score] for score
                                       in sorted(blocks, reverse=True)))


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
    size = 1 << z
    rows = [mask_of(b for b in range(size) if b & ~a == 0) for a in range(size)]
    return Preorder(GroundSet(tuple(_subset_labels(z))), tuple(rows))


def cardinality_ordering(z: int) -> TotalPreorder:
    """Subsets ranked by size, larger on top; the closed-form answer paired
    with :func:`containment_order`."""
    if not 1 <= z <= 6:
        raise ParameterMismatch("cardinality ordering takes z in 1..6")
    return _ranked(GroundSet(tuple(_subset_labels(z))),
                   [m.bit_count() for m in range(1 << z)])


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
    rows = [mask_of(j for j, fine in enumerate(parts)
                    if all(any(cell <= big for big in coarse) for cell in fine))
            for coarse in parts]
    return Preorder(GroundSet(tuple(_partition_label(p) for p in parts)),
                    tuple(rows))


def cell_count_ordering(z: int) -> TotalPreorder:
    """Partitions ranked by cell count, fewer cells on top; the closed-form
    answer paired with :func:`refinement_order`."""
    if not 1 <= z <= 5:
        raise ParameterMismatch("cell-count ordering takes z in 1..5")
    parts = _partitions(z)
    return _ranked(GroundSet(tuple(_partition_label(p) for p in parts)),
                   [-len(p) for p in parts])


def _words(alphabet: int, k: int) -> list[str]:
    letters = _letters(alphabet)
    words: list[str] = []
    for length in range(1, k + 1):
        words.extend("".join(w) for w in product(letters, repeat=length))
    return words


def _check_word_params(alphabet: int, k: int) -> None:
    if alphabet < 1 or k < 1:
        raise BadParameter("alphabet size and maximum length must be positive")
    if alphabet > 26:
        raise BadParameter(f"alphabet size must be at most 26 (letters a..z), "
                           f"got {alphabet}")
    # stop counting at the cap: a large k would otherwise cost k big powers
    total = 0
    for length in range(1, k + 1):
        total += alphabet ** length
        if total > MAX_GROUND:
            raise TooLarge(f"words over {alphabet} letters up to length {k} "
                           f"exceed the cap of {MAX_GROUND} elements")


def word_prefix_order(alphabet: int, k: int) -> Preorder:
    """x >= y iff y is an initial substring of x (longer words on top)."""
    _check_word_params(alphabet, k)
    words = _words(alphabet, k)
    index = {w: i for i, w in enumerate(words)}
    rows = [mask_of(index[w[:length]] for length in range(1, len(w) + 1))
            for w in words]
    return Preorder(GroundSet(tuple(words)), tuple(rows))


def word_length_ordering(alphabet: int, k: int) -> TotalPreorder:
    """Words ranked by length, longest on top; the closed-form answer paired
    with :func:`word_prefix_order`."""
    _check_word_params(alphabet, k)
    words = _words(alphabet, k)
    return _ranked(GroundSet(tuple(words)), map(len, words))


def _grid(m: int) -> tuple[list[tuple[int, int]], GroundSet]:
    points = [(i, j) for i in range(1, m + 1) for j in range(1, m + 1)]
    return points, GroundSet(tuple(f"({i},{j})" for i, j in points))


def coordinatewise_order(m: int) -> Preorder:
    """Product order on the m-by-m grid of 1-based integer pairs."""
    if m < 1 or m * m > 64:
        raise TooLarge("grid has m^2 elements; m must be in 1..8")
    points, ground = _grid(m)
    rows = [mask_of(idx for idx, (b1, b2) in enumerate(points)
                    if a1 >= b1 and a2 >= b2)
            for a1, a2 in points]
    return Preorder(ground, tuple(rows))


def sum_ordering(m: int) -> TotalPreorder:
    """Grid points ranked by coordinate sum, larger on top; the closed-form
    answer paired with :func:`coordinatewise_order`."""
    if m < 1 or m * m > 64:
        raise ParameterMismatch("sum ordering takes m in 1..8")
    points, ground = _grid(m)
    return _ranked(ground, [i + j for i, j in points])


def _xground(n: int) -> GroundSet:
    # checked before the labels are built, so a huge n costs nothing
    if not 1 <= n <= MAX_GROUND:
        raise BadParameter(f"ground set size must be in 1..{MAX_GROUND}, "
                           f"got {n}")
    return GroundSet(tuple(f"x{i}" for i in range(1, n + 1)))


def _closure_from_covers(n: int, covers) -> Preorder:
    # covers are (upper, lower) 0-based index pairs, read after the size check
    ground = _xground(n)
    rows = [1 << i for i in range(n)]
    for i, j in covers:
        rows[i] |= 1 << j
    return Preorder(ground, tuple(transitive_closure_rows(rows)))


def _check_even(k: int) -> None:
    if k < 4 or k % 2:
        raise BadParameter("fence and crown sizes must be even and at least 4")


def fence(k: int) -> Preorder:
    """Zigzag poset x1 < x2 > x3 < x4 ... on k elements."""
    _check_even(k)
    # 0-based odd positions are tops, each above its one or two neighbours
    return _closure_from_covers(k, ((top, low) for top in range(1, k, 2)
                                    for low in (top - 1, top + 1) if low < k))


def crown(k: int) -> Preorder:
    """Bipartite poset: bottoms x1,x3,.. each below every top x2,x4,.. except
    a cyclically shifted partner."""
    _check_even(k)
    half = k // 2
    return _closure_from_covers(k, ((2 * t + 1, 2 * b)
                                    for b in range(half) for t in range(half)
                                    if t != (b + 1) % half))  # skip the partner


def chain(n: int) -> Preorder:
    """Linear order with x1 on top."""
    return _closure_from_covers(n, ((i, i + 1) for i in range(n - 1)))


def equality(n: int) -> Preorder:
    return _closure_from_covers(n, ())


def indifferent(n: int) -> Preorder:
    """The everywhere-indifferent relation."""
    ground = _xground(n)
    return Preorder(ground, (ground.full_mask,) * n)


def chain_ordering(n: int) -> TotalPreorder:
    """x1 over x2 over ... over xn; the answer paired with :func:`chain`,
    which is already total."""
    return TotalPreorder(_xground(n), tuple(1 << i for i in range(n)))


def one_block(n: int) -> TotalPreorder:
    """Every element indifferent; the answer paired with :func:`equality`
    and :func:`indifferent`."""
    ground = _xground(n)
    return TotalPreorder(ground, (ground.full_mask,))


def two_block(k: int) -> TotalPreorder:
    """Tops over bottoms; the unique maximal completion of fence and crown."""
    _check_even(k)
    ground = _xground(k)
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
