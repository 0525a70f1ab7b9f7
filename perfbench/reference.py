"""Seeded input generation and the benchmark's own reference arithmetic.

Nothing here calls into the package: inputs are plain row bitmasks
(``rows[i]`` bit ``j`` set iff element i is weakly above element j), and the
helpers used to check answers (canonical layers, index, closed-form distance,
completion count) are written out from their definitions so that a defect in
the package cannot hide behind the same defect in its checker.
"""

from __future__ import annotations

import functools
import math
import random


def closure(rows: list[int]) -> tuple[int, ...]:
    """Reflexive-transitive closure of row bitmasks."""
    n = len(rows)
    rows = [r | (1 << i) for i, r in enumerate(rows)]
    for k in range(n):
        for i in range(n):
            if (rows[i] >> k) & 1:
                rows[i] |= rows[k]
    return tuple(rows)


def random_rows(rng: random.Random, n: int, density: float,
                partial_order: bool) -> tuple[int, ...]:
    """Closure of random pairs.  With ``partial_order`` the pairs follow a
    random linear order, so no two elements end up indifferent."""
    rows = [0] * n
    if partial_order:
        perm = list(range(n))
        rng.shuffle(perm)
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < density:
                    rows[perm[a]] |= 1 << perm[b]
    else:
        for i in range(n):
            for j in range(n):
                if i != j and rng.random() < density:
                    rows[i] |= 1 << j
    return closure(rows)


def strict_up(rows) -> list[int]:
    """strict_up[x] = elements strictly above x."""
    n = len(rows)
    return [sum(1 << a for a in range(n)
                if (rows[a] >> x) & 1 and not (rows[x] >> a) & 1)
            for x in range(n)]


def classes(rows) -> list[int]:
    """Indifference classes as masks, in order of their smallest member."""
    n = len(rows)
    seen = 0
    out = []
    for x in range(n):
        if (seen >> x) & 1:
            continue
        cls = sum(1 << y for y in range(n)
                  if (rows[x] >> y) & 1 and (rows[y] >> x) & 1)
        seen |= cls
        out.append(cls)
    return out


def completion_count(rows) -> int:
    """Number of total preorders that contain the relation: ordered
    partitions of the indifference classes in which every class enters
    after all classes strictly above it."""
    cls = classes(rows)
    k = len(cls)
    reps = [(c & -c).bit_length() - 1 for c in cls]
    above = [sum(1 << b for b in range(k)
                 if b != a and (rows[reps[b]] >> reps[a]) & 1
                 and not (rows[reps[a]] >> reps[b]) & 1)
             for a in range(k)]
    memo = {0: 1}

    def count(remaining: int) -> int:
        if remaining in memo:
            return memo[remaining]
        free = sum(1 << c for c in range(k)
                   if (remaining >> c) & 1 and above[c] & remaining == 0)
        total = 0
        s = free
        while s:
            total += count(remaining & ~s)
            s = (s - 1) & free
        memo[remaining] = total
        return total

    return count((1 << k) - 1)


def canonical_blocks(rows) -> tuple[int, ...]:
    """Iterated maximal layers, top first."""
    up = strict_up(rows)
    remaining = (1 << len(rows)) - 1
    blocks = []
    while remaining:
        top = sum(1 << x for x in range(len(rows))
                  if (remaining >> x) & 1 and up[x] & remaining == 0)
        blocks.append(top)
        remaining &= ~top
    return tuple(blocks)


def index_of_blocks(blocks) -> int:
    """Index of a total preorder: each member of a block scores 2 to the
    number of elements in its block and below."""
    total = 0
    below = sum(b.bit_count() for b in blocks)
    for b in blocks:
        total += b.bit_count() << below
        below -= b.bit_count()
    return total


def rows_of_blocks(n: int, blocks) -> tuple[int, ...]:
    rows = [0] * n
    below = 0
    for b in reversed(blocks):
        below |= b
        for x in range(n):
            if (b >> x) & 1:
                rows[x] = below
    return tuple(rows)


def distance(rows_p, rows_q) -> int:
    """Top-difference distance in closed form: the sum over x of
    2^(n-|up_q(x)|-1) + 2^(n-|up_p(x)|-1) - 2^(n-|up_p(x) | up_q(x)|)."""
    n = len(rows_p)
    up_p = strict_up(rows_p)
    up_q = strict_up(rows_q)
    total = 0
    for x in range(n):
        total += ((1 << (n - up_q[x].bit_count() - 1))
                  + (1 << (n - up_p[x].bit_count() - 1))
                  - (1 << (n - (up_p[x] | up_q[x]).bit_count())))
    return total


def _star_pairs(rows):
    """(S, Y) for every nonempty proper subset S of every canonical layer of
    two or more elements, Y being the elements strictly below a member of S
    and below no other member of the layer."""
    n = len(rows)
    up = strict_up(rows)
    down = [sum(1 << b for b in range(n) if (up[b] >> a) & 1) for a in range(n)]
    for layer in canonical_blocks(rows):
        members = [x for x in range(n) if (layer >> x) & 1]
        for pick in range(1, (1 << len(members)) - 1):
            chosen = sum(1 << x for i, x in enumerate(members) if (pick >> i) & 1)
            below = 0
            for x in members:
                if (chosen >> x) & 1:
                    below |= down[x]
            for x in members:
                if not (chosen >> x) & 1:
                    below &= ~down[x]
            yield chosen, below


def star_subsets(rows) -> tuple[int, int]:
    """Condition (*) work: the number of layer subsets S, and how many of
    them have a nonempty Y."""
    subsets = nonempty = 0
    for _, below in _star_pairs(rows):
        subsets += 1
        nonempty += below != 0
    return subsets, nonempty


def max_index(rows, members: int) -> int:
    """Index of the relation restricted to ``members``: the largest index of
    a total preorder containing it, by a search over what is left to place
    (each step places a nonempty union of classes whose strict dominators
    are all placed already)."""
    up = strict_up(rows)
    cls = [c & members for c in classes(rows) if c & members]
    above = [sum(1 << b for b in range(len(cls))
                 if up[(cls[a] & -cls[a]).bit_length() - 1] & cls[b])
             for a in range(len(cls))]
    memo = {0: 0}

    def best(remaining: int) -> int:
        if remaining in memo:
            return memo[remaining]
        size = sum(cls[c].bit_count() for c in range(len(cls)) if (remaining >> c) & 1)
        free = sum(1 << c for c in range(len(cls))
                   if (remaining >> c) & 1 and above[c] & remaining == 0)
        top = 0
        s = free
        while s:
            placed = sum(cls[c].bit_count() for c in range(len(cls)) if (s >> c) & 1)
            top = max(top, (placed << size) + best(remaining & ~s))
            s = (s - 1) & free
        memo[remaining] = top
        return top

    return best((1 << len(cls)) - 1)


def star_verdict(rows) -> str:
    """Condition (*): "fails" if the index of some Y exceeds 2^(|S|+|Y|),
    else "weak" if one reaches it, else "strict"."""
    verdict = "strict"
    for chosen, below in _star_pairs(rows):
        if below:
            value = max_index(rows, below)
            bound = 1 << (chosen.bit_count() + below.bit_count())
            if value > bound:
                return "fails"
            if value == bound:
                verdict = "weak"
    return verdict


@functools.cache
def fubini(n: int) -> int:
    """Number of ordered set partitions of n elements."""
    f = [1]
    for m in range(1, n + 1):
        f.append(sum(math.comb(m, k) * f[m - k] for k in range(1, m + 1)))
    return f[n]


def permute_mask(mask: int, perm) -> int:
    """The mask with element i renamed to perm[i]."""
    return sum(1 << perm[i] for i in range(len(perm)) if (mask >> i) & 1)


def permute_rows(rows, perm) -> tuple[int, ...]:
    """The same relation with element i renamed to perm[i]."""
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        out[perm[i]] = permute_mask(row, perm)
    return tuple(out)


def sample_rows(rng: random.Random, n: int, densities, partial_order: bool,
                min_completions: int, max_completions: int) -> tuple[int, ...]:
    """Draw random relations until one has a completion count in the band.

    The band keeps every input of a size class at a similar cost for the
    completion-based routes.  The draw is deterministic in ``rng``.
    """
    for _ in range(10_000):
        rows = random_rows(rng, n, rng.choice(densities), partial_order)
        if min_completions <= completion_count(rows) <= max_completions:
            return rows
    raise RuntimeError(f"no relation on {n} elements with "
                       f"{min_completions}..{max_completions} completions")
