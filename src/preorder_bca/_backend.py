"""The hot kernels: the closed-form distance, the definitional menu sweep,
and the full argmin sweep over every ordered set partition of the ground set.

The package calls these names, which ``perfbench/tracer.py`` traces.

All three functions speak in strict-up-set bitmasks: ``up[x]`` has bit ``a``
set iff element ``a`` is strictly above ``x`` in the relation.  Distances
reach n * 2^n and stay exact because Python integers do not overflow.

Against a total preorder ``Q``, ``up_Q(x)`` is the set ``A`` of elements in
the blocks above x's block, so the closed form splits per element:

    d(base, Q) = const + sum_x w(x, A),
    const = sum_x 2^(n-|up(x)|-1),
    w(x, A) = 2^(n-|A|-1) - 2^(n-|up(x) ∪ A|).

A block's cost is the sum of its members' weights, which depend only on the
block and on what lies above it.  The argmin sweep prices blocks that way;
its docstring gives the costs of the leaves it prices without recursing.
"""

from __future__ import annotations


def fast_distance(n: int, up_p: tuple[int, ...], up_q: tuple[int, ...]) -> int:
    # closed form: sum_x 2^(n-|up_q(x)|-1) + 2^(n-|up_p(x)|-1) - 2^(alpha_x+1)
    total = 0
    for x in range(n):
        a = up_p[x]
        b = up_q[x]
        alpha = n - 1 - (a | b).bit_count()
        total += (1 << (n - b.bit_count() - 1)) + (1 << (n - a.bit_count() - 1)) - (2 << alpha)
    return total


def direct_distance(n: int, up_p: tuple[int, ...], up_q: tuple[int, ...]) -> int:
    # definitional sweep, regrouped per element: count menus S containing x
    # where "x maximal in S" differs between the two relations.  x is maximal
    # in S iff S meets none of x's strict dominators.
    total = 0
    full = (1 << n) - 1
    for x in range(n):
        a = up_p[x]
        b = up_q[x]
        rest = full & ~(1 << x)
        t = 0
        while True:
            if ((t & a) == 0) != ((t & b) == 0):
                total += 1
            if t == rest:
                break
            t = (t - rest) & rest
    return total


def sweep_min_distance(n: int, up_base: tuple[int, ...]):
    """Scan every ordered set partition of {0..n-1}; return the minimum
    closed-form distance to the base and all block tuples attaining it.

    A partition's distance is ``const`` plus the sum of its members'
    weights ``w(x, A)``, where ``A`` is the union of the blocks before x's
    block (see the module docstring).  Each node of the scan computes the
    weight of each remaining element once, with one popcount.  It then
    prices each child block as the cost of the block without its lowest
    member plus that member's weight; blocks are visited in increasing
    bitmask order, so that smaller block is always priced already.  The
    table of block costs belongs to the node and dies with it.

    The last block and a lone last element are leaves, priced in the loop
    instead of through a recursive call.  A lone last element ``y`` has
    every other element in ``A``, so ``|up(y) ∪ A| = n-1`` and
    ``w(y, A) = 1 - 2 = -1``.
    A rest of two elements {a, b}, with ``c`` the cost so far, is priced in
    the loop too, and only through the one leaf that can reach the minimum:

    * neither strictly above the other: {a, b} as one block, at ``c - 4``
      (a over b and b over a cost ``c - 3`` each);
    * b strictly above a: b over a, at ``c - 3`` (a over b costs ``c - 1``
      and the block ``c - 2``);
    * a strictly above b: a over b, at ``c - 3``, by symmetry.

    The two dearer leaves of a rest never tie with the minimum, because the
    cheapest leaf of the same rest undercuts them, so dropping them leaves
    the minimum, the ties and their order as a scan of every one of the
    Fubini(n) candidates would give.

    Enumeration order is depth-first with blocks drawn in increasing bitmask
    order, so the argmin list is deterministic.
    """
    const = 0
    for x in range(n):
        const += 1 << (n - up_base[x].bit_count() - 1)
    best = (n + 1) << n  # above every distance
    ties: list[tuple[int, ...]] = []
    stack: list[int] = []

    def rec(remaining: int, above: int, partial: int) -> None:
        nonlocal best, ties
        t1 = 1 << (n - above.bit_count() - 1)
        weights = []
        r = remaining
        while r:
            low = r & -r
            r ^= low
            weights.append(t1 - (2 << (n - 1 - (up_base[low.bit_length() - 1] | above).bit_count())))
        # Counting i up visits the blocks in increasing bitmask order, with
        # bit j of i standing for the j-th lowest remaining element;
        # cost[i] is partial plus the cost of block i.
        cost = [partial] * (1 << len(weights))
        i = 0
        s = 0
        while True:
            s = (s - remaining) & remaining
            if s == 0:
                break
            i += 1
            low = i & -i
            c = cost[i] = cost[i ^ low] + weights[low.bit_length() - 1]
            rest = remaining ^ s
            # rest without its lowest element: two or more left in it mean
            # three or more in rest
            b = rest & (rest - 1)
            if b & (b - 1):
                stack.append(s)
                rec(rest, above | s, c)
                stack.pop()
                continue
            # a leaf: s, then the blocks hi and lo below it (0 for none)
            hi = rest
            lo = 0
            if b:
                a = rest ^ b
                if up_base[a.bit_length() - 1] & b:
                    c -= 3
                    hi, lo = b, a
                elif up_base[b.bit_length() - 1] & a:
                    c -= 3
                    hi, lo = a, b
                else:
                    c -= 4
            elif rest:
                c -= 1
            if c <= best:
                leaf = (*stack, s, hi, lo) if lo else (*stack, s, hi) if hi else (*stack, s)
                if c < best:
                    best = c
                    ties = [leaf]
                else:
                    ties.append(leaf)

    rec((1 << n) - 1, 0, const)
    return best, ties
