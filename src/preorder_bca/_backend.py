"""The hot kernels: the closed-form distance, the definitional menu sweep,
and the full argmin sweep over every ordered set partition of the ground set.

The package calls these names, which ``perfbench/tracer.py`` traces.

All three functions speak in strict-up-set bitmasks: ``up[x]`` has bit ``a``
set iff element ``a`` is strictly above ``x`` in the relation.  Distances
reach n * 2^n and stay exact because Python integers do not overflow.
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

    Enumeration order is depth-first with blocks drawn in increasing bitmask
    order, so the argmin list is deterministic.
    """
    full = (1 << n) - 1
    const = 0
    for x in range(n):
        const += 1 << (n - up_base[x].bit_count() - 1)

    best = [None, []]
    stack: list[int] = []

    def rec(remaining: int, above: int, partial: int) -> None:
        if remaining == 0:
            d = const + partial
            if best[0] is None or d < best[0]:
                best[0] = d
                best[1] = [tuple(stack)]
            elif d == best[0]:
                best[1].append(tuple(stack))
            return
        above_bits = above.bit_count()
        t1 = 1 << (n - above_bits - 1)
        s = (0 - remaining) & remaining
        while True:
            contrib = 0
            block = s
            while block:
                x = (block & -block).bit_length() - 1
                block &= block - 1
                contrib += t1 - (2 << (n - 1 - (up_base[x] | above).bit_count()))
            stack.append(s)
            rec(remaining & ~s, above | s, partial + contrib)
            stack.pop()
            s = (s - remaining) & remaining
            if s == 0:
                break

    rec(full, 0, 0)
    return best[0], best[1]
