"""Seeded generators of hard bases for differential tests of the routes.

Each generator takes a seed and a size n and returns the incidence rows of a
poset on n elements (``rows[i]`` bit ``j`` set iff x_i >= x_j), reflexive and
transitively closed, drawn from ``random.Random(seed)``.  The same seed and n
always give the same rows.  Elements are placed in a shuffled order, so no
shape is tied to the element numbering.  :func:`blow_up` turns a shape's
poset into a preorder whose indifference classes have 1 to 3 elements.
"""

import random

from preorder_bca.core import transitive_closure_rows


def _closed(n: int, edges) -> list[int]:
    """Reflexive transitive closure of ``(upper, lower)`` pairs."""
    rows = [1 << i for i in range(n)]
    for upper, lower in edges:
        rows[upper] |= 1 << lower
    return transitive_closure_rows(rows)


def _order(rng: random.Random, n: int) -> list[int]:
    order = list(range(n))
    rng.shuffle(order)
    return order


def random_poset(seed: int, n: int) -> list[int]:
    """Each pair of a random linear order is an edge with probability 0.3,
    the later element above the earlier."""
    rng = random.Random(seed)
    order = _order(rng, n)
    return _closed(n, [(order[j], order[i]) for j in range(n) for i in range(j)
                       if rng.random() < 0.3])


def star_union(seed: int, n: int) -> list[int]:
    """Disjoint stars: a centre above up to 6 leaves of its own."""
    rng = random.Random(seed)
    order = _order(rng, n)
    edges = []
    while order:
        centre, leaves = order[0], order[1:1 + rng.randint(0, 6)]
        edges += [(centre, leaf) for leaf in leaves]
        order = order[1 + len(leaves):]
    return _closed(n, edges)


def forest(seed: int, n: int) -> list[int]:
    """Each node after the first hangs under a random earlier node with
    probability 0.95, and is a new root otherwise."""
    rng = random.Random(seed)
    order = _order(rng, n)
    return _closed(n, [(order[rng.randrange(k)], order[k]) for k in range(1, n)
                       if rng.random() < 0.95])


def layered(seed: int, n: int) -> list[int]:
    """Layers of 1 to 3 nodes; each node is above each node of the layer
    just below with probability 1/2."""
    rng = random.Random(seed)
    order = _order(rng, n)
    levels = []
    while order:
        size = rng.randint(1, 3)
        levels.append(order[:size])
        order = order[size:]
    return _closed(n, [(upper, lower) for above, below in zip(levels, levels[1:])
                       for upper in above for lower in below if rng.random() < 0.5])


SHAPES = {"random_poset": random_poset, "star_union": star_union,
          "forest": forest, "layered": layered}


def blow_up(shape: str, seed: int, n: int) -> list[int]:
    """A preorder on n elements with indifference classes: a poset of
    ``shape`` drawn on k points, each point replaced by a class of 1 to 3
    elements (the last class cut so the sizes sum to n); x >= y iff x's
    point is at or above y's.  Elements are placed in a shuffled order."""
    rng = random.Random(seed)
    sizes = []
    while sum(sizes) < n:
        sizes.append(min(rng.randint(1, 3), n - sum(sizes)))
    point = [p for p, size in enumerate(sizes) for _ in range(size)]
    rng.shuffle(point)
    points = SHAPES[shape](rng.randrange(2**32), len(sizes))
    return [sum(1 << y for y in range(n) if points[point[x]] >> point[y] & 1)
            for x in range(n)]
