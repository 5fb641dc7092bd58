"""Pareto-front utilities for the search-space exploration plots (Fig. 3a).

Points are (weighted accuracy, number of runs); both are maximized.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

Point = Tuple[float, float]


def dominates(a: Point, b: Point) -> bool:
    """True iff ``a`` is at least as good as ``b`` on both axes and strictly
    better on at least one."""
    return a[0] >= b[0] and a[1] >= b[1] and (a[0] > b[0] or a[1] > b[1])


def pareto_front(points: Sequence[Point]) -> List[Point]:
    """Non-dominated subset, sorted by ascending first coordinate."""
    front: List[Point] = []
    for p in points:
        if any(dominates(q, p) for q in points if q != p):
            continue
        if p not in front:
            front.append(p)
    return sorted(front)
