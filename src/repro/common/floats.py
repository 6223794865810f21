"""Float sums whose result does not depend on the Python version."""

from __future__ import annotations

from typing import Iterable


def fold_sum(values: Iterable[float]) -> float:
    """Left-to-right sum: ``((0 + a) + b) + ...``.

    Builtin ``sum()`` compensates float sums from Python 3.12 on, so a
    total that feeds a bit-exact result must not use it.  Up to Python
    3.11 the fold equals ``sum()`` for any numbers, ints included.
    """
    total = 0
    for value in values:
        total += value
    return total
