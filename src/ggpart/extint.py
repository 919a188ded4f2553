"""Signed-infinity sentinels for out-of-range row lookups.

They serve only `MarkedPartition.row()`, +inf left of the first entry and -inf
right of the last (the tests' definitional oracle reads them); the classifier
reads plain ints.  They compare exactly against ints and are deliberately not
numbers (no arithmetic), so a stray +inf in integer code fails fast.
"""

from __future__ import annotations


class Extended:
    __slots__ = ("_sign",)

    def __init__(self, sign: int):
        self._sign = 1 if sign > 0 else -1

    def __repr__(self) -> str:
        return "+inf" if self._sign > 0 else "-inf"

    def __eq__(self, other) -> bool:
        return isinstance(other, Extended) and other._sign == self._sign

    def __hash__(self) -> int:
        return hash(("ggpart.extint", self._sign))

    def __lt__(self, other):
        if isinstance(other, Extended):
            return self._sign < other._sign
        if isinstance(other, int):
            return self._sign < 0
        return NotImplemented

    def __le__(self, other):
        if isinstance(other, Extended):
            return self._sign <= other._sign
        if isinstance(other, int):
            return self._sign < 0
        return NotImplemented

    def __gt__(self, other):
        if isinstance(other, Extended):
            return self._sign > other._sign
        if isinstance(other, int):
            return self._sign > 0
        return NotImplemented

    def __ge__(self, other):
        if isinstance(other, Extended):
            return self._sign >= other._sign
        if isinstance(other, int):
            return self._sign > 0
        return NotImplemented


POS_INF = Extended(+1)
NEG_INF = Extended(-1)
