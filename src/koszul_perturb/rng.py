"""Deterministic splittable randomness.

splitmix64 counter generator. A single integer seed reproduces every
suite bit-for-bit, and child streams (`split`) are independent of the
order in which sibling streams are consumed, so checks can run in any
order (or in parallel) without changing their inputs. String labels are
folded with FNV-1a — no reliance on Python's salted hash().
"""

from fractions import Fraction

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _fold_label(label) -> int:
    if isinstance(label, int):
        return _mix(label & _MASK)
    h = 0xCBF29CE484222325
    for b in str(label).encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & _MASK
    return h


class SplitRng:
    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = _mix(seed & _MASK)

    def split(self, label) -> "SplitRng":
        """Child stream keyed by (this stream, label); does not consume state."""
        child = SplitRng.__new__(SplitRng)
        child._state = _mix(self._state ^ _fold_label(label) ^ _GAMMA)
        return child

    def next64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix(self._state)

    def randint(self, lo: int, hi: int) -> int:
        # inclusive bounds; modulo bias is irrelevant at these ranges
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.next64() % (hi - lo + 1)

    def choice(self, seq):
        if not seq:
            raise ValueError("empty sequence")
        return seq[self.randint(0, len(seq) - 1)]

    def fraction(self) -> Fraction:
        """Nonzero rational p/q with 1 ≤ |p| ≤ 5 and 1 ≤ q ≤ 3."""
        num = 0
        while num == 0:
            num = self.randint(-5, 5)
        return Fraction(num, self.randint(1, 3))

    def maybe_zero_fraction(self) -> Fraction:
        """Zero one time in three, else `fraction()`."""
        if self.randint(1, 3) == 1:
            return Fraction(0)
        return self.fraction()
