"""The square-based pairing bijection on the naturals and its inverses.

This particular pairing is load-bearing: the whole diagonalization story
depends on the fact that for i != j there are arbitrarily large n with
pair(i, n) < pair(j, n).  A Cantor-style pairing would not do.

Because pair(a, b) lands between max(a,b)^2 and (max(a,b)+1)^2, numbers
built by nesting pairs double in bit-length per nesting level.  Nested
set codes would be astronomically large as plain ints, so a code in this
library is either an int (small) or a Big node (a hash-consed symbolic
pair).  A Big node denotes the exact same natural number the closed form
would produce; the representation is canonical, so numeric equality is
structural identity and splitting a pair is O(1).  Exactly the naturals
of at most 2048 bits are ints, which keeps isqrt calls cheap: pair makes
an int when the larger component has at most 1024 bits, canon when the
number itself has at most 2048, and the two rules agree.  pair reads each
component's bit length once (a Big's estimate, an int's bit_length), and
a negative component raises ValueError whatever its size.

The intern table of Big nodes stays for the whole process: a node
denotes a number, not what a program means, so nothing in it depends on
the library table and terms.rewind leaves it alone.
"""

from __future__ import annotations

import math

__all__ = [
    "Code", "Big", "pair", "unpair", "unpair0", "unpair1", "canon",
    "incomparable_witness", "code_value", "code_bits", "is_big",
]

# Naturals of more than this many bits stay symbolic.
_THRESHOLD_BITS = 2048
_HALF_BITS = _THRESHOLD_BITS // 2


class Big:
    """A pair code kept symbolic: denotes pair(a, b) without computing it.

    Instances are interned, one per (a, b), so == is identity for
    Big/Big and a Big never equals a small int (its value exceeds the
    materialization threshold by construction).  Comparing against a raw
    over-threshold int falls back to the exact value; canonical callers
    never hit that path (run foreign ints through canon at the boundary,
    as pair itself does for oversized components).
    """

    __slots__ = ("a", "b", "est_bits", "_hash", "_value")

    def __init__(self, a, b, est_bits: int):
        self.a = a
        self.b = b
        self.est_bits = est_bits
        # a Big child's hash read from its slot, without a Python-level __hash__ call
        self._hash = hash((a._hash if type(a) is Big else hash(a),
                           b._hash if type(b) is Big else hash(b)))
        self._value = None

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if isinstance(other, Big):
            return False  # interned: distinct instances denote distinct numbers
        if isinstance(other, int):
            # a Big exceeds the threshold; only a huge raw int could match
            if other.bit_length() <= _THRESHOLD_BITS:
                return False
            return self.value() == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"<code ~2^{self.est_bits}>"

    def value(self) -> int:
        """The denoted natural, materialized (may be enormous)."""
        if self._value is None:
            self._value = _pair_int(code_value(self.a), code_value(self.b))
        return self._value


Code = int | Big

_intern: dict[tuple, Big] = {}


def is_big(c: Code) -> bool:
    return isinstance(c, Big)


def code_bits(c: Code) -> int:
    """Upper estimate of the denoted number's bit length."""
    return c.est_bits if isinstance(c, Big) else c.bit_length()


def code_value(c: Code) -> int:
    """Materialize a code as a plain int (use sparingly on big codes)."""
    return c.value() if isinstance(c, Big) else c


def _pair_int(a: int, b: int) -> int:
    m = a if a >= b else b
    if m % 2 == 0:
        return m * (m + 1) - a + b
    return m * (m + 1) + a - b


def pair(a: Code, b: Code) -> Code:
    """Bijection N x N -> N.

    max{a,b}*(max{a,b}+1) - a + b when max{a,b} is even, and
    max{a,b}*(max{a,b}+1) + a - b when it is odd.  Always lands in
    [m*m, (m+1)*(m+1)) for m = max{a,b}.  A negative component of any
    size raises ValueError.
    """
    a_bits = a.est_bits if type(a) is Big else a.bit_length()
    b_bits = b.est_bits if type(b) is Big else b.bit_length()
    if a_bits <= _HALF_BITS and b_bits <= _HALF_BITS:
        # then pair(a, b) < (max+1)^2 <= 2^2048, canon's int range
        if a < 0 or b < 0:
            raise ValueError("pair is defined on naturals only")
        m = a if a >= b else b
        return m * (m + 1) + a - b if m & 1 else m * (m + 1) - a + b
    if (type(a) is not Big and a < 0) or (type(b) is not Big and b < 0):
        raise ValueError("pair is defined on naturals only")
    # raw ints above the threshold must enter in canonical symbolic form, or
    # one number could end up with two unequal representations or digests
    if a_bits > _THRESHOLD_BITS and type(a) is not Big:
        a = canon(a)
        a_bits = a.est_bits
    if b_bits > _THRESHOLD_BITS and type(b) is not Big:
        b = canon(b)
        b_bits = b.est_bits
    key = (a, b)
    got = _intern.get(key)
    if got is None:
        got = _intern[key] = Big(a, b, 2 * (a_bits if a_bits >= b_bits else b_bits) + 2)
    return got


def unpair(c: Code) -> tuple[Code, Code]:
    """The two-sided inverse of pair."""
    if isinstance(c, Big):
        return (c.a, c.b)
    if c < 0:
        raise ValueError("unpair is defined on naturals only")
    m = math.isqrt(c)
    r = c - m * m
    if m % 2 == 0:
        return (m, r) if r <= m else (2 * m - r, m)
    return (r, m) if r <= m else (m, 2 * m - r)


def unpair0(c: Code) -> Code:
    return unpair(c)[0]


def unpair1(c: Code) -> Code:
    return unpair(c)[1]


def canon(n: int) -> Code:
    """Canonical representation of a raw natural given as an int."""
    if n.bit_length() <= _THRESHOLD_BITS:
        return n
    a, b = unpair(n)  # one big isqrt; boundary use only
    return pair(canon(a), canon(b))


def incomparable_witness(i: int, j: int, lower: int) -> int:
    """Least n > max(lower, i, j) with pair(i, n) < pair(j, n).

    Found by direct search over the closed form.  The parity of the
    witness falls out of the arithmetic (odd n when i < j, even n when
    i > j); we never assume it, we search.
    """
    if i == j:
        raise ValueError("incomparable_witness requires i != j")
    n = max(lower, i, j) + 1
    while _pair_int(i, n) >= _pair_int(j, n):
        n += 1
    return n
