"""Exact coefficient fields and sparse rank computation.

Two field kinds are supported: arbitrary-precision rationals and prime
fields GF(p).  One column reduction with pivot lookup, the standard one
of persistent homology, computes ranks over both; only its arithmetic
depends on the field.  Over Q it works on integer rows (fraction-free
cross-multiplication with gcd reduction), so no rounding ever occurs;
over GF(p) each pivot is scaled to 1 and every entry is kept mod p.
The rank it returns also names the pivots' ``lows``, which is all that
clearing (the twist of persistent homology) asks of the reduction of
the next boundary matrix up; see ``homology.reduced_betti``.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import Optional, Sequence

from .errors import Frozen

DEFAULT_PRIME = 32003
_PRIME_CAP = 1 << 61


def _is_prime(n: int) -> bool:
    # Deterministic Miller-Rabin for n < 3.3e24.
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldChoice(Frozen):
    """Coefficient field: exact rationals or GF(p)."""

    __slots__ = ("kind", "p")

    def __init__(self, kind: str, p: Optional[int] = None) -> None:
        if kind == "rational":
            if p is not None:
                raise ValueError("rational field takes no prime")
        elif kind == "gf":
            if p is None or not 2 <= p < _PRIME_CAP or not _is_prime(p):
                raise ValueError(f"GF(p) needs a prime 2 <= p < 2^61, got {p}")
        else:
            raise ValueError(f"unknown field kind {kind!r}")
        object.__setattr__(self, "kind", kind)  # "rational" | "gf"
        object.__setattr__(self, "p", p)

    def __eq__(self, other) -> bool:
        if type(other) is not FieldChoice:
            return NotImplemented
        return self.kind == other.kind and self.p == other.p

    def __hash__(self) -> int:
        return hash((self.kind, self.p))

    @staticmethod
    def rational() -> "FieldChoice":
        return FieldChoice("rational")

    @staticmethod
    def gf(p: int = DEFAULT_PRIME) -> "FieldChoice":
        return FieldChoice("gf", p)

    @staticmethod
    def parse(text: str) -> "FieldChoice":
        """Parse 'q' or 'gf:P'."""
        if text == "q":
            return FieldChoice.rational()
        if text == "gf":
            return FieldChoice.gf()
        if text.startswith("gf:"):
            return FieldChoice.gf(int(text[3:]))
        raise ValueError(f"cannot parse field {text!r}; expected 'q' or 'gf:P'")

    def __str__(self) -> str:
        return "q" if self.kind == "rational" else f"gf:{self.p}"


SparseRow = dict[int, int]


def _row_gcd_reduce(row: SparseRow) -> SparseRow:
    g = reduce(math.gcd, row.values())
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


class _Rank(int):
    """A rank, with the set ``lows`` of the columns its pivots end at."""

    lows: set[int]


def rank_of_rows(rows: list[SparseRow], field: FieldChoice) -> int:
    """Exact rank of a sparse integer matrix given as rows {col: value}.

    Each row in turn is reduced against the pivots found so far, keyed by
    their largest column ``low``: while the row is nonzero and its ``low``
    already has a pivot, that entry is cancelled.  A row reaching a new
    ``low`` becomes its pivot, and the rank is the number of pivots.  The
    int returned carries their lows as ``.lows``: each is the largest
    column of a nonzero combination of the rows, with a nonzero entry
    there over the field.  ``rows`` is left as it was.
    """
    p = field.p if field.kind == "gf" else None
    pivots: dict[int, SparseRow] = {}
    for row in rows:
        row = {c: v % p for c, v in row.items() if v % p} if p else {c: v for c, v in row.items() if v}
        while row:
            low = max(row)
            piv = pivots.get(low)
            if piv is None:
                if p and row[low] != 1:  # a boundary column's low entry is +1 until it is reduced
                    inv = pow(row[low], -1, p)
                    row = {c: v * inv % p for c, v in row.items()}
                pivots[low] = row
                break
            # Cancel the entry at low: row * a - pivot * b.  Over GF(p) the
            # pivot's entry there is 1, so a = 1 and b is the row's entry.
            # Over Q, with pv and cv the two entries and g = gcd(pv, cv),
            # a = pv/g > 0 and b = cv/g keep every entry an integer.
            a, b = 1, row[low]
            if not p:
                pv = piv[low]
                g = math.gcd(pv, b)
                a, b = (pv // g, b // g) if pv > 0 else (-pv // g, -b // g)
                if a != 1:
                    row = {c: v * a for c, v in row.items()}
            for c, v in piv.items():
                nv = row.get(c, 0) - v * b
                if p:
                    nv %= p
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
            if row and not p:
                row = _row_gcd_reduce(row)
    rank = _Rank(len(pivots))
    rank.lows = set(pivots)
    return rank


def rows_from_vectors(vectors: Sequence[Sequence]) -> list[SparseRow]:
    """Sparse integer rows from dense vectors of ints/Fractions.

    Each rational row is scaled by its common denominator, which leaves
    the rank unchanged.  Over GF(p) the denominators must not be
    divisible by p.  An entry without an exact ``numerator`` and
    ``denominator`` (a float, say) raises ``ValueError``.
    """
    if not vectors:
        return []
    length = len(vectors[0])
    rows = []
    for vec in vectors:
        if len(vec) != length:
            raise ValueError("vectors must share a common length")
        try:
            exact = [(int(x.numerator), int(x.denominator)) for x in vec]
        except AttributeError:
            raise ValueError(f"vector entries must be ints or Fractions, got {vec!r}") from None
        scale = math.lcm(*(den for _, den in exact))
        rows.append({c: num * (scale // den) for c, (num, den) in enumerate(exact) if num})
    return rows
