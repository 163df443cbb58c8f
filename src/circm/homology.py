"""Reduced chain complexes and exact reduced homology.

Boundary matrices follow the alternating-sign rule on faces with
vertices in increasing order; the basis of each dimension is the
lexicographic order of sorted vertex tuples, so matrices are
reproducible bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from typing import Sequence

from .complexes import Complex, faces
from .errors import InconsistencyError
from .fields import FieldChoice, SparseRow, rank_of_rows, rows_from_vectors


@dataclass
class ChainComplexData:
    """Ordered face bases and sparse boundary columns of a complex.

    ``bases[i]`` lists the i-faces as sorted vertex tuples; for i >= 0,
    ``boundaries[i]`` holds one column per i-face, mapping the index of
    an (i-1)-face to its +/-1 coefficient.
    """

    field: FieldChoice
    bases: dict[int, list[tuple[int, ...]]]
    boundaries: dict[int, list[SparseRow]] = dfield(default_factory=dict)

    def face_count(self, i: int) -> int:
        return len(self.bases.get(i, ()))

    def dim(self) -> int:
        return max(self.bases)


def build_chain_complex(c: Complex, field: FieldChoice) -> ChainComplexData:
    """Bases and boundary matrices of the reduced chain complex of c."""
    by_dim: dict[int, list[tuple[int, ...]]] = {-1: [()]}
    for f in faces(c):
        if f:
            by_dim.setdefault(len(f) - 1, []).append(tuple(sorted(f)))
    for i in by_dim:
        by_dim[i].sort()
    data = ChainComplexData(field=field, bases=by_dim)
    index: dict[int, dict[tuple[int, ...], int]] = {i: {t: k for k, t in enumerate(ts)} for i, ts in by_dim.items()}
    for i in range(0, c.dim() + 1):
        cols = []
        for t in by_dim[i]:
            col: SparseRow = {}
            for pos in range(len(t)):
                sub = t[:pos] + t[pos + 1 :]
                col[index[i - 1][sub]] = -1 if pos % 2 else 1
            cols.append(col)
        data.boundaries[i] = cols
    _assert_boundary_squares_to_zero(data)
    return data


def _assert_boundary_squares_to_zero(data: ChainComplexData) -> None:
    for i in sorted(data.boundaries):
        if i + 1 not in data.boundaries:
            continue
        lower = data.boundaries[i]
        for col in data.boundaries[i + 1]:
            acc: dict[int, int] = {}
            for row, coeff in col.items():
                for r2, c2 in lower[row].items():
                    acc[r2] = acc.get(r2, 0) + coeff * c2
            if any(acc.values()):
                raise InconsistencyError("boundary composition is nonzero; chain complex construction is broken")


@dataclass(frozen=True)
class BettiTable:
    """dim_k H~_i per dimension; zero outside the stored range."""

    by_dim: tuple[tuple[int, int], ...]

    def __getitem__(self, i: int) -> int:
        for d, v in self.by_dim:
            if d == i:
                return v
        return 0

    def as_dict(self) -> dict[int, int]:
        return dict(self.by_dim)


def reduced_betti(c: Complex, field: FieldChoice) -> BettiTable:
    """Exact reduced Betti numbers of c over the chosen field."""
    data = build_chain_complex(c, field)
    top = c.dim()
    ranks = {i: rank_of_rows(data.boundaries[i], field) for i in data.boundaries}
    out = []
    for i in range(-1, top + 1):
        f_i = data.face_count(i)
        h = f_i - ranks.get(i, 0) - ranks.get(i + 1, 0)
        if h < 0:
            raise InconsistencyError("negative Betti number; rank computation is broken")
        out.append((i, h))
    return BettiTable(tuple(out))


def euler_check(c: Complex, field: FieldChoice) -> bool:
    """Verify the reduced Euler characteristic identity on c.

    Always true when the engine is correct; a False return is a bug
    signal, not a property of the input.
    """
    betti = reduced_betti(c, field)
    lhs = sum((-1 if i % 2 else 1) * betti[i] for i in range(-1, c.dim() + 1))
    fvec = [0] * (c.dim() + 2)
    for f in faces(c):
        fvec[len(f)] += 1
    rhs = sum((-1) ** (k + 1) * fvec[k] for k in range(len(fvec)))
    return lhs == rhs


def kernel_rank_of(vectors: Sequence[Sequence], field: FieldChoice) -> int:
    """Rank of the subspace spanned by dense exact vectors."""
    rows = rows_from_vectors(vectors)
    return rank_of_rows(rows, field)
