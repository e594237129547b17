"""Reduced row echelon form over Fraction: the reference the integer engine
of ``secclasses.linalg`` is tested against.

It shares no code with that engine.  Every row is divided by its lead and
every pivot row is kept reduced against the others, so the residual of a
row is read off in one pass and kernel vectors have a 1 in their free slot.
"""

from __future__ import annotations

from fractions import Fraction

_ZERO = Fraction(0)

Row = dict[int, Fraction]


class Echelon:
    """Incremental reduced echelon form over Fraction.

    Pivot rows are monic at their pivot column and mutually reduced, so
    reducing a vector against the accumulated rows is a single pass.
    """

    def __init__(self):
        self.pivots: dict[int, Row] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: Row) -> Row:
        """Residual of a row modulo the accumulated row space."""
        r = {j: Fraction(v) for j, v in row.items() if v}
        for c in sorted(set(r) & set(self.pivots)):
            coeff = r.get(c)
            if not coeff:
                continue
            for j, v in self.pivots[c].items():
                nv = r.get(j, _ZERO) - coeff * v
                if nv:
                    r[j] = nv
                else:
                    r.pop(j, None)
        return r

    def add(self, row: Row) -> Row | None:
        """Insert a row; returns the normalized residual, or None if dependent."""
        r = self.reduce(row)
        if not r:
            return None
        lead = min(r)
        inv = r[lead]
        r = {j: v / inv for j, v in r.items()}
        for p in self.pivots.values():
            coeff = p.get(lead)
            if coeff:
                for j, v in r.items():
                    nv = p.get(j, _ZERO) - coeff * v
                    if nv:
                        p[j] = nv
                    else:
                        p.pop(j, None)
        self.pivots[lead] = r
        return dict(r)

    def pivot_columns(self) -> list[int]:
        return sorted(self.pivots)


def rref(rows) -> tuple[list[int], list[Row]]:
    """Reduced row echelon form; returns (pivot columns, pivot rows)."""
    ech = Echelon()
    for row in rows:
        ech.add(row)
    cols = ech.pivot_columns()
    return cols, [dict(ech.pivots[c]) for c in cols]


def kernel_from_columns(columns: list[Row]) -> list[Row]:
    """Kernel basis of the map whose j-th basis image is ``columns[j]``.

    Vectors come back over the column index space, one per free column,
    in ascending free-column order, with a 1 in the free slot.
    """
    rows: dict[int, Row] = {}
    for j, col in enumerate(columns):
        for i, c in col.items():
            rows.setdefault(i, {})[j] = c
    pivot_cols, pivot_rows = rref(rows[i] for i in sorted(rows))
    pivot_set = set(pivot_cols)
    out: list[Row] = []
    for f in range(len(columns)):
        if f in pivot_set:
            continue
        vec: Row = {f: Fraction(1)}
        for c, prow in zip(pivot_cols, pivot_rows):
            v = prow.get(f)
            if v:
                vec[c] = -v
        out.append(vec)
    return out
