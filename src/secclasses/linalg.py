"""Sparse exact linear algebra over the rationals.

Rows are dicts ``{column: coefficient}``.  Rank computations run
fraction-free: rows are scaled to integers once, then eliminated by
cross-multiplication with content stripping, so no rational division
happens during elimination.  Reduced echelon form over Fraction backs
kernel extraction and the choice of cohomology representatives.

Pivot rule everywhere: rows are processed in the order given and the
smallest column index of a row becomes its pivot.  This makes every
result reproducible byte for byte.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_ZERO = Fraction(0)

Row = dict[int, Fraction]
IntRow = dict[int, int]


def _to_integer_row(row: Row) -> IntRow:
    denom = 1
    for c in row.values():
        denom = lcm(denom, c.denominator)
    out = {}
    for j, c in row.items():
        v = int(c * denom)
        if v:
            out[j] = v
    return out


def _strip_content(row: IntRow) -> IntRow:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    if g in (0, 1):
        return row
    return {j: v // g for j, v in row.items()}


class IntegerEliminator:
    """Incremental fraction-free forward elimination over the integers."""

    def __init__(self):
        self.pivots: dict[int, IntRow] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def copy(self) -> "IntegerEliminator":
        """An eliminator that starts from the same pivots.

        ``add`` never mutates a stored pivot row, only the dict of pivots,
        so a shallow copy of that dict is enough.
        """
        out = IntegerEliminator()
        out.pivots = dict(self.pivots)
        return out

    def add(self, row: Row | IntRow) -> bool:
        """Reduce a row against the pivots; keep it if independent."""
        if any(isinstance(v, Fraction) for v in row.values()):
            r = _to_integer_row(row)  # type: ignore[arg-type]
        else:
            r = {j: v for j, v in row.items() if v}
        while r:
            lead = min(r)
            p = self.pivots.get(lead)
            if p is None:
                if r[lead] < 0:
                    r = {j: -v for j, v in r.items()}
                self.pivots[lead] = _strip_content(r)
                return True
            a, b = r[lead], p[lead]
            nxt: IntRow = {}
            for j in r.keys() | p.keys():
                v = r.get(j, 0) * b - a * p.get(j, 0)
                if v:
                    nxt[j] = v
            r = _strip_content(nxt)
        return False


def rank(rows) -> int:
    """Rank of a sparse matrix given as an iterable of rows."""
    elim = IntegerEliminator()
    for row in rows:
        elim.add(row)
    return elim.rank


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


def kernel_from_columns(columns: list[Row], ncols: int) -> list[Row]:
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
    for f in range(ncols):
        if f in pivot_set:
            continue
        vec: Row = {f: Fraction(1)}
        for c, prow in zip(pivot_cols, pivot_rows):
            v = prow.get(f)
            if v:
                vec[c] = -v
        out.append(vec)
    return out
