"""Sparse exact linear algebra over the rationals, run on integers.

Rows are dicts ``{column: coefficient}`` with int or Fraction entries;
anything else, floats included, raises :class:`InexactCoefficient`.  Each
row is scaled to integers once on entry, then eliminated fraction-free:
cross-multiplication with content stripping, so no rational division
happens during elimination.  The one place a ``Fraction`` is made is the
monic residual :meth:`Echelon.add` returns, and only where its lead does
not divide an entry.

Pivot rule everywhere: rows are processed in the order given and the
smallest column index of a row becomes its pivot.  This makes every
result reproducible byte for byte.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .algebra import InexactCoefficient

Row = dict[int, Fraction]
IntRow = dict[int, int]


def _integer_row(row: Row | IntRow) -> tuple[IntRow, int]:
    """The row times the lcm of its denominators, and that lcm.

    The one entry check: every coefficient must be an int or a Fraction.
    """
    denom = 1
    for v in row.values():
        if type(v) is not int:
            if not isinstance(v, (int, Fraction)):
                raise InexactCoefficient(
                    f"coefficients must be int or Fraction, not {type(v).__name__}")
            denom = lcm(denom, v.denominator)
    if denom == 1:
        return {j: v.numerator for j, v in row.items() if v}, 1
    return {j: v.numerator * (denom // v.denominator)
            for j, v in row.items() if v}, denom


def _strip_content(row: IntRow) -> IntRow:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    if g in (0, 1):
        return row
    return {j: v // g for j, v in row.items()}


def _cancel(r: IntRow, p: IntRow, c: int) -> IntRow:
    """An integer multiple of ``r`` plus one of ``p`` that is zero at ``c``,
    content stripped."""
    a, b = r[c], p[c]
    g = gcd(a, b)
    a, b = a // g, b // g
    out: IntRow = {}
    for j in r.keys() | p.keys():
        v = r.get(j, 0) * b - a * p.get(j, 0)
        if v:
            out[j] = v
    return _strip_content(out)


class IntegerEliminator:
    """Incremental fraction-free forward elimination over the integers.

    Each pivot row is content stripped with a positive lead, and has
    entries only at its lead column and beyond.
    """

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
        out = type(self)()
        out.pivots = dict(self.pivots)
        return out

    def _keep(self, r: IntRow, lead: int) -> IntRow:
        if r[lead] < 0:
            r = {j: -v for j, v in r.items()}
        self.pivots[lead] = r = _strip_content(r)
        return r

    def add(self, row: Row | IntRow) -> bool:
        """Reduce a row against the pivots; keep it if independent."""
        r = _integer_row(row)[0]
        while r:
            lead = min(r)
            p = self.pivots.get(lead)
            if p is None:
                self._keep(r, lead)
                return True
            r = _cancel(r, p, lead)
        return False


def rank(rows) -> int:
    """Rank of a sparse matrix given as an iterable of rows."""
    elim = IntegerEliminator()
    for row in rows:
        elim.add(row)
    return elim.rank


class Echelon(IntegerEliminator):
    """Incremental echelon form that reports each row's normal form.

    The pivots are those of :class:`IntegerEliminator`; :meth:`add` also
    cancels every pivot column beyond the lead.  A vector of the row space
    that is zero at every pivot column is zero, so the residual left
    modulo the row space is unique up to scale, and made monic it is the
    residual a reduced row echelon form over Fraction gives.
    """

    def add(self, row: Row | IntRow) -> Row | None:
        """Insert a row; returns its monic residual, or None if dependent.

        The residual is zero at every earlier pivot column and 1 at its
        lead; an entry is an int where the lead divides it, else a Fraction.
        """
        r = _integer_row(row)[0]
        # a pivot row has no entries before its lead, so cancelling the
        # pivot columns the row has in ascending order never reopens one
        # already cancelled; pivots the row lacks are never visited
        pivots = self.pivots
        c = min((j for j in r if j in pivots), default=None)
        while c is not None:
            r = _cancel(r, pivots[c], c)
            c = min((j for j in r if j > c and j in pivots), default=None)
        if not r:
            return None
        lead = min(r)
        r = self._keep(r, lead)
        inv = r[lead]
        return {j: v // inv if v % inv == 0 else Fraction(v, inv)
                for j, v in r.items()}


def kernel_from_columns(columns: list[Row], ncols: int) -> list[IntRow]:
    """Kernel basis of the map whose j-th basis image is ``columns[j]``.

    The columns are eliminated in order, each carrying the combination of
    columns it has become; a column that cancels to zero gives the kernel
    vector of its free column f.  Vectors come back over the column index
    space as integer rows, one per free column in ascending order, each
    supported on the columns up to f and nonzero at f.
    """
    # the combination lives on keys offset + j, above every row index
    offset = 1 + max((i for col in columns for i in col), default=-1)
    pivots: dict[int, IntRow] = {}
    out: list[IntRow] = []
    for j in range(ncols):
        r, denom = _integer_row(columns[j] if j < len(columns) else {})
        r[offset + j] = denom
        while True:
            lead = min(r)
            if lead >= offset:
                out.append({k - offset: v for k, v in r.items()})
                break
            p = pivots.get(lead)
            if p is None:
                pivots[lead] = r
                break
            r = _cancel(r, p, lead)
    return out
