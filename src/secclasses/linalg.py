"""Sparse exact linear algebra over the rationals, run on integers.

Rows are dicts ``{column: coefficient}``.  One elimination core, on rows
of nonzero Python ints, has two kinds of entry:

* the checked entries, :func:`rank`, :meth:`IntegerEliminator.add`,
  :meth:`IntegerEliminator.independent`, :meth:`Echelon.add` and
  :func:`kernel_from_columns`, take int or Fraction entries; anything
  else, floats included, raises :class:`InexactCoefficient`.  The one
  entry check, :func:`_integer_row`, scales each row to integers once, in
  a new dict;
* the trusted entries, :func:`_rank_int` and
  :meth:`IntegerEliminator._add_int`, take rows that are already dicts of
  nonzero ints and skip both the check and the copy.  Only the package
  calls them, on the columns of ``dga._Layout``, which clears the
  denominators of d by one scale and so gives ints on every complex.

Elimination is fraction-free: cross-multiplication with content
stripping, or a plain r - a p where the pivot's lead is 1, so no rational
division happens.  The core never mutates a row it is given, nor a
stored pivot: every changed row is a new dict.  So a trusted row may be
stored as a pivot and still be read by its caller, as ``dga.cohomology``
reads the image rows it ranked again for the representatives.  The one
place a ``Fraction`` is made is the monic residual :meth:`Echelon.add`
returns, and only where its lead does not divide an entry.

Pivot rule everywhere, kernels included: rows are processed in the order
given, the smallest column index of a row becomes its pivot, and
:func:`_keep` stores it content stripped with a positive lead.  This
makes every result reproducible byte for byte.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .algebra import InexactCoefficient

Row = dict[int, Fraction]
IntRow = dict[int, int]


def _integer_row(row: Row | IntRow) -> tuple[IntRow, int]:
    """The row times the lcm of its denominators, as a new dict, and that lcm.

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
    """A new row, an integer multiple of ``r`` plus one of ``p`` that is
    zero at ``c``, content stripped."""
    a, b = r[c], p[c]
    if b == 1:
        # r - a p: no gcd, and r needs no scaling
        out = dict(r)
        for j, v in p.items():
            if w := out.get(j, 0) - a * v:
                out[j] = w
            else:
                del out[j]
        return _strip_content(out)
    g = gcd(a, b)
    a, b = a // g, b // g
    out: IntRow = {}
    for j in r.keys() | p.keys():
        v = r.get(j, 0) * b - a * p.get(j, 0)
        if v:
            out[j] = v
    return _strip_content(out)


def _reduce(pivots: dict[int, IntRow], r: IntRow) -> IntRow:
    """``r`` forward reduced until its lead is no pivot column: empty iff
    ``r`` lies in the span of the pivots."""
    while r:
        lead = min(r)
        p = pivots.get(lead)
        if p is None:
            break
        r = _cancel(r, p, lead)
    return r


def _keep(pivots: dict[int, IntRow], r: IntRow, lead: int) -> IntRow:
    """Store the row ``r``, content stripped with a positive lead, as the
    pivot of its lead column, and return the stored row."""
    if r[lead] < 0:
        r = {j: -v for j, v in r.items()}
    if r[lead] != 1:  # a lead of 1 leaves no content to strip
        r = _strip_content(r)
    pivots[lead] = r
    return r


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

    def add(self, row: Row | IntRow) -> bool:
        """Reduce a row against the pivots; keep it if independent."""
        return self._add_int(_integer_row(row)[0])

    def _add_int(self, r: IntRow) -> bool:
        """:meth:`add` for a trusted row of nonzero ints, which may be
        stored as it is."""
        if r := _reduce(self.pivots, r):
            _keep(self.pivots, r, min(r))
            return True
        return False

    def independent(self, row: Row | IntRow) -> bool:
        """Whether a row lies outside the span of the pivots; keeps nothing."""
        return bool(_reduce(self.pivots, _integer_row(row)[0]))


def _rank_int(rows) -> int:
    """:func:`rank` for trusted rows of nonzero ints."""
    pivots: dict[int, IntRow] = {}
    for r in rows:
        # _reduce inlined: a call per row is a tenth of the Weil-complex ranks
        while r:
            lead = min(r)
            p = pivots.get(lead)
            if p is None:
                _keep(pivots, r, lead)
                break
            r = _cancel(r, p, lead)
    return len(pivots)


def rank(rows) -> int:
    """Rank of a sparse matrix given as an iterable of rows."""
    return _rank_int(_integer_row(row)[0] for row in rows)


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
        r = _keep(pivots, r, lead)
        inv = r[lead]
        return {j: v // inv if v % inv == 0 else Fraction(v, inv)
                for j, v in r.items()}


def kernel_from_columns(columns: list[Row]) -> list[IntRow]:
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
    for j, col in enumerate(columns):
        r, denom = _integer_row(col)
        r[offset + j] = denom
        while True:
            lead = min(r)
            if lead >= offset:
                out.append({k - offset: v for k, v in r.items()})
                break
            p = pivots.get(lead)
            if p is None:
                _keep(pivots, r, lead)
                break
            r = _cancel(r, p, lead)
    return out
