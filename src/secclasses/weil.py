"""Truncated Weil complexes and the combinatorics of secondary classes.

``weil_complex(q, framed=True)`` builds the codimension-q complex: exterior
generators y_i of degree 2i-1 (all i when framed, odd i only otherwise),
polynomial generators c_i of degree 2i, polynomial degrees above 2q killed,
and d(y_i) = c_i.

The Vey basis of the framed complex is described purely combinatorially by
:class:`VeyIndex`; rigidity is the index inequality i_1 + sum(J) >= q + 2.
The spherically supported rigid families in even codimension are enumerated
by :func:`spherical_rigid_classes`.
"""

from __future__ import annotations

import operator
from itertools import groupby

from .algebra import (Element, GeneratorSet, Record, SecclassesError, exponent_vectors,
                      power_label, require_int, subsets)
from .dga import Differential


class OddCodimension(SecclassesError, ValueError):
    """Spherical rigid families are only defined for even codimension >= 4."""


class IndexOutOfRange(SecclassesError, ValueError):
    """A twisting index addresses a generator the complex does not have."""


def _codimension(q: int) -> None:
    """Check the codimension q of a Weil complex or a Vey basis."""
    require_int("q", q)
    if q < 1:
        raise ValueError("codimension must be a positive integer")


def _even_codimension(q: int) -> None:
    """Check the codimension q of the spherical rigid families."""
    require_int("q", q)
    if q % 2 == 1 or q < 4:
        raise OddCodimension("families are defined for even codimension >= 4")


def weil_complex(q: int, framed: bool = True) -> tuple[GeneratorSet, Differential]:
    """The codimension-q complex (generators, differential).

    Framed: Lambda(y_1..y_q) tensor Q[c_1..c_q], polynomial degree <= 2q.
    Unframed: only odd-indexed y_i survive (largest odd index <= q).
    """
    _codimension(q)
    ys = range(1, q + 1) if framed else range(1, q + 1, 2)
    exterior = tuple((f"y{i}", 2 * i - 1) for i in ys)
    poly = tuple((f"c{i}", 2 * i, None) for i in range(1, q + 1))
    gens = GeneratorSet(exterior, poly, truncation=2 * q)
    images = {f"y{i}": gens.generator(f"c{i}") for i in ys}
    return gens, Differential(gens, images)


class VeyIndex(Record, order=True):
    """The pair (I, J) indexing a monomial y_I c_J.

    I is strictly increasing, J nondecreasing, entries in [1, q], both
    stored as tuples.  The empty pair stands for the unit class and is
    never a basis member.
    """

    __slots__ = ("I", "J")

    def __init__(self, I: tuple[int, ...], J: tuple[int, ...]):
        self._set(tuple(I), tuple(J))
        self.__post_init__()

    # a separate method so that a tracer can count constructions by patching it
    def __post_init__(self):
        I, J = self.I, self.J
        require_int("VeyIndex entries", *I, *J)
        if not all(map(operator.lt, I, I[1:])):
            raise ValueError("I must be strictly increasing")
        if not all(map(operator.le, J, J[1:])):
            raise ValueError("J must be nondecreasing")
        # both are sorted, so each starts with its least entry
        if I and I[0] < 1 or J and J[0] < 1:
            raise ValueError("indices start at 1")

    @property
    def degree(self) -> int:
        return sum(2 * i - 1 for i in self.I) + 2 * sum(self.J)

    def is_member(self, q: int) -> bool:
        """Basis membership: sum(J) <= q, i_1 + sum(J) >= q+1, i_1 <= j_1."""
        if not self.I:
            return False
        if any(i > q for i in self.I) or any(j > q for j in self.J):
            return False
        sj = sum(self.J)
        if sj > q:
            return False
        if self.I[0] + sj < q + 1:
            return False
        if self.J and self.I[0] > self.J[0]:
            return False
        return True

    def is_rigid(self, q: int) -> bool:
        """Rigidity: i_1 + sum(J) >= q + 2 (on top of membership)."""
        return self.is_member(q) and self.I[0] + sum(self.J) >= q + 2

    def label(self) -> str:
        return power_label([(f"y{i}", 1) for i in self.I]
                           + [(f"c{j}", len(list(run))) for j, run in groupby(self.J)])

    def element(self, gens: GeneratorSet) -> Element:
        """The monomial y_I c_J over a framed complex's generators."""
        ext = tuple(i - 1 for i in self.I)
        exps = [0] * gens.n_poly
        for j in self.J:
            exps[j - 1] += 1
        return gens.monomial(ext, tuple(exps))


def vey_basis(q: int, min_degree: int | None = None,
              max_degree: int | None = None) -> list[VeyIndex]:
    """All Vey indices for codimension q, ordered by (I, J) lexicographically.

    Membership fixes the shape: for each i_1, J runs over the partitions
    with parts in [i_1, q] and sum in [q+1-i_1, q], and I over (i_1,)
    followed by any subset of (i_1, q].  The unit class is excluded;
    report it separately when counting degree 0.
    """
    _codimension(q)
    out = []
    for i1 in range(1, q + 1):
        parts = range(i1, q + 1)
        js = sorted(
            tuple(j for j, e in zip(parts, mult) for _ in range(e))
            for mult, total in exponent_vectors(parts, q) if total >= q + 1 - i1)
        for rest in subsets(range(i1 + 1, q + 1)):
            I = (i1,) + rest
            for J in js:
                v = VeyIndex(I, J)
                deg = v.degree
                if min_degree is not None and deg < min_degree:
                    continue
                if max_degree is not None and deg > max_degree:
                    continue
                out.append(v)
    return out


def vey_counts_by_degree(q: int) -> dict[int, int]:
    counts: dict[int, int] = {}
    for v in vey_basis(q):
        counts[v.degree] = counts.get(v.degree, 0) + 1
    return counts


def godbillon_vey(q: int) -> VeyIndex:
    """The class y_1 c_1^q, the archetypal non-rigid secondary class."""
    require_int("q", q)
    return VeyIndex((1,), (1,) * q)


class RigidFamilyEntry(Record):
    """One spherically supported rigid class in even codimension."""

    __slots__ = ("vey", "degree", "family")

    # family "A": y_2 y_K c_2^{q/2};  "B": y_{2k} c_{2k}
    def __init__(self, vey: VeyIndex, degree: int, family: str):
        self._set(vey, degree, family)

    def label(self) -> str:
        return self.vey.label()


def spherical_rigid_count(q: int) -> int:
    """The number of entries :func:`spherical_rigid_classes` lists, without
    listing them: 2^(B-1) in family A, B = floor((q+2)/4), plus 1 in
    family B when q = 2 mod 4."""
    _even_codimension(q)
    return (1 << ((q + 2) // 4 - 1)) + (q % 4 == 2)


def spherical_rigid_classes(q: int) -> list[RigidFamilyEntry]:
    """The rigid classes supported on spheres, for even codimension q >= 4.

    Family A: y_2 y_K c_2^m with m = q/2 and K running over all subsets
    (including the empty one) of {4, 6, ..., 2B}, B = floor((q+2)/4).
    Family B (only when q = 2 mod 4): y_{2k} c_{2k} with k = (q+2)/4.
    Every entry is checked against basis membership and rigidity.
    """
    _even_codimension(q)
    m = q // 2
    top = (q + 2) // 4
    pool = [2 * k for k in range(2, top + 1)]
    entries: list[RigidFamilyEntry] = []
    for K in subsets(pool):
        v = VeyIndex((2,) + K, (2,) * m)
        if not v.is_rigid(q):
            raise AssertionError(f"family A produced a non-rigid index {v}")
        entries.append(RigidFamilyEntry(v, v.degree, "A"))
    if q % 4 == 2:
        k = (q + 2) // 4
        v = VeyIndex((2 * k,), (2 * k,))
        if not v.is_rigid(q):
            raise AssertionError(f"family B produced a non-rigid index {v}")
        entries.append(RigidFamilyEntry(v, v.degree, "B"))
    return entries

