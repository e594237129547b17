"""Exact graded-commutative algebra over the rationals.

Everything in this package lives over a fixed :class:`GeneratorSet`: an
ordered family of odd-degree exterior generators (whose squares vanish)
and even-degree polynomial generators, together with an optional bound on
the polynomial-part degree and optional per-generator exponent caps.  The
degree bound and the caps cut out the only ideals we ever quotient by,
which keeps every ring a finite combinatorial object.

A monomial is a pair ``(ext, exps)``: a strictly increasing tuple of
positions into the exterior generator list, and a full-length exponent
tuple over the polynomial generators.  Products carry the Koszul sign,
the parity of the permutation sorting the concatenated exterior index
sequences; even-degree generators commute with everything, so no other
sign ever appears.

Coefficients are :class:`fractions.Fraction` throughout, and no floating
point is used anywhere.  A coefficient is checked once, where it enters:
the public ``Element(gens, terms)`` and :meth:`Element.scale` accept int
and Fraction coefficients, store them as Fractions and raise
:class:`InexactCoefficient` on anything else, floats included.  Every
result the package computes from stored Fractions is built by the trusted
:meth:`Element._of`, which only drops zeros.  Equality of elements is
structural equality of their canonical term maps.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache, total_ordering
from itertools import combinations

Mono = tuple[tuple[int, ...], tuple[int, ...]]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class SecclassesError(Exception):
    """Base of the package's own exceptions: an input or an invariant was
    violated.  Each subclass also keeps its ``ValueError`` or ``TypeError`` base."""


class GeneratorMismatch(SecclassesError, ValueError):
    """Two values over different generator sets were combined."""


class InexactCoefficient(SecclassesError, TypeError):
    """A coefficient that is not an int or a Fraction reached an element."""


def _exact(c) -> Fraction:
    if not isinstance(c, (int, Fraction)):
        raise InexactCoefficient(
            f"coefficients must be int or Fraction, not {type(c).__name__}")
    return Fraction(c)


def require_int(name: str, *values) -> None:
    """Raise ``TypeError`` naming ``name`` unless every value is an int.

    The test is ``type(v) is int``, so a bool or a float that happens to be
    whole is rejected rather than read as a count, degree or index.
    """
    for v in values:
        if type(v) is not int:
            raise TypeError(f"{name} must be an int, not {type(v).__name__} {v!r}")


def subsets(pool) -> list[tuple]:
    """Every subset of ``pool`` as a tuple in pool order, sorted lexicographically.

    For an increasing pool this is the order in which a depth-first walk
    meets the subsets: each prefix before its extensions.
    """
    pool = tuple(pool)
    return sorted(c for r in range(len(pool) + 1) for c in combinations(pool, r))


def exponent_vectors(weights, budget: int, caps=None):
    """Yield ``(exps, degree)`` for every exponent vector of weighted degree <= budget.

    ``degree`` is ``sum(w * e)`` over ``weights``.  ``caps[j]``, when given
    and not None, bounds ``exps[j]``.  Vectors come in lexicographic order,
    and each branch stops as soon as the budget is spent.
    """
    n = len(weights)
    caps = caps or [None] * n

    def rec(j: int, degree: int):
        if j == n:
            yield (), degree
            return
        w, cap = weights[j], caps[j]
        emax = (budget - degree) // w
        if cap is not None:
            emax = min(emax, cap)
        for e in range(emax + 1):
            for rest, total in rec(j + 1, degree + e * w):
                yield (e,) + rest, total
    return rec(0, 0)


def merge_exterior(a: tuple[int, ...], b: tuple[int, ...]):
    """Merge strictly increasing index tuples, counting transpositions.

    Returns ``(parity, merged)`` with parity in {0, 1}, or ``None`` when an
    index repeats (odd generators square to zero).  The parity is the number
    of transpositions, mod 2, needed to sort the concatenation ``a + b``.
    """
    if not a:
        return 0, b
    if not b:
        return 0, a
    merged = []
    swaps = 0
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        x, y = a[i], b[j]
        if x == y:
            return None
        if x < y:
            merged.append(x)
            i += 1
        else:
            # y jumps over the remaining entries of a
            merged.append(y)
            swaps += na - i
            j += 1
    merged.extend(a[i:])
    merged.extend(b[j:])
    return swaps & 1, tuple(merged)


class Record:
    """Immutable record: ``__init__`` sets the fields, the ``__slots__`` not starting
    with ``_``, in order with :meth:`_set`; setting or deleting one later raises
    ``AttributeError``.  They compare and hash by their fields within one class, or
    by identity with ``eq=False``, and repr them; ``order=True`` completes ``__lt__``."""

    __slots__ = ()

    def __init_subclass__(cls, order: bool = False, eq: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if name[0] != "_")
        cls._key = operator.attrgetter(*cls._fields)
        if order:
            total_ordering(cls)
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class GeneratorSet(Record):
    """Generators of a free graded-commutative algebra with truncation.

    ``exterior``: tuple of ``(name, degree)`` with odd degrees.
    ``poly``: tuple of ``(name, degree, cap)`` with even degrees; ``cap``
    is the largest allowed exponent (``None`` = unbounded).
    ``truncation``: monomials whose polynomial-part degree exceeds this
    bound are zero (0 = no bound).  Exterior degrees never count against
    the truncation.

    The generator order is fixed at construction and is the canonical
    sort order used for all sign computations.
    """

    __slots__ = ("exterior", "poly", "truncation", "_caps", "_weights", "_index")

    def __init__(self, exterior: tuple[tuple[str, int], ...],
                 poly: tuple[tuple[str, int, int | None], ...], truncation: int = 0):
        self._set(exterior, poly, truncation)
        names = [n for n, _ in self.exterior] + [n for n, _, _ in self.poly]
        if len(set(names)) != len(names):
            raise ValueError("generator names must be unique")
        for name, deg in self.exterior:
            require_int(f"degree of {name}", deg)
            if deg <= 0 or deg % 2 == 0:
                raise ValueError(f"exterior generator {name} must have odd positive degree")
        for name, deg, cap in self.poly:
            require_int(f"degree of {name}", deg)
            if deg <= 0 or deg % 2 == 1:
                raise ValueError(f"polynomial generator {name} must have even positive degree")
            if cap is not None:
                require_int(f"cap for {name}", cap)
                if cap < 0:
                    raise ValueError(f"cap for {name} must be nonnegative")
        require_int("truncation", self.truncation)
        if self.truncation < 0:
            raise ValueError("truncation must be nonnegative")
        # derived once for mono_mul; not fields, so not compared or hashed
        caps = [cap for _, _, cap in self.poly]
        object.__setattr__(self, "_caps", tuple(
            math.inf if cap is None else cap for cap in caps)
            if any(cap is not None for cap in caps) else None)
        object.__setattr__(self, "_weights", tuple(deg for _, deg, _ in self.poly))
        # for generator(): exterior names first, then polynomial ones
        object.__setattr__(self, "_index", {name: i for i, name in enumerate(names)})

    # -- basic queries -------------------------------------------------

    @property
    def n_exterior(self) -> int:
        return len(self.exterior)

    @property
    def n_poly(self) -> int:
        return len(self.poly)

    def unit_mono(self) -> Mono:
        return ((), (0,) * self.n_poly)

    def poly_degree(self, exps: tuple[int, ...]) -> int:
        return sum(map(operator.mul, exps, self._weights))

    def mono_degree(self, m: Mono) -> int:
        ext, exps = m
        return sum(self.exterior[i][1] for i in ext) + self.poly_degree(exps)

    def mono_valid(self, m: Mono) -> bool:
        ext, exps = m
        if len(exps) != self.n_poly:
            return False
        if any(i < 0 or i >= self.n_exterior for i in ext):
            return False
        if any(ext[i] >= ext[i + 1] for i in range(len(ext) - 1)):
            return False
        for e, (_, _, cap) in zip(exps, self.poly):
            if e < 0 or (cap is not None and e > cap):
                return False
        if self.truncation and self.poly_degree(exps) > self.truncation:
            return False
        return True

    # -- multiplication ------------------------------------------------

    def mono_mul(self, a: Mono, b: Mono):
        """Product of two monomials: ``(sign, mono)`` or ``None`` if zero."""
        merged = merge_exterior(a[0], b[0])
        if merged is None:
            return None
        parity, ext = merged
        exps = tuple(map(operator.add, a[1], b[1]))
        if self._caps and not all(map(operator.le, exps, self._caps)):
            return None
        if self.truncation and self.poly_degree(exps) > self.truncation:
            return None
        return (-1 if parity else 1), (ext, exps)

    # -- element constructors -------------------------------------------

    def zero(self) -> "Element":
        return Element._of(self, {})

    def unit(self) -> "Element":
        return Element._of(self, {self.unit_mono(): _ONE})

    def generator(self, name: str) -> "Element":
        """The named generator as an element."""
        i = self._index.get(name)
        if i is None:
            raise KeyError(f"no generator named {name!r}")
        n_poly = self.n_poly
        if i < self.n_exterior:
            return Element._of(self, {((i,), (0,) * n_poly): _ONE})
        j = i - self.n_exterior
        return Element._of(self, {((), (0,) * j + (1,) + (0,) * (n_poly - j - 1)): _ONE})

    def monomial(self, ext: tuple[int, ...], exps: tuple[int, ...],
                 coeff=_ONE) -> "Element":
        m = (tuple(ext), tuple(exps))
        require_int("exterior index", *m[0])
        require_int("exponent", *m[1])
        if not self.mono_valid(m):
            raise ValueError(f"invalid monomial {m} over this generator set")
        return Element(self, {m: coeff})

    # -- counting and printing -------------------------------------------

    def dimension(self) -> int | None:
        """Total number of monomials, or None when infinite."""
        n_poly = count_poly_monomials(self)
        if n_poly is None:
            return None
        return (1 << self.n_exterior) * n_poly

    def top_degree(self) -> int | None:
        """Largest degree of a nonzero monomial, or None when unbounded."""
        bound = _poly_degree_bound(self)
        return None if bound is None else sum(d for _, d in self.exterior) + bound

    def mono_str(self, m: Mono) -> str:
        ext, exps = m
        parts = [self.exterior[i][0] for i in ext]
        for (name, _, _), e in zip(self.poly, exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"


def _poly_degree_bound(gens: GeneratorSet) -> int | None:
    """The largest polynomial-part degree of a monomial: the smaller of the
    truncation and sum deg * cap, None when both are unbounded."""
    if any(cap is None for _, _, cap in gens.poly):
        return gens.truncation or None
    capped = sum(deg * cap for _, deg, cap in gens.poly)
    return min(gens.truncation, capped) if gens.truncation else capped


@lru_cache(maxsize=None)
def count_poly_monomials(gens: GeneratorSet) -> int | None:
    """Number of polynomial monomials respecting caps and truncation.

    Counted without enumeration so dimension guards stay cheap.  Returns
    None when the count is infinite (some generator unbounded and no
    truncation).
    """
    bound = _poly_degree_bound(gens)
    if bound is None:
        return None
    # ways[d] = number of exponent vectors of polynomial degree exactly d
    ways = [0] * (bound + 1)
    ways[0] = 1
    for _, deg, cap in gens.poly:
        nxt = [0] * (bound + 1)
        emax_global = bound // deg if cap is None else cap
        for d in range(bound + 1):
            if not ways[d]:
                continue
            emax = min(emax_global, (bound - d) // deg)
            for e in range(emax + 1):
                nxt[d + e * deg] += ways[d]
        ways = nxt
    return sum(ways)


@lru_cache(maxsize=None)
def _poly_parts_by_degree(gens: GeneratorSet, budget: int) -> dict[int, list[tuple[int, ...]]]:
    """Polynomial exponent tuples of degree <= budget, bucketed by degree."""
    weights = [deg for _, deg, _ in gens.poly]
    caps = [cap for _, _, cap in gens.poly]
    out: dict[int, list[tuple[int, ...]]] = {}
    for exps, degree in exponent_vectors(weights, budget, caps):
        out.setdefault(degree, []).append(exps)
    return out


def poly_parts(gens: GeneratorSet, n: int) -> dict[int, list[tuple[int, ...]]]:
    """The polynomial exponent tuples of degree <= n, at least, bucketed by
    degree, each bucket in lexicographic order.

    A bounded ring shares one enumeration across every n; an unbounded one
    needs polynomial parts up to n.
    """
    budget = _poly_degree_bound(gens)
    return _poly_parts_by_degree(gens, n if budget is None else budget)


@lru_cache(maxsize=None)
def exterior_subsets(gens: GeneratorSet) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Every exterior index tuple in :func:`subsets` order, with its degree."""
    return tuple((ext, sum(gens.exterior[i][1] for i in ext))
                 for ext in subsets(range(gens.n_exterior)))


@lru_cache(maxsize=None)
def basis_of_degree(gens: GeneratorSet, n: int) -> tuple[Mono, ...]:
    """All monomials of total degree ``n`` in canonical order.

    Exterior index tuples run lexicographically (:func:`exterior_subsets`),
    and for each the polynomial exponent tuples of :func:`poly_parts` follow.
    """
    if n < 0:
        return ()
    poly = poly_parts(gens, n)
    out: list[Mono] = []
    for ext, d in exterior_subsets(gens):
        parts = poly.get(n - d)
        if parts:
            out.extend((ext, exps) for exps in parts)
    return tuple(out)


class Element:
    """Sparse rational linear combination of monomials, in canonical form.

    Canonical means: no stored zero coefficients, so two elements are equal
    iff their term maps are equal.  Elements are immutable by convention
    (operations always build new ones) and safe to share across threads.
    The constructor checks each coefficient (int or Fraction, stored as a
    Fraction); :meth:`_of` builds the package's own results unchecked.
    """

    __slots__ = ("gens", "terms")

    def __init__(self, gens: GeneratorSet, terms: dict[Mono, Fraction] | None = None):
        self.gens = gens
        self.terms = {m: v for m, c in (terms or {}).items() if (v := _exact(c))}

    @classmethod
    def _of(cls, gens: GeneratorSet, terms: dict[Mono, Fraction]) -> "Element":
        """The element with ``terms``, whose coefficients are Fractions
        computed by the package; zeros are dropped, nothing is checked."""
        x = cls.__new__(cls)
        x.gens = gens
        x.terms = {m: c for m, c in terms.items() if c}
        return x

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def degree(self) -> int:
        """Degree of a homogeneous nonzero element."""
        degs = {self.gens.mono_degree(m) for m in self.terms}
        if not degs:
            raise ValueError("the zero element has no degree")
        if len(degs) > 1:
            raise ValueError(f"element is not homogeneous (degrees {sorted(degs)})")
        return degs.pop()

    def coefficient(self, m: Mono) -> Fraction:
        return self.terms.get(m, _ZERO)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Element"):
        if self.gens != other.gens:
            raise GeneratorMismatch("elements live over different generator sets")

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, _ZERO) + c
        return Element._of(self.gens, out)

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def __neg__(self) -> "Element":
        return Element._of(self.gens, {m: -c for m, c in self.terms.items()})

    def scale(self, c) -> "Element":
        c = _exact(c)
        return Element._of(self.gens, {m: c * v for m, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Element):
            self._check(other)
            out: dict[Mono, Fraction] = {}
            mono_mul = self.gens.mono_mul
            for ma, ca in self.terms.items():
                for mb, cb in other.terms.items():
                    r = mono_mul(ma, mb)
                    if r is None:
                        continue
                    s, m = r
                    out[m] = out.get(m, _ZERO) + (ca * cb if s > 0 else -(ca * cb))
            return Element._of(self.gens, out)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, n: int) -> "Element":
        require_int("exponent", n)
        if n < 0:
            raise ValueError("negative powers are not defined")
        result = self.gens.unit()
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        return (isinstance(other, Element) and self.gens == other.gens
                and self.terms == other.terms)

    # -- presentation ------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Mono, Fraction]]:
        return sorted(self.terms.items(),
                      key=lambda t: (self.gens.mono_degree(t[0]), t[0]))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            s = self.gens.mono_str(m)
            if s == "1":
                body = str(c)
            elif c == 1:
                body = s
            elif c == -1:
                body = f"-{s}"
            else:
                body = f"{c}*{s}"
            parts.append(body)
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"Element({self})"
