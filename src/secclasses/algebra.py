"""Exact graded-commutative algebra over the rationals.

Everything in this package lives over a fixed :class:`GeneratorSet`: an
ordered family of odd-degree exterior generators (whose squares vanish)
and even-degree polynomial generators, together with an optional bound on
the polynomial-part degree and optional per-generator exponent caps.  The
degree bound and the caps cut out the only ideals we ever quotient by, and
every ring is finite: a generator without a cap needs the degree bound.
So each ring has one largest polynomial-part degree and one largest
exponent per generator, computed once at construction.

A monomial is a pair ``(ext, exps)``: a strictly increasing tuple of
positions into the exterior generator list, and a full-length exponent
tuple over the polynomial generators.  Products carry the Koszul sign,
the parity of the permutation sorting the concatenated exterior index
sequences; even-degree generators commute with everything, so no other
sign ever appears.

Coefficients are :class:`fractions.Fraction` throughout, and no floating
point is used anywhere.  A term is checked once, where it enters: the
public ``Element(gens, terms)`` accepts only monomials of the ring
(int indices and exponents, else ``TypeError``; within the ring, else
``ValueError``), and it and :meth:`Element.scale` accept int and Fraction
coefficients, store them as Fractions and raise
:class:`InexactCoefficient` on anything else, floats included.  Every
result the package computes from stored terms is built by the trusted
:meth:`Element._of`, which only drops zeros.  Equality of elements is
structural equality of their canonical term maps.
"""

from __future__ import annotations

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
    by identity with ``eq=False``, and repr them; ``order=True`` orders by fields."""

    __slots__ = ()

    def __init_subclass__(cls, order: bool = False, eq: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if name[0] != "_")
        cls._key = operator.attrgetter(*cls._fields)
        # the fields' slot descriptors: setting through them skips __setattr__
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)
        if order:
            def __lt__(self, other):
                if other.__class__ is not self.__class__:
                    return NotImplemented
                return self._key(self) < other._key(other)
            cls.__lt__ = __lt__
            total_ordering(cls)
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def _set(self, *values) -> None:
        for setter, value in zip(self._setters, values):
            setter(self, value)

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
    is the largest allowed exponent (``None`` = no cap).  Both, and
    their entries, are stored as tuples, so a set given in lists hashes.
    ``truncation``: monomials whose polynomial-part degree exceeds this
    bound are zero (0 = no bound).  Exterior degrees never count against
    the truncation.  The ring must be finite, so a generator without a
    cap needs a truncation (else ``ValueError`` naming it).

    The generator order is fixed at construction and is the canonical
    sort order used for all sign computations.
    """

    __slots__ = ("exterior", "poly", "truncation", "_bound", "_most", "_caps", "_weights",
                 "_index")

    def __init__(self, exterior: tuple[tuple[str, int], ...],
                 poly: tuple[tuple[str, int, int | None], ...], truncation: int = 0):
        self._set(tuple(map(tuple, exterior)), tuple(map(tuple, poly)), truncation)
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
        uncapped = [name for name, _, cap in self.poly if cap is None]
        if uncapped and not self.truncation:
            raise ValueError(f"polynomial generator {uncapped[0]} has no cap, "
                             "so the ring needs a truncation")
        # derived once; not fields, so not compared or hashed.  _bound is the
        # largest polynomial-part degree, _most[j] the largest exponent of
        # generator j: both the truncation and the caps bind
        bound = self.truncation
        if not uncapped:
            capped = sum(deg * cap for _, deg, cap in self.poly)
            bound = min(bound, capped) if bound else capped
        most = tuple(bound // deg if cap is None else min(cap, bound // deg)
                     for _, deg, cap in self.poly)
        object.__setattr__(self, "_bound", bound)
        object.__setattr__(self, "_most", most)
        # for mono_mul, which checks exponents only when some cap is given
        object.__setattr__(self, "_caps", None if len(uncapped) == len(most) else most)
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
        if not all(0 <= e <= most for e, most in zip(exps, self._most)):
            return False
        return self.poly_degree(exps) <= self._bound

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
        return Element(self, {(tuple(ext), tuple(exps)): coeff})

    # -- counting and printing -------------------------------------------

    def dimension(self) -> int:
        """Total number of monomials."""
        return (1 << self.n_exterior) * count_poly_monomials(self)

    def top_degree(self) -> int:
        """Largest degree of a nonzero monomial."""
        counts = _poly_counts(self)
        top = max(d for d, ways in enumerate(counts) if ways)
        return sum(d for _, d in self.exterior) + top

    def mono_str(self, m: Mono) -> str:
        ext, exps = m
        return power_label([(self.exterior[i][0], 1) for i in ext]
                           + [(name, e) for (name, _, _), e in zip(self.poly, exps)])


def power_label(pairs) -> str:
    """``name`` or ``name^e`` for each ``(name, e)`` with e nonzero, joined
    by ``*``; ``1`` when none is left."""
    return "*".join(n if e == 1 else f"{n}^{e}" for n, e in pairs if e) or "1"


@lru_cache(maxsize=None)
def _poly_counts(gens: GeneratorSet) -> tuple[int, ...]:
    """The number of polynomial monomials of each degree 0..``_bound``.

    Counted without enumeration, so dimension guards stay cheap.
    """
    bound = gens._bound
    # ways[d] = number of exponent vectors of polynomial degree exactly d
    ways = [0] * (bound + 1)
    ways[0] = 1
    for deg, most in zip(gens._weights, gens._most):
        nxt = [0] * (bound + 1)
        for d in range(bound + 1):
            if not ways[d]:
                continue
            for e in range(min(most, (bound - d) // deg) + 1):
                nxt[d + e * deg] += ways[d]
        ways = nxt
    return tuple(ways)


def count_poly_monomials(gens: GeneratorSet) -> int:
    """Number of polynomial monomials respecting caps and truncation."""
    return sum(_poly_counts(gens))


@lru_cache(maxsize=None)
def poly_parts(gens: GeneratorSet) -> dict[int, list[tuple[int, ...]]]:
    """Every polynomial exponent tuple of the ring, bucketed by degree, each
    bucket in lexicographic order; enumerated once per generator set, with
    the exponent ceilings ``_most`` as caps."""
    out: dict[int, list[tuple[int, ...]]] = {}
    for exps, degree in exponent_vectors(gens._weights, gens._bound, gens._most):
        out.setdefault(degree, []).append(exps)
    return out


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
    poly = poly_parts(gens)
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
        terms = terms or {}
        for m in terms:
            ext, exps = m
            require_int("exterior index", *ext)
            require_int("exponent", *exps)
            if not gens.mono_valid(m):
                raise ValueError(f"invalid monomial {m} over this generator set")
        self.gens = gens
        self.terms = {m: v for m, c in terms.items() if (v := _exact(c))}

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
