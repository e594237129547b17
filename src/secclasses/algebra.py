"""Exact graded-commutative algebra over the rationals.

Everything in this package lives over a fixed :class:`GeneratorSet`: an
ordered family of odd-degree exterior generators (whose squares vanish)
and even-degree polynomial generators, together with an optional bound on
the polynomial-part degree and optional per-generator exponent caps.  The
degree bound and the caps cut out the only ideals we ever quotient by, and
every ring is finite: a generator without a cap needs the degree bound.
So each ring has one largest polynomial-part degree and one largest
exponent per generator, computed once, and so fixed field widths.

A monomial y_E c^x is one int, its word (:data:`Mono`), laid out by its
:class:`GeneratorSet` alone, which packs ``(ext, exps)`` (increasing
exterior positions, all exponents) into a word with the checked ``pack``
and reads it back with ``unpack``.  A product is one addition and one
mask test, with the Koszul sign: the parity of the permutation sorting
the concatenated exterior index sequences.  Every other module reaches a
word's parts through the set's methods: ``ext_positions``,
``drop_exterior``, ``split``, ``poly_mul`` (the product with a word of
the polynomial subring) and ``rehouse``.

Coefficients are ints and :class:`fractions.Fraction` values, stored as
given; no floating point is used anywhere.  A term is checked once, where
it enters: the public ``Element(gens, terms)`` accepts only words of the
ring (an int, else ``TypeError``; a word of the ring, else
``ValueError``), and it and :meth:`Element.scale` raise
:class:`InexactCoefficient` on any other coefficient, floats and bools
included.  Every result computed from stored terms is built by the trusted
:meth:`Element._of`, which only drops zeros, so integer data stays integer.
Equality of elements is structural equality of their term maps (2 == Fraction(2)).
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache, total_ordering
from itertools import combinations

Mono = int


class SecclassesError(Exception):
    """Base of the package's own exceptions: an input or an invariant was
    violated.  Each subclass also keeps its ``ValueError`` or ``TypeError`` base."""


class GeneratorMismatch(SecclassesError, ValueError):
    """Two values over different generator sets were combined."""


class InexactCoefficient(SecclassesError, TypeError):
    """A coefficient other than an int or a Fraction (a bool, say) reached an element."""


def _exact(c: int | Fraction) -> int | Fraction:
    if type(c) is not int and type(c) is not Fraction:
        raise InexactCoefficient(
            f"coefficients must be int or Fraction, not {type(c).__name__}")
    return c


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


def exponent_vectors(weights, budget: int, caps=None, least: int = 0):
    """Yield ``(exps, degree)`` for every exponent vector of weighted degree
    in ``[least, budget]``.

    ``degree`` is ``sum(w * e)`` over ``weights``.  ``caps[j]``, when given
    and not None, bounds ``exps[j]``.  Vectors come in lexicographic order,
    and the walk enters a branch only if some vector below it ends inside
    the window.
    """
    n = len(weights)
    top, low = max(budget + 1, 0), max(least, 0)
    most = [top // w if cap is None else min(top // w, cap)
            for w, cap in zip(weights, caps or [None] * n)]
    # ends[j]: bit d is set when a walk at entry j with degree d so far can
    # end inside the window; ends[n] is the window itself
    ends = [((1 << top) - 1) >> low << low] * (n + 1)
    for j in range(n - 1, -1, -1):
        reach = ends[j + 1]
        for e in range(1, most[j] + 1):
            reach |= ends[j + 1] >> e * weights[j]
        ends[j] = reach

    def rec(j: int, degree: int):
        if j == n:
            yield (), degree
            return
        w, after = weights[j], ends[j + 1]
        for e in range(min((budget - degree) // w, most[j]) + 1):
            if after >> degree + e * w & 1:
                for rest, total in rec(j + 1, degree + e * w):
                    yield (e,) + rest, total
    return rec(0, 0) if ends[0] & 1 else iter(())


@lru_cache(maxsize=1 << 12)
def bits(e: int) -> tuple[int, ...]:
    """The positions of the set bits of ``e``, lowest first."""
    return tuple(i for i in range(e.bit_length()) if e >> i & 1)


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

    The generator order, fixed at construction, orders the signs and the
    word of y_E c^x.  From the low bits up: x_j in ``_most[j].bit_length()``
    bits and a guard bit, generator 0 highest; the polynomial degree in
    ``_bound.bit_length()`` bits and a guard bit; exterior generator i at
    bit ``_ext_at + i``.  Two words sum with no carry out of a field, and
    ``_bias`` lifts each field so that exactly the values above its
    ceiling reach its guard bit.  Equal ``poly`` and ``truncation`` give
    equal fields.
    """

    __slots__ = ("exterior", "poly", "truncation", "_bound", "_most", "_weights",
                 "_index", "_offsets", "_deg_at", "_ext_at", "_bias", "_guard", "_exps")

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
        # the word's fields from the lowest: the exponents, last one first, then the degree
        offsets, bias, guard, at = [], 0, 0, 0
        for ceiling in most[::-1] + (bound,):
            width = ceiling.bit_length()
            offsets.append(at)
            bias += ((1 << width) - 1 - ceiling) << at
            guard += 1 << (at + width)
            at += width + 1
        # _index, for generator(): exterior names first, then polynomial ones;
        # _exps, for unpack(): the exponents of each polynomial part read so far
        derived = {"_bound": bound, "_most": most, "_deg_at": offsets.pop(),
                   "_offsets": tuple(offsets[::-1]), "_ext_at": at, "_bias": bias,
                   "_guard": guard, "_weights": tuple(d for _, d, _ in self.poly),
                   "_index": {n: i for i, n in enumerate(names)}, "_exps": {}}
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    # -- basic queries -------------------------------------------------

    @property
    def n_exterior(self) -> int:
        return len(self.exterior)

    @property
    def n_poly(self) -> int:
        return len(self.poly)

    def _word(self, ext, exps) -> Mono:
        """The word with these fields, unchecked."""
        return (sum(map(operator.lshift, exps, self._offsets))
                + (sum(map(operator.mul, exps, self._weights)) << self._deg_at)
                + (sum(1 << i for i in ext) << self._ext_at))

    def pack(self, ext: tuple[int, ...], exps: tuple[int, ...]) -> Mono:
        """The word of y_ext c^exps: ``TypeError`` for a non-int index or
        exponent, ``ValueError`` for a monomial outside the ring."""
        ext, exps = tuple(ext), tuple(exps)
        require_int("exterior index", *ext)
        require_int("exponent", *exps)
        if min(ext + exps, default=0) >= 0:
            m = self._word(ext, exps)
            if self.mono_valid(m) and self.unpack(m) == (ext, exps):
                return m
        raise ValueError(f"invalid monomial {(ext, exps)} over this generator set")

    def unpack(self, m: Mono) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(ext, exps)`` of the word ``m``, the inverse of :meth:`pack`."""
        e = m >> self._ext_at
        x = m ^ (e << self._ext_at)
        if (exps := self._exps.get(x)) is None:
            exps = self._exps[x] = tuple((x >> at) & ((1 << most.bit_length()) - 1)
                                         for at, most in zip(self._offsets, self._most))
        return bits(e), exps

    def mono_degree(self, m: Mono) -> int:
        return (sum(self.exterior[i][1] for i in bits(m >> self._ext_at))
                + ((m >> self._deg_at) & ((1 << (self._ext_at - self._deg_at)) - 1)))

    def mono_valid(self, m: Mono) -> bool:
        """Whether the int ``m`` is the word of a monomial of the ring."""
        return (0 <= m < 1 << (self._ext_at + self.n_exterior)
                and not (m + self._bias) & self._guard
                and self._word(*self.unpack(m)) == m)

    # -- multiplication ------------------------------------------------

    def mono_mul(self, a: Mono, b: Mono):
        """Product of two monomials: ``(sign, mono)`` or ``None`` if zero.
        The sign's parity counts the exterior indices of ``a`` above one of ``b``."""
        ea, eb = a >> self._ext_at, b >> self._ext_at
        if ea & eb or (a + b + self._bias) & self._guard:
            return None
        parity = sum((ea >> (i + 1)).bit_count() for i in bits(eb)) if eb else 0
        return (-1 if parity & 1 else 1), a + b

    def poly_mul(self, a: Mono, b: Mono) -> Mono | None:
        """The word of ``a`` times ``b``, a word with no exterior part, so of
        sign +1; ``None`` where it breaks a cap or the truncation, by the
        guard test of :meth:`mono_mul`."""
        return None if (a + b + self._bias) & self._guard else a + b

    # -- words' parts -----------------------------------------------------

    def ext_positions(self, m: Mono) -> tuple[int, ...]:
        """The exterior positions of the word ``m``, increasing."""
        return bits(m >> self._ext_at)

    def drop_exterior(self, m: Mono, i: int) -> Mono:
        """The word ``m``, which has exterior generator ``i``, without it."""
        return m - (1 << (self._ext_at + i))

    def split(self, m: Mono) -> tuple[Mono, Mono]:
        """The words of the exterior part and the polynomial part of ``m``."""
        x = m & ((1 << self._ext_at) - 1)
        return m - x, x

    def rehouse(self, x: "Element") -> "Element":
        """``x`` over this set, from a ring with the same polynomial
        generators and truncation and no exterior generator, whose words
        keep their meaning here; else :class:`GeneratorMismatch`."""
        g = x.gens
        if g.exterior or g.poly != self.poly or g.truncation != self.truncation:
            raise GeneratorMismatch("only an element over this set's polynomial "
                                    "generators and truncation, and no exterior "
                                    "generator, re-houses here")
        return Element._of(self, x.terms)

    # -- element constructors -------------------------------------------

    def zero(self) -> "Element":
        return Element._of(self, {})

    def unit(self) -> "Element":
        return Element._of(self, {0: 1})

    def generator(self, name: str) -> "Element":
        """The named generator as an element, zero if the caps or truncation kill it."""
        i = self._index.get(name)
        if i is None:
            raise KeyError(f"no generator named {name!r}")
        if i < self.n_exterior:
            return Element._of(self, {1 << (self._ext_at + i): 1})
        j = i - self.n_exterior
        m = (1 << self._offsets[j]) + (self._weights[j] << self._deg_at)
        return Element._of(self, {m: 1} if self._most[j] else {})

    def monomial(self, ext: tuple[int, ...], exps: tuple[int, ...],
                 coeff: int | Fraction = 1) -> "Element":
        return Element(self, {self.pack(ext, exps): coeff})

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
        ext, exps = self.unpack(m)
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
def poly_parts(gens: GeneratorSet) -> dict[int, list[Mono]]:
    """The word of every polynomial monomial of the ring, bucketed by
    degree, each bucket in lexicographic order of the exponents; enumerated
    once per generator set, with the exponent ceilings ``_most`` as caps."""
    out: dict[int, list[Mono]] = {}
    for exps, degree in exponent_vectors(gens._weights, gens._bound, gens._most):
        out.setdefault(degree, []).append(gens._word((), exps))
    return out


@lru_cache(maxsize=None)
def exterior_subsets(gens: GeneratorSet) -> tuple[tuple[Mono, int], ...]:
    """The word of every exterior monomial, its index tuples in
    :func:`subsets` order, with its degree."""
    return tuple((gens._word(ext, ()), sum(gens.exterior[i][1] for i in ext))
                 for ext in subsets(range(gens.n_exterior)))


@lru_cache(maxsize=None, typed=True)  # so 5.0 and True miss 5's and 1's entries
def basis_of_degree(gens: GeneratorSet, n: int) -> tuple[Mono, ...]:
    """The words of all monomials of total degree ``n`` in canonical order.

    Exterior index tuples run lexicographically (:func:`exterior_subsets`),
    and for each the polynomial parts of :func:`poly_parts` follow.
    """
    require_int("n", n)
    if n < 0:
        return ()
    poly = poly_parts(gens)
    out: list[Mono] = []
    for ext, d in exterior_subsets(gens):
        parts = poly.get(n - d)
        if parts:
            out.extend(ext + x for x in parts)
    return tuple(out)


class Element:
    """Sparse rational linear combination of monomials, ``terms`` keyed by
    their words, in canonical form: no stored zero coefficients, so two
    elements are equal iff their term maps are equal.  Elements are
    immutable by convention (operations always build new ones) and safe to
    share across threads.  The constructor checks each word and coefficient
    (an int or a Fraction, stored as given); :meth:`_of` builds the
    package's own results unchecked.
    """

    __slots__ = ("gens", "terms")

    def __init__(self, gens: GeneratorSet, terms: dict[Mono, int | Fraction] | None = None):
        terms = terms or {}
        for m in terms:
            require_int("monomial", m)
            if not gens.mono_valid(m):
                raise ValueError(f"invalid monomial {m} over this generator set")
        self.gens = gens
        self.terms = {m: c for m, c in terms.items() if _exact(c)}

    @classmethod
    def _of(cls, gens: GeneratorSet, terms: dict[Mono, int | Fraction]) -> "Element":
        """The element with ``terms``, whose coefficients the package
        computed; zeros are dropped, nothing is checked."""
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

    def coefficient(self, m: Mono) -> int | Fraction:
        """The coefficient of the word ``m``: the int 0 when it is absent."""
        return self.terms.get(m, 0)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Element"):
        if self.gens != other.gens:
            raise GeneratorMismatch("elements live over different generator sets")

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
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
            out: dict[Mono, int | Fraction] = {}
            mono_mul = self.gens.mono_mul
            for ma, ca in self.terms.items():
                for mb, cb in other.terms.items():
                    r = mono_mul(ma, mb)
                    if r is None:
                        continue
                    s, m = r
                    out[m] = out.get(m, 0) + (ca * cb if s > 0 else -(ca * cb))
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

    def sorted_terms(self) -> list[tuple[Mono, int | Fraction]]:
        """The terms by degree, exterior indices, then word: so by exponents."""
        gens = self.gens
        return sorted(self.terms.items(), key=lambda t: (
            gens.mono_degree(t[0]), bits(t[0] >> gens._ext_at), t[0]))

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
