"""Differentials and exact cohomology of finite pure graded-commutative complexes.

A complex is pure: d maps each exterior generator into the polynomial
subring and vanishes on the polynomial generators, as on every complex of
the paper, so d^2 = 0.  Every complex is finite (a :class:`GeneratorSet`
rejects an unbounded ring), so cohomology reduces to exact rank
computations degree by degree.

Cohomology dimensions come from ranks,
``dim H^n = chain_dim_n - rank d_n - rank d_{n-1}``, computed on Python
ints from the differential to the last pivot, and the elimination is
fraction-free.  Rank d_n is the rank of one :class:`.linalg.Echelon`
built from the degree's columns.
The columns are those of s d, s the lcm of the denominators of d's
coefficients: 1 on the Weil and frame models, lcm(1!, ..., (k-1)!) on
the reduced projective model, whose d u_i = t^i/i!.  One factor for
every column changes no rank, span or kernel, and makes every column a
dict of nonzero ints, which goes to the trusted constructor of
:mod:`.linalg`, ``_of``, with no per-row check or copy.  A row built from
an ``Element``, a cocycle or a kernel vector, goes to the checked entries.
This module never writes an eliminator's pivots.

The columns come from index arithmetic on the exterior tensor polynomial
layout of the basis, with no monomial built (:class:`_Layout`).  Degree n
is a run of blocks, one per exterior subset E in :func:`exterior_subsets`
order, each holding the polynomial parts of degree n - deg E, so y_E c^x
sits at the block's offset plus the position of x in its bucket.  Since
d(y_E c^x) = sum_p (-1)^p y_(E without E_p) c^x d(y_(E_p)), the terms of
each subset (target subset, exponent shift, coefficient) are listed once
per call, and one table per (bucket, shift) maps each position to the
position of x + shift, or drops it when x + shift breaks a cap or the
truncation; a part is its word (:class:`GeneratorSet`), so a shift is
one addition and one lookup.

Representatives are searched only when asked for, and only in degrees
with classes: a representative is the residual of a kernel vector modulo
the image, held by the echelon that ranked d_{n-1}, and the earlier
kernel vectors, made monic at its lead, with a ``Fraction`` only where
it needs one.  The kernel vectors are added to that echelon in place.
Their number must equal the rank formula's dimension.

Coboundary tests (:func:`classes_mod_image`, behind :func:`class_nonzero`
and the frame certificates) check each input by d(x), the
:class:`Differential` applied to it, and then use the same layout, once
per call, up to the inputs' top degree.  Every nonzero column of
s d_{n-1}, for each degree n of their support, goes into one
:class:`.linalg.IntegerEliminator`, each degree in its own index range,
since the tests need only ranks; each input is reduced against it
without being kept, and only then are the inputs added to it, for the
joint answer.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .algebra import (Element, GeneratorMismatch, GeneratorSet, Mono, Record,
                      SecclassesError, basis_of_degree, bits, exterior_subsets,
                      poly_parts, require_int)
from .linalg import Echelon, IntegerEliminator, kernel_from_columns


class DegreeMismatch(SecclassesError, ValueError):
    """A wrong degree or rank, or a generator map that does not commute with d."""


class NotACocycle(SecclassesError, ValueError):
    """An operation requiring a cocycle received a non-cocycle."""


class Differential:
    """Degree +1 derivation of a pure complex, given on the exterior generators.

    ``images`` maps generator names to elements; omitted names get zero.
    The image of an exterior generator must be homogeneous of degree
    ``deg(gen) + 1`` (or zero) and lie in the polynomial subring: no term
    has an exterior part.  A polynomial generator's image must be zero.
    The images are kept as ``ext_images``, in generator order, and d of an
    element follows from them by the graded Leibniz rule, each product
    formed by :meth:`GeneratorSet.mono_mul`.
    """

    __slots__ = ("gens", "ext_images")

    def __init__(self, gens: GeneratorSet, images: dict[str, Element] | None = None):
        self.gens = gens
        images = dict(images or {})
        zero = gens.zero()

        def take(name: str, degree: int) -> Element:
            img = images.pop(name, None)
            if img is None or img.is_zero():
                return zero
            if img.gens != gens:
                raise GeneratorMismatch(
                    f"image of {name} lives over a different generator set")
            if img.degree() != degree + 1:
                raise DegreeMismatch(
                    f"d({name}) must have degree {degree + 1}, got {img.degree()}")
            if any(m >> gens._ext_at for m in img.terms):
                raise ValueError(f"d({name}) = {img} is not pure: it has an exterior term")
            return img

        self.ext_images = tuple(take(n, d) for n, d in gens.exterior)
        for name, _, _ in gens.poly:
            if images.pop(name, None):
                raise ValueError(f"d({name}) must be 0: {name} is a polynomial generator")
        if images:
            raise KeyError(f"images given for unknown generators: {sorted(images)}")

    def __call__(self, x: Element) -> Element:
        """Apply the differential via the graded Leibniz rule, in one pass.

        The exterior generator at position p of a monomial contributes the
        monomial with it removed, times its image and (-1)^p; the image is
        even, so it commutes into place.
        """
        if x.gens != self.gens:
            raise GeneratorMismatch("element does not live over the differential's generators")
        acc: dict[Mono, int | Fraction] = {}
        mono_mul, ext_at = self.gens.mono_mul, self.gens._ext_at
        for m, coeff in x.terms.items():
            for pos, idx in enumerate(bits(m >> ext_at)):
                image = self.ext_images[idx]
                if image:
                    rest = m - (1 << (ext_at + idx))
                    c = -coeff if pos & 1 else coeff
                    for b, b_c in image.terms.items():
                        # b has no exterior part, so the product's sign is +1
                        if (r := mono_mul(rest, b)) is not None:
                            acc[r[1]] = acc.get(r[1], 0) + c * b_c
        return Element._of(self.gens, acc)


class DegreeSlice(Record):
    """One degree of a cohomology report.

    ``representatives`` is None when the report was computed without them,
    so that reading it then fails loudly rather than reading as no classes.
    """
    __slots__ = ("chain_dim", "dim", "representatives")

    def __init__(self, chain_dim: int, dim: int, representatives: tuple[Element, ...] | None):
        self._set(chain_dim, dim, representatives)


class CohomologyReport(Record):
    """Cohomology up to ``max_degree``, the bound asked for: ``by_degree``
    maps each degree n <= min(max_degree, top) to its :class:`DegreeSlice`.
    The degrees above the top one are empty and are not stored."""
    __slots__ = ("max_degree", "by_degree")

    def __init__(self, max_degree: int, by_degree: dict[int, DegreeSlice]):
        self._set(max_degree, by_degree)

    # equal reports compare equal, but ``by_degree`` is a dict and has no hash
    __hash__ = None

    def dims(self) -> dict[int, int]:
        return {n: s.dim for n, s in self.by_degree.items() if s.dim}


def _block_offsets(by_degree, parts, n: int) -> tuple[dict[int, int], int]:
    """Where each exterior subset with a nonempty block starts in the
    degree-n basis, in subset order, and the size of that basis.

    ``by_degree`` maps an exterior degree to its subset ids, so only the
    subsets whose degree leaves a polynomial bucket are visited.
    """
    blocks = sorted((sid, len(bucket)) for k, bucket in parts.items()
                    for sid in by_degree.get(n - k, ()))
    offsets = {}
    total = 0
    for sid, size in blocks:
        offsets[sid] = total
        total += size
    return offsets, total


class _Layout:
    """The degrees 0..``top`` of a complex laid out by index arithmetic.

    In the order of :func:`basis_of_degree`, y_E c^x of degree n has row
    ``offsets[n][0][E] + pos[x]``, E being a subset id and ``pos[x]`` the
    position of the word x in its :func:`poly_parts` bucket.
    ``images[E]`` lists the terms (T, b, c) of d(y_E c^x) =
    sum c y_T c^(x + b): one per position p in E and term c^b of
    d(y_(E_p)), T being the id of E without E_p and c that term's
    coefficient times (-1)^p and the scale s.

    The code of a polynomial part is its word.  Two parts' words sum with
    no carry out of any field, to the word of x + b when that is a part,
    and otherwise to an int that is no part's word.  So the one lookup
    ``pos.get(x + b)`` in :meth:`_shift` also drops the products that
    break a cap or the truncation.

    The scale s is the lcm of the denominators of d's coefficients, one
    for the whole layout, so every c is an int and every column is a dict
    of nonzero ints, which the rank routes hand to the trusted constructor
    of :mod:`.linalg`.  :meth:`columns` gives s d, of the same ranks, spans
    and kernels as d.
    """

    def __init__(self, gens: GeneratorSet, d: Differential, top: int):
        ext, self.ext_degrees = zip(*exterior_subsets(gens))
        self.parts = poly_parts(gens)
        self.pos = {x: i for bucket in self.parts.values() for i, x in enumerate(bucket)}
        by_degree: dict[int, list[int]] = {}
        for sid, e in enumerate(self.ext_degrees):
            by_degree.setdefault(e, []).append(sid)
        self.offsets = [_block_offsets(by_degree, self.parts, n)
                        for n in range(top + 1)]
        self.ext_id = ext_id = {E: i for i, E in enumerate(ext)}
        # the terms (b, s c) of each d(g), s the lcm of d's denominators
        s = lcm(*(c.denominator for image in d.ext_images for c in image.terms.values()))
        terms = [[(b, c.numerator * (s // c.denominator))
                  for b, c in image.terms.items()] for image in d.ext_images]
        # a subset of degree top or more is never the source of a column
        at = self.ext_at = gens._ext_at
        self.images = [[(ext_id[E - (1 << (at + g))], b, -c if p & 1 else c)
                        for p, g in enumerate(bits(E >> at)) for b, c in terms[g]]
                       if e < top else ()
                       for E, e in zip(ext, self.ext_degrees)]
        self._tables: dict = {}

    def row(self, m: Mono, n: int) -> int:
        """The row of ``m``, a monomial of the complex of degree ``n`` at
        most ``top``, in the degree-n basis."""
        x = m & ((1 << self.ext_at) - 1)
        return self.offsets[n][0][self.ext_id[m - x]] + self.pos[x]

    def _shift(self, k: int, b: Mono) -> list[tuple[int, int]]:
        """``(i, pos[x + b])`` for the parts x of bucket k whose shift
        is a part."""
        table = self._tables.get((k, b))
        if table is None:
            pos = self.pos
            table = self._tables[k, b] = [
                (i, p) for i, x in enumerate(self.parts[k])
                if (p := pos.get(x + b)) is not None]
        return table

    def columns(self, n: int) -> tuple[int, list[dict[int, int]]]:
        """The size of the degree-n basis, and the coordinates of s d on it
        over the degree-(n+1) basis, one column per basis monomial."""
        offsets, chain_dim = self.offsets[n]
        targets = self.offsets[n + 1][0]
        cols: list[dict] = [{} for _ in range(chain_dim)]
        for sid, base in offsets.items():
            k = n - self.ext_degrees[sid]
            for T, b, c in self.images[sid]:
                # a subset with no block in degree n + 1 is reached by no shift
                row = targets.get(T)
                if row is None:
                    continue
                for i, p in self._shift(k, b):
                    cols[base + i][row + p] = c
        return chain_dim, cols


def _representatives(gens: GeneratorSet, basis_n, cols, image: Echelon):
    """The degree-n representatives: the nonzero monic residuals of the
    kernel vectors, in the order of their free columns, each modulo the
    image of d_{n-1} and the earlier kernel vectors.  ``image``, the
    echelon of the columns of d_{n-1}, takes each kernel vector in place
    by :meth:`Echelon.add`, so it holds the degree-n cocycles afterwards."""
    reps = []
    for vec in kernel_from_columns(cols):
        residual = image.add(vec)
        if residual is not None:
            reps.append(Element._of(gens, {basis_n[j]: c for j, c in residual.items()}))
    return tuple(reps)


def _check_gens(gens: GeneratorSet, d: Differential):
    if gens != d.gens:
        raise GeneratorMismatch("the differential lives over a different generator set")


def cohomology(gens: GeneratorSet, d: Differential, max_degree: int | None = None,
               representatives: bool = True) -> CohomologyReport:
    """Exact cohomology dimensions up to ``max_degree``, and representatives
    when ``representatives`` is true (else every slice's are None).

    Every complex is finite, and ``max_degree`` defaults to its top degree,
    the largest degree of a nonzero monomial; the degrees above the top
    one are empty and are neither laid out nor stored, so ``by_degree``
    holds the degrees 0..min(max_degree, top).  Each dimension is
    ``chain_dim - rank d_n - rank d_{n-1}``, rank d_n the rank of the
    :class:`.linalg.Echelon` built from the degree's nonzero columns,
    which :class:`_Layout` computes by index arithmetic up to degree
    ``min(max_degree, top) + 1`` as dicts of ints.  That echelon is kept
    for degree n + 1, whose kernel vectors :func:`_representatives` adds
    to it, so no image row is eliminated twice.
    Monomials are built only to name the
    representatives, by :func:`basis_of_degree` in the degrees with
    classes; the rank route builds none.  The residuals follow a
    deterministic pivot rule, so output is reproducible; their number must
    equal the dimension, a cross-check of the two eliminations.
    """
    _check_gens(gens, d)
    top = gens.top_degree()
    if max_degree is None:
        max_degree = top
    require_int("max_degree", max_degree)
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    last = min(max_degree, top)
    layout = _Layout(gens, d, last + 1)
    by_degree: dict[int, DegreeSlice] = {}
    prev = Echelon()  # the image of d_{n-1}
    for n in range(last + 1):
        chain_dim, cols = layout.columns(n)
        image = Echelon._of([c for c in cols if c])
        dim = chain_dim - image.rank - prev.rank
        reps = None
        if representatives:
            reps = _representatives(gens, basis_of_degree(gens, n), cols,
                                    prev) if dim else ()
            if len(reps) != dim:
                raise RuntimeError(
                    f"degree {n}: {len(reps)} representatives but rank gives dim {dim}")
        by_degree[n] = DegreeSlice(chain_dim, dim, reps)
        prev = image
    return CohomologyReport(max_degree, by_degree)


def classes_mod_image(d: Differential, cocycles) -> tuple[list[bool], bool]:
    """Whether each cocycle is not a coboundary, and whether the cocycles
    are jointly linearly independent modulo coboundaries.

    Each input must live over ``d.gens`` (else :class:`GeneratorMismatch`)
    and have only monomials of the complex as terms (else ``ValueError``),
    both checked on every input in turn; then each must be a cocycle (else
    :class:`NotACocycle`), d(x) being tested for zero.  A zero input reads
    as zero.  Exact: the nonzero columns of s d_{n-1}, for each degree n
    of the support, laid out on one :class:`_Layout` up to the inputs' top
    degree and built into one :class:`IntegerEliminator` by its trusted
    constructor, with row r of degree n at index ``last[n] - r``.  So
    each degree has its own index range (the image of d is graded), and a
    row's pivot is its last target, which keeps the elimination short on
    the frame models.  Each input is reduced against the image without
    being kept, then the inputs are added to it for the joint answer,
    which stops at the first dependent one, both by the checked entries.
    """
    gens = d.gens
    cocycles = list(cocycles)
    for i, x in enumerate(cocycles):
        if x.gens != gens:
            raise GeneratorMismatch(
                f"cocycle {i} does not live over the differential's generators")
        for m in x.terms:
            if not gens.mono_valid(m):
                raise ValueError(f"{m} is not a monomial of the complex")
    for i, x in enumerate(cocycles):
        if dx := d(x):
            raise NotACocycle(f"cocycle {i}: d(x) = {dx} != 0")
    terms = [[(gens.mono_degree(m), m, c) for m, c in x.terms.items()]
             for x in cocycles]
    degrees = sorted({n for row in terms for n, _, _ in row})
    layout = _Layout(gens, d, degrees[-1] if degrees else 0)
    last, size = {}, 0
    for n in degrees:
        size += layout.offsets[n][1]
        last[n] = size - 1
    image = IntegerEliminator._of(
        {last[n] - t: c for t, c in col.items()}
        for n in degrees if n for col in layout.columns(n - 1)[1] if col)
    coords = [{last[n] - layout.row(m, n): c for n, m, c in row} for row in terms]
    nonzero = [image.independent(row) for row in coords]
    return nonzero, all(map(image.add, coords))


def class_nonzero(gens: GeneratorSet, d: Differential, x: Element) -> bool:
    """True iff the cocycle ``x`` is not a coboundary (exact rank test)."""
    _check_gens(gens, d)
    return classes_mod_image(d, [x])[0][0]
