"""Model cohomology rings, Whitney sums, and independence certificates.

The test spaces are finite truncated rings: the projective plane (one
degree-2 generator with cube zero), even spheres S^{4i} (one generator
squaring to zero), and graded tensor products of these.  All generators
here are even-degree, so the Koszul signs in this module are trivial.

A bundle map assigns to each Pontrjagin slot p_i an element of the ring;
Whitney sums combine them by multiplying total classes.  Linear
independence of the Pontrjagin monomials is certified by pairing them
against the fundamental classes of product test cycles and checking exact
ranks, degree block by degree block.  The pairings are counted, with no
ring built, as Pontrjagin numbers of products are (see :func:`_deals`).

Sphere normalization: the pullback of p_k to S^{4k} is a nonzero multiple
of the volume generator; the multiple is taken to be 1.  Every rank
statement is invariant under that column scaling.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, prod
from operator import sub

from .algebra import (Element, GeneratorMismatch, GeneratorSet, Record,
                      exponent_vectors, power_label, require_int)
from .dga import DegreeMismatch
from .linalg import rank

SPHERE_NORMALIZATION_NOTE = (
    "sphere pullbacks normalized so that p_k evaluates to 1 on S^(4k); "
    "ranks are invariant under nonzero column scaling")


class Factor(Record):
    """One factor of a product test space: ``("cp2", 1)``, or S^{4i} as ``("sphere", i)``."""

    __slots__ = ("kind", "index")

    def __init__(self, kind: str, index: int):
        self._set(kind, index)
        require_int("factor index", self.index)
        if self.kind not in ("cp2", "sphere"):
            raise ValueError(f"unknown factor kind {self.kind!r}")
        if self.kind == "sphere" and self.index < 1:
            raise ValueError("sphere factors are S^(4i) with i >= 1")
        if self.kind == "cp2" and self.index != 1:
            raise ValueError(f"the CP^2 factor has index 1, not {self.index}")

    @property
    def gen_degree(self) -> int:
        return 2 if self.kind == "cp2" else 4 * self.index

    @property
    def cap(self) -> int:
        return 2 if self.kind == "cp2" else 1

    @property
    def rank(self) -> int:
        # fiber dimension of the canonical bundle carried by the factor
        return 2 if self.kind == "cp2" else 4 * self.index - 2

    def label(self) -> str:
        return "CP^2" if self.kind == "cp2" else f"S^{4 * self.index}"


class ModelRing(Record):
    """A finite truncated cohomology ring, the product of ``factors`` if given."""

    __slots__ = ("gens", "label", "factors")

    def __init__(self, gens: GeneratorSet, label: str, factors: tuple[Factor, ...] = ()):
        self._set(gens, label, factors)

    def zero(self) -> Element:
        return self.gens.zero()

    def unit(self) -> Element:
        return self.gens.unit()


def cp2() -> ModelRing:
    """CP^2 with one degree-2 generator ``a`` whose cube is zero."""
    return product_model([Factor("cp2", 1)])


def sphere_model(i: int) -> ModelRing:
    """S^{4i} with one degree-4i generator ``s`` squaring to zero."""
    return product_model([Factor("sphere", i)])


def product_model(factors: list[Factor] | tuple[Factor, ...]) -> ModelRing:
    """Tensor product of factor rings.  Generator j is named per position
    (``a1``, ``s2``, ...); a lone factor's is named plainly ``a`` or ``s``."""
    factors = tuple(factors)
    if not factors:
        raise ValueError("a product needs at least one factor")
    suffixes = [""] if len(factors) == 1 else range(1, len(factors) + 1)
    gens = GeneratorSet((), tuple((("a" if f.kind == "cp2" else "s") + str(j),
                                   f.gen_degree, f.cap)
                                  for j, f in zip(suffixes, factors)))
    label = " x ".join(f.label() for f in factors)
    return ModelRing(gens, label, factors)


class BundleMap(Record, eq=False):
    """Pontrjagin (and optional Euler) data of a bundle over a model ring."""

    __slots__ = ("ring", "rank", "p_images", "euler")

    def __init__(self, ring: ModelRing, rank: int, p_images: dict[int, Element],
                 euler: Element | None = None):
        self._set(ring, rank, p_images, euler)
        for i, img in self.p_images.items():
            if img.gens != self.ring.gens:
                raise GeneratorMismatch(f"p_{i} image lives over a different ring")
            if img and img.degree() != 4 * i:
                raise DegreeMismatch(f"p_{i} image must have degree {4 * i}")
        if self.euler is not None and self.euler:
            if self.euler.gens != self.ring.gens:
                raise GeneratorMismatch("Euler image lives over a different ring")
            if self.euler.degree() != self.rank:
                raise DegreeMismatch(f"Euler image must have degree {self.rank}")

    def p(self, i: int) -> Element:
        img = self.p_images.get(i)
        return img if img is not None else self.ring.zero()

    def euler_image(self) -> Element:
        return self.euler if self.euler is not None else self.ring.zero()

    def total_class(self) -> Element:
        total = self.ring.unit()
        for i in sorted(self.p_images):
            total = total + self.p_images[i]
        return total


def canonical_factor_bundles(ring: ModelRing) -> list[BundleMap]:
    """The canonical bundle of each factor, expressed in the product ring."""
    if not ring.factors:
        raise ValueError(f"{ring.label} carries no canonical factor bundles")
    out = []
    for j, f in enumerate(ring.factors):
        gen = ring.gens.generator(ring.gens.poly[j][0])
        if f.kind == "cp2":
            out.append(BundleMap(ring, 2, {1: gen * gen}, euler=gen))
        else:
            out.append(BundleMap(ring, f.rank, {f.index: gen}, euler=None))
    return out


def whitney_sum(bundles: list[BundleMap]) -> BundleMap:
    """Direct sum: total Pontrjagin classes multiply, Euler classes multiply."""
    if not bundles:
        raise ValueError("empty Whitney sum")
    ring = bundles[0].ring
    if any(b.ring.gens != ring.gens for b in bundles):
        raise GeneratorMismatch("Whitney sum factors must live over one ring")
    total = ring.unit()
    for b in bundles:
        total = total * b.total_class()
    p_terms: dict[int, dict] = {}
    for m, c in total.terms.items():
        deg = ring.gens.mono_degree(m)
        if deg == 0:
            continue
        if deg % 4:
            raise AssertionError("total class acquired a non-Pontrjagin degree")
        p_terms.setdefault(deg // 4, {})[m] = c
    p_images = {i: Element._of(ring.gens, terms) for i, terms in p_terms.items()}
    euler = ring.unit()
    for b in bundles:
        e = b.euler_image()
        if e.is_zero():
            euler = ring.zero()
            break
        euler = euler * e
    rank = sum(b.rank for b in bundles)
    return BundleMap(ring, rank, p_images, euler=euler if euler else None)


def canonical_bundle(ring: ModelRing) -> BundleMap:
    """Whitney sum of the canonical factor bundles of a product test space."""
    if not ring.factors:
        raise ValueError(f"{ring.label} has no canonical bundle; build a "
                         "BundleMap explicitly")
    return whitney_sum(canonical_factor_bundles(ring))


class PontrjaginMonomial(Record, order=True):
    """p_1^{n_1} ... p_k^{n_k}, stored as a tuple without trailing zero exponents."""

    __slots__ = ("exps",)

    def __init__(self, exps: tuple[int, ...]):
        self._set(tuple(exps))
        require_int("Pontrjagin exponent", *self.exps)
        if not self.exps or self.exps[-1] == 0:
            raise ValueError("exponent vector must end in a positive entry")
        if any(e < 0 for e in self.exps):
            raise ValueError("exponents must be nonnegative")

    @staticmethod
    def of(*exps: int) -> "PontrjaginMonomial":
        t = tuple(exps)
        while t and t[-1] == 0:
            t = t[:-1]
        return PontrjaginMonomial(t)

    @property
    def degree(self) -> int:
        return sum(4 * i * e for i, e in enumerate(self.exps, start=1))

    def label(self) -> str:
        return power_label((f"p{i}", e) for i, e in enumerate(self.exps, start=1))


def admissible_monomials(q: int) -> list[PontrjaginMonomial]:
    """All Pontrjagin monomials of weight at most q, smallest index first.

    Each one has degree at most 2q, the top of the range where normal
    bundle classes of codimension-q foliations can survive; asserted.
    """
    require_int("q", q)
    if q < 2:
        raise ValueError("q must be at least 2")
    weights = [4 * i - 2 for i in range(1, (q + 2) // 4 + 1)]
    found = [PontrjaginMonomial.of(*exps)
             for exps, _ in exponent_vectors(weights, q, least=1)]
    found.sort(key=lambda m: (len(m.exps), m.exps))
    for m in found:
        if m.degree > 2 * q:
            raise AssertionError(f"{m.label()} violates the degree <= 2q guard")
    return found


def _cycle_label(mono: PontrjaginMonomial) -> str:
    """The test cycle paired with p(n): (CP^2)^{n_1} x prod S^{4i}^{n_i}."""
    factors = [Factor("cp2", 1)] * mono.exps[0]
    for i, e in enumerate(mono.exps[1:], start=2):
        factors.extend([Factor("sphere", i)] * e)
    return " x ".join(f.label() for f in factors)


def _deals(slots: tuple[int, ...], left: tuple[int, ...], memo: dict) -> int:
    """The pairing of p_{i_1} ... p_{i_r}, ``slots`` = (i_1, ..., i_r), with
    the fundamental class of a product of CP^2's and spheres with ``left[j]``
    factors of weight j + 1, on its canonical bundle; memoised in ``memo``.

    Each factor carries one class x with x^2 = 0: a^2, of weight 1, on
    CP^2, and the volume class, of weight i, on S^{4i}.  p_k is the sum of
    the products of these classes over the factor sets of weight k
    (Milnor-Stasheff, *Characteristic Classes*), so the pairing counts the
    ways to deal the factors into the slots, in order, each slot taking
    factors whose weights sum to its own: the window [w, w] of
    :func:`exponent_vectors` enumerates exactly those takes.
    """
    if not slots:
        return int(not any(left))
    if (key := (slots, left)) not in memo:
        w = slots[0]
        memo[key] = sum(prod(map(comb, left, take))
                        * _deals(slots[1:], tuple(map(sub, left, take)), memo)
                        for take, _ in exponent_vectors(range(1, len(left) + 1), w,
                                                        caps=left, least=w))
    return memo[key]


class CertificateBlock(Record):
    """One degree of an independence certificate: ``matrix[i][j]`` pairs
    class i with cycle j, an int on the canonical bundles."""

    __slots__ = ("degree", "classes", "cycles", "matrix", "rank", "full")

    def __init__(self, degree: int, classes: tuple[str, ...], cycles: tuple[str, ...],
                 matrix: tuple[tuple[int | Fraction, ...], ...], rank: int, full: bool):
        self._set(degree, classes, cycles, matrix, rank, full)


class IndependenceReport(Record):
    __slots__ = ("q", "monomials", "blocks", "passed", "note")

    def __init__(self, q: int, monomials: tuple[str, ...],
                 blocks: tuple[CertificateBlock, ...], passed: bool,
                 note: str = SPHERE_NORMALIZATION_NOTE):
        self._set(q, monomials, blocks, passed, note)


def independence_certificate(q: int) -> IndependenceReport:
    """Pair every admissible monomial against its test cycle, block by block.

    Block for degree n: rows are the monomials of that degree, columns the
    test cycles of those same monomials; passes when the exact rank equals
    the number of rows in every block.
    """
    monos = admissible_monomials(q)
    by_degree: dict[int, list[PontrjaginMonomial]] = {}
    for m in monos:
        by_degree.setdefault(m.degree, []).append(m)
    blocks, memo = [], {}
    for degree in sorted(by_degree):
        group = by_degree[degree]
        matrix = []
        for cls in group:
            slots = tuple(i for i, e in enumerate(cls.exps, start=1) for _ in range(e))
            matrix.append(tuple(_deals(slots, cycle.exps, memo) for cycle in group))
        block_rank = rank({j: v for j, v in enumerate(row) if v} for row in matrix)
        blocks.append(CertificateBlock(
            degree,
            tuple(m.label() for m in group),
            tuple(_cycle_label(m) for m in group),
            tuple(matrix),
            block_rank,
            block_rank == len(group),
        ))
    return IndependenceReport(q, tuple(m.label() for m in monos),
                              tuple(blocks), all(b.full for b in blocks))


def verify_symmetric_multiple(k: int, ell: int) -> tuple[Fraction, bool]:
    """Ratio p_ell / p_1^ell for the canonical sum over (CP^2)^k.

    Returns (ratio, proportional).  Squares of the degree-2 generators cap
    out, so the ratio is 1/ell! whenever 1 <= ell <= k; there p_ell =
    e_ell(a_1^2, ..., a_k^2) and p_1^ell are both nonzero.
    """
    require_int("k", k)
    require_int("ell", ell)
    if not (1 <= ell <= k):
        raise ValueError("need 1 <= ell <= k")
    ring = product_model([Factor("cp2", 1)] * k)
    bundle = canonical_bundle(ring)
    p_ell = bundle.p(ell)
    p1_pow = bundle.p(1) ** ell
    m, c = p_ell.sorted_terms()[0]
    # two ints would divide to a float
    ratio = Fraction(c) / p1_pow.coefficient(m)
    return ratio, p_ell == p1_pow.scale(ratio)
