"""Pontrjagin pairings multiplied out in the product ring: the reference the
counted pairings of ``secclasses.models.independence_certificate`` are
tested against.

It shares no counting with that route.  For each test cycle it builds the
product ring and the Whitney sum of the canonical factor bundles, takes
p(n) of that bundle by ring multiplication, and reads off the coefficient
of the fundamental class, the product of the top monomials of the factors.
"""

from __future__ import annotations

from fractions import Fraction

from secclasses.algebra import Element, GeneratorMismatch
from secclasses.models import (BundleMap, Factor, ModelRing, PontrjaginMonomial,
                               canonical_bundle, product_model)


def test_cycle(mono: PontrjaginMonomial) -> ModelRing:
    """The product cycle paired with p(n): (CP^2)^{n_1} x prod S^{4i}^{n_i}."""
    factors = [Factor("cp2", 1)] * (mono.exps[0] if mono.exps else 0)
    for i, e in enumerate(mono.exps[1:], start=2):
        factors.extend([Factor("sphere", i)] * e)
    return product_model(factors)


def pullback(mono: PontrjaginMonomial, bundle: BundleMap) -> Element:
    """p(n) of the bundle, multiplied out in the ring."""
    out = bundle.ring.unit()
    for i, e in enumerate(mono.exps, start=1):
        if e:
            out = out * bundle.p(i) ** e
    return out


def evaluate_on_cycle(x: Element, ring: ModelRing) -> int | Fraction:
    """Pairing with the fundamental class: the top-monomial coefficient,
    the int 0 when x has no top term."""
    if not ring.factors:
        raise ValueError(f"{ring.label} has no fundamental class")
    if x.gens != ring.gens:
        raise GeneratorMismatch("element does not live over the cycle's ring")
    return x.coefficient(ring.gens.pack((), tuple(f.cap for f in ring.factors)))


def pairing_block(group: list[PontrjaginMonomial]):
    """The cycle labels and the pairing matrix of one degree block:
    ``matrix[i][j]`` pairs ``group[i]`` with the test cycle of ``group[j]``."""
    cycles = [test_cycle(m) for m in group]
    bundles = [canonical_bundle(r) for r in cycles]
    matrix = tuple(tuple(evaluate_on_cycle(pullback(cls, b), r)
                         for r, b in zip(cycles, bundles))
                   for cls in group)
    return tuple(r.label for r in cycles), matrix
