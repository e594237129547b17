"""Model rings, Whitney sums, pairings, and the independence certificates."""

import random
from fractions import Fraction
from math import factorial

import pytest

from secclasses.algebra import GeneratorSet, basis_of_degree
from secclasses.linalg import Echelon
from secclasses.models import (Factor, ModelRing, PontrjaginMonomial,
                               _deals, admissible_monomials, canonical_bundle,
                               canonical_factor_bundles, cp2, independence_certificate,
                               product_model, sphere_model, verify_symmetric_multiple,
                               whitney_sum)
from ring_pairings import evaluate_on_cycle, pairing_block, pullback
from ring_pairings import test_cycle as cycle_for


def test_cp2_ring():
    ring = cp2()
    assert ring.gens.dimension() == 3
    a = ring.gens.generator("a")
    assert evaluate_on_cycle(a * a, ring) == 1
    assert (a ** 3).is_zero()


def test_sphere_ring():
    ring = sphere_model(2)
    assert ring.label == "S^8"
    assert ring.gens.dimension() == 2
    s = ring.gens.generator("s")
    assert (s * s).is_zero()
    assert evaluate_on_cycle(s, ring) == 1


@pytest.mark.parametrize("ring, factor, name", [
    (cp2(), Factor("cp2", 1), "a"),
    (sphere_model(1), Factor("sphere", 1), "s"),
    (sphere_model(3), Factor("sphere", 3), "s"),
], ids=["cp2", "S4", "S12"])
def test_one_factor_rings_are_one_factor_products(ring, factor, name):
    assert ring == product_model([factor])
    assert [n for n, _, _ in ring.gens.poly] == [name]
    assert ring.label == factor.label() and ring.factors == (factor,)


def test_product_ring():
    ring = product_model([Factor("cp2", 1), Factor("cp2", 1)])
    assert ring.gens.dimension() == 9
    a1, a2 = ring.gens.generator("a1"), ring.gens.generator("a2")
    assert evaluate_on_cycle((a1 * a1) * (a2 * a2), ring) == 1
    assert evaluate_on_cycle(a1 * a2, ring) == 0


def _pontrjagin_ring(q: int) -> GeneratorSet:
    """p_i of degree 4i for i <= min(bound, (q+2)//4), and e of degree q
    when q is even, truncated above degree q + 2; bound counts the
    independent p_i of a rank-q bundle (the top one of an even rank is
    the Euler square)."""
    bound = q // 2 - 1 if q % 2 == 0 else (q - 1) // 2
    poly = [(f"p{i}", 4 * i, None) for i in range(1, min(bound, (q + 2) // 4) + 1)]
    if q % 2 == 0:
        poly.append(("e", q, None))
    return GeneratorSet((), tuple(poly), truncation=q + 2)


def test_x_ring_truncation():
    for q in range(2, 9):
        gens = _pontrjagin_ring(q)
        monos = [m for n in range(gens.top_degree() + 1)
                 for m in basis_of_degree(gens, n)]
        for a in monos:
            for b in monos:
                r = gens.mono_mul(a, b)
                if gens.mono_degree(a) + gens.mono_degree(b) > q + 2:
                    assert r is None
                else:
                    assert r is not None


def test_whitney_pullback_examples():
    ring = product_model([Factor("cp2", 1), Factor("cp2", 1)])
    factors = canonical_factor_bundles(ring)
    a1, a2 = ring.gens.generator("a1"), ring.gens.generator("a2")
    p1 = pullback(PontrjaginMonomial.of(1), whitney_sum(factors))
    assert p1 == a1 * a1 + a2 * a2
    p2 = pullback(PontrjaginMonomial.of(0, 1), whitney_sum(factors))
    assert p2 == (a1 * a1) * (a2 * a2)

    s8 = sphere_model(2)
    bundle = canonical_bundle(s8)
    assert pullback(PontrjaginMonomial.of(1), bundle).is_zero()
    assert pullback(PontrjaginMonomial.of(0, 1), bundle) == s8.gens.generator("s")


def test_evaluate_examples():
    ring = product_model([Factor("cp2", 1), Factor("cp2", 1)])
    bundle = canonical_bundle(ring)
    sq = bundle.p(1) ** 2
    assert evaluate_on_cycle(sq, ring) == 2
    assert evaluate_on_cycle(bundle.p(2), ring) == 1
    with pytest.raises(ValueError):
        no_top = ModelRing(_pontrjagin_ring(4), "X(4)")
        evaluate_on_cycle(no_top.unit(), no_top)


def test_admissible_monomials():
    assert [m.label() for m in admissible_monomials(2)] == ["p1"]
    assert [m.label() for m in admissible_monomials(4)] == ["p1", "p1^2"]
    six = admissible_monomials(6)
    assert [m.label() for m in six] == ["p1", "p1^2", "p1^3", "p2"]
    assert [m.degree for m in six] == [4, 8, 12, 8]
    with pytest.raises(ValueError):
        admissible_monomials(1)


def test_certificate_q4_blocks():
    report = independence_certificate(4)
    assert report.passed
    assert [b.degree for b in report.blocks] == [4, 8]
    for b in report.blocks:
        assert len(b.classes) == 1 and b.matrix[0][0] != 0


def test_certificate_q6_degree8_block():
    report = independence_certificate(6)
    assert report.passed
    block = next(b for b in report.blocks if b.degree == 8)
    assert block.classes == ("p1^2", "p2")
    assert block.cycles == ("CP^2 x CP^2", "S^8")
    assert block.matrix == ((Fraction(2), Fraction(0)),
                            (Fraction(1), Fraction(1)))
    assert block.rank == 2


def test_counted_pairings_equal_the_ring_oracle():
    # every block of every certificate up to q = 22, entry by entry and in
    # type, against p(n) multiplied out in each cycle's ring
    for q in range(2, 23):
        monos = admissible_monomials(q)
        for block in independence_certificate(q).blocks:
            group = [m for m in monos if m.degree == block.degree]
            cycles, matrix = pairing_block(group)
            assert block.classes == tuple(m.label() for m in group)
            assert (block.cycles, block.matrix) == (cycles, matrix)
            assert [type(v) for row in block.matrix for v in row] == \
                [type(v) for row in matrix for v in row]


def test_counted_pairings_of_every_degree_equal_the_ring_oracle():
    # each class against each test cycle, of its own degree or another: off
    # the diagonal a slot can take no factors short of its weight, so the
    # count reads 0 as the ring does
    monos = admissible_monomials(10)
    for cycle in monos:
        ring = cycle_for(cycle)
        bundle = canonical_bundle(ring)
        for cls in monos:
            slots = tuple(i for i, e in enumerate(cls.exps, start=1) for _ in range(e))
            assert _deals(slots, cycle.exps, {}) == \
                evaluate_on_cycle(pullback(cls, bundle), ring), (cls, cycle)


def test_certificates_pass_up_to_q10():
    for q in (2, 3, 5, 7, 10):
        assert independence_certificate(q).passed


def test_whitney_naturality_randomized():
    rng = random.Random(31)
    ring = product_model([Factor("cp2", 1)] * 3 + [Factor("sphere", 2)])
    bundle = canonical_bundle(ring)
    for _ in range(40):
        ma = (rng.randint(0, 2), rng.randint(0, 1))
        nb = (rng.randint(0, 2), rng.randint(0, 1))
        if not any(ma) or not any(nb):
            continue
        m, n = PontrjaginMonomial.of(*ma), PontrjaginMonomial.of(*nb)
        combined = PontrjaginMonomial.of(*(a + b for a, b in zip(ma, nb)))
        assert pullback(combined, bundle) == pullback(m, bundle) * pullback(n, bundle)


def test_pairing_cycle_construction():
    ring = cycle_for(PontrjaginMonomial.of(2, 1))
    assert ring.label == "CP^2 x CP^2 x S^8"
    assert [f.kind for f in ring.factors] == ["cp2", "cp2", "sphere"]


def test_whitney_sum_rank_and_euler():
    ring = product_model([Factor("cp2", 1), Factor("cp2", 1)])
    bundle = whitney_sum(canonical_factor_bundles(ring))
    assert bundle.rank == 4
    a1, a2 = ring.gens.generator("a1"), ring.gens.generator("a2")
    assert bundle.euler_image() == a1 * a2
    assert bundle.p(2) == bundle.euler_image() ** 2


def test_symmetric_multiple():
    assert verify_symmetric_multiple(2, 2) == (Fraction(1, 2), True)
    assert verify_symmetric_multiple(3, 3) == (Fraction(1, 6), True)
    for k in (1, 2, 3, 4):
        ratio, ok = verify_symmetric_multiple(k, 1)
        assert ok and ratio == 1
    with pytest.raises(ValueError):
        verify_symmetric_multiple(2, 3)


def test_every_division_stays_exact():
    # fed an int or an integral Fraction, every public route that divides or
    # returns a coefficient gives an int or a Fraction: two ints must never
    # divide to a float, and no value is a bool
    def exact(*values):
        return all(type(v) in (int, Fraction) for v in values)

    for k in range(1, 6):
        for ell in range(1, k + 1):
            ratio, ok = verify_symmetric_multiple(k, ell)
            assert ok and type(ratio) is Fraction and ratio == Fraction(1, factorial(ell))
    ring = product_model([Factor("cp2", 1)] * 2)
    a1, a2 = (ring.gens.generator(n) for n in ("a1", "a2"))
    x, absent = a1 * a1 * a2 * a2 - a1 * a2, next(iter(a1.terms))
    top = ring.gens.pack((), (2, 2))
    for c in (3, Fraction(3), Fraction(3, 2)):
        y = x.scale(c)
        values = (*y.terms.values(), y.coefficient(top), y.coefficient(absent),
                  evaluate_on_cycle(y, ring), evaluate_on_cycle(y * a1, ring))
        assert exact(*values) and values[-4:] == (c, 0, c, 0)
    for two, three in ((2, 3), (Fraction(2), Fraction(3))):
        echelon = Echelon()
        first = echelon.add({0: two, 1: three, 2: 2 * two})
        second = echelon.add({1: 2 * two, 2: three})
        assert first == {0: 1, 1: Fraction(3, 2), 2: 2}
        assert second == {1: 1, 2: Fraction(3, 4)}
        assert exact(*first.values(), *second.values())
    report = independence_certificate(10)
    assert report.passed
    assert all(exact(*row) for block in report.blocks for row in block.matrix)


@pytest.mark.parametrize("make, name", [
    (lambda: sphere_model(1.5), "factor index"),
    (lambda: sphere_model(True), "factor index"),
    (lambda: Factor("sphere", 1.5), "factor index"),
    (lambda: Factor("cp2", 1.0), "factor index"),
    # p1^1.5 would have degree 6.0
    (lambda: PontrjaginMonomial((1.5,)), "Pontrjagin exponent"),
    (lambda: PontrjaginMonomial((0, True)), "Pontrjagin exponent"),
    (lambda: PontrjaginMonomial.of(2.0), "Pontrjagin exponent"),
], ids=["sphere-model-float", "sphere-model-bool", "factor-float", "cp2-float",
        "pontrjagin-float", "pontrjagin-bool", "pontrjagin-of-float"])
def test_non_integer_factor_index_rejected(make, name):
    with pytest.raises(TypeError, match=f"^{name} must be an int"):
        make()


@pytest.mark.parametrize("index", [0, 2, -1])
def test_cp2_factor_index_must_be_1(index):
    # any other index would build an ordinary CP^2 unequal to Factor("cp2", 1)
    with pytest.raises(ValueError, match="index 1"):
        Factor("cp2", index)
