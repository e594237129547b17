"""Sign conventions, truncation, and basis enumeration of the algebra core."""

import random
from fractions import Fraction
from itertools import product

import pytest

from secclasses.algebra import (Element, GeneratorMismatch, GeneratorSet,
                                InexactCoefficient, basis_of_degree,
                                count_poly_monomials, exponent_vectors,
                                exterior_subsets, merge_exterior, poly_parts, subsets)
from secclasses.dga import Differential, cohomology
from secclasses.frames import (CharacteristicMap, projective_base_model,
                               projective_reduced_model)
from secclasses.models import Factor, canonical_bundle, product_model
from secclasses.weil import VeyIndex, weil_complex


def test_merge_exterior_signs():
    assert merge_exterior((0,), (1,)) == (0, (0, 1))
    assert merge_exterior((1,), (0,)) == (1, (0, 1))
    assert merge_exterior((0,), (0,)) is None
    assert merge_exterior((), (0, 2)) == (0, (0, 2))
    # two transpositions: 2 jumps over both 0 and 1
    assert merge_exterior((2,), (0, 1)) == (0, (0, 1, 2))
    assert merge_exterior((1, 2), (0,)) == (0, (0, 1, 2))


def test_exterior_anticommute():
    gens, _ = weil_complex(2)
    y1, y2 = gens.generator("y1"), gens.generator("y2")
    assert y1 * y2 == gens.monomial((0, 1), (0, 0))
    assert y2 * y1 == gens.monomial((0, 1), (0, 0), -1)
    assert (y1 * y1).is_zero()


def test_truncation_kills_high_polynomial_degree():
    gens, _ = weil_complex(1)
    c1 = gens.generator("c1")
    assert (c1 * c1).is_zero()  # degree 4 > 2q = 2


def test_truncation_boundary_survives():
    gens, _ = weil_complex(3)
    c1 = gens.generator("c1")
    cube = c1 * c1 * c1  # polynomial degree 6 = 2q exactly
    assert cube == gens.monomial((), (3, 0, 0))
    assert (cube * c1).is_zero()


def test_unit_law():
    gens, _ = weil_complex(2)
    one = gens.unit()
    x = gens.generator("y1") * gens.generator("c2") + gens.generator("c1")
    assert x * one == x
    assert one * x == x


def test_exterior_square_inside_product():
    gens, _ = weil_complex(2)
    y1, c1 = gens.generator("y1"), gens.generator("c1")
    assert (y1 + c1) * y1 == c1 * y1  # y1*y1 = 0


def test_basis_w1():
    gens, _ = weil_complex(1)
    assert basis_of_degree(gens, 3) == (((0,), (1,)),)
    assert basis_of_degree(gens, 0) == (((), (0,)),)
    assert [gens.mono_str(m) for m in basis_of_degree(gens, 3)] == ["y1*c1"]


def test_basis_w2_degree7_against_brute_force():
    gens, _ = weil_complex(2)
    got = set(basis_of_degree(gens, 7))
    # independent brute-force enumeration of the complex
    expected = set()
    for e1, e2 in product((0, 1), repeat=2):
        ext = tuple(i for i, e in enumerate((e1, e2)) if e)
        for a in range(3):
            for b in range(2):
                if 2 * a + 4 * b > 4:
                    continue
                deg = e1 * 1 + e2 * 3 + 2 * a + 4 * b
                if deg == 7:
                    expected.add((ext, (a, b)))
    assert got == expected
    assert [gens.mono_str(m) for m in basis_of_degree(gens, 7)] == \
        ["y2*c2", "y2*c1^2"]


def test_basis_sizes_sum_to_product_formula():
    for q in (1, 2, 3):
        gens, _ = weil_complex(q)
        total = sum(len(basis_of_degree(gens, n))
                    for n in range(gens.top_degree() + 1))
        assert total == (1 << gens.n_exterior) * count_poly_monomials(gens)
        assert total == gens.dimension()


def test_basis_canonical_order_is_deterministic():
    gens, _ = weil_complex(3)
    for n in (5, 7, 9):
        monos = basis_of_degree(gens, n)
        exts = [m[0] for m in monos]
        assert exts == sorted(exts)
        for ext in set(exts):
            exps = [m[1] for m in monos if m[0] == ext]
            assert exps == sorted(exps)


def test_enumerators_match_brute_force_product():
    # a capped generator, an uncapped one and a truncation, all at once
    gens = GeneratorSet((("x", 1), ("y", 3), ("z", 5)),
                        (("a", 2, 2), ("b", 4, None), ("c", 6, 1)),
                        truncation=10)
    weights, caps = (2, 4, 6), (2, None, 1)
    ranges = [range(c + 1) if c is not None else range(10 // w + 1)
              for w, c in zip(weights, caps)]
    vectors = [(e, sum(w * x for w, x in zip(weights, e)))
               for e in product(*ranges)]
    assert list(exponent_vectors(weights, 10, caps)) == \
        [(e, d) for e, d in vectors if d <= 10]
    exts = sorted(tuple(i for i in range(3) if mask >> i & 1)
                  for mask in range(8))
    assert subsets(range(3)) == exts
    for n in range(gens.top_degree() + 2):
        expected = tuple(
            (ext, e) for ext in exts for e, d in vectors
            if d <= 10 and sum((1, 3, 5)[i] for i in ext) + d == n)
        assert basis_of_degree(gens, n) == expected


def test_exterior_subsets_table_is_shared_and_in_subsets_order():
    gens = GeneratorSet((("x", 1), ("y", 3), ("z", 5)), (("a", 2, None),),
                        truncation=4)
    table = exterior_subsets(gens)
    assert [ext for ext, _ in table] == subsets(range(3))
    assert [d for _, d in table] == [0, 1, 4, 9, 6, 3, 8, 5]
    assert exterior_subsets(gens) is table
    assert exterior_subsets(GeneratorSet((), (("a", 2, 1),))) == (((), 0),)


def test_float_coefficients_rejected():
    gens, _ = weil_complex(1)
    m = ((0,), (1,))
    y1 = gens.generator("y1")
    for bad in (lambda: Element(gens, {m: 0.1}),
                lambda: gens.monomial((0,), (1,), coeff=0.5),
                lambda: y1.scale(0.1),
                lambda: 0.5 * y1,
                lambda: y1 * 0.5):
        with pytest.raises(InexactCoefficient):
            bad()
    assert issubclass(InexactCoefficient, TypeError)
    half = Fraction(1, 2)
    assert Element(gens, {m: half}) == gens.monomial((0,), (1,), coeff=half)
    assert 2 * y1 == y1.scale(Fraction(2)) == Element(gens, {((0,), (0,)): 2})


def test_every_internal_route_stores_nonzero_fractions():
    # coefficients are checked once where they enter (the entry points are
    # test_float_coefficients_rejected's); every element built from them
    # holds only nonzero Fractions, whichever route built it
    def exact(x):
        return all(type(c) is Fraction and c for c in x.terms.values())

    gens, d = weil_complex(3)
    y1, y2, c1, c2 = (gens.generator(n) for n in ("y1", "y2", "c1", "c2"))
    x = y1 * c1.scale(Fraction(2, 3)) + y2 - c2 * 3
    routes = [gens.zero(), gens.unit(), y1, x + x, x - x, x + (-x), -x, x * x,
              (x + c1) ** 2, x * y1, x.scale(Fraction(1, 2)), x.scale(0), 5 * x,
              d(x), d(y1 * c1 * c2)]
    delta = CharacteristicMap(projective_base_model(2))
    routes += [delta(VeyIndex(I, J).element(delta.source_gens))
               for I, J in (((2,), (2, 2)), ((1,), (1, 1)), ((2,), (1, 1, 1)))]
    bundle = canonical_bundle(product_model([Factor("cp2", 1)] * 2))
    routes += list(bundle.p_images.values())
    routes += [rep for s in cohomology(*weil_complex(2)).by_degree.values()
               for rep in s.representatives]
    assert x - x == x + (-x) == x.scale(0) == gens.zero()
    assert all(map(exact, routes))


def test_caps_model_projective_plane():
    gens = GeneratorSet((), (("a", 2, 2),))
    a = gens.generator("a")
    assert a * a == gens.monomial((), (2,))
    assert (a * a * a).is_zero()
    assert gens.dimension() == 3


def test_graded_commutativity_randomized():
    rng = random.Random(7)
    gens, _ = weil_complex(4)
    monos = [m for n in range(11) for m in basis_of_degree(gens, n)]
    for _ in range(300):
        a, b = rng.choice(monos), rng.choice(monos)
        ea = Element(gens, {a: Fraction(1)})
        eb = Element(gens, {b: Fraction(1)})
        sign = -1 if (gens.mono_degree(a) * gens.mono_degree(b)) % 2 else 1
        assert ea * eb == (eb * ea).scale(sign)


def test_associativity_and_distributivity_randomized():
    from secclasses.acceptance import random_element
    rng = random.Random(11)
    gens, _ = weil_complex(3)
    for _ in range(200):
        a, b, c = (random_element(gens, rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_generator_mismatch_raises():
    g1, _ = weil_complex(1)
    g2, _ = weil_complex(2)
    with pytest.raises(GeneratorMismatch):
        g1.generator("y1") * g2.generator("y1")
    with pytest.raises(GeneratorMismatch):
        g1.generator("y1") + g2.generator("y1")


def test_canonical_form():
    gens, _ = weil_complex(2)
    x = gens.generator("y1")
    assert (x - x).is_zero()
    assert (x - x).terms == {}
    assert x + x == x.scale(2)


def test_subtraction_of_distinct_elements():
    gens, _ = weil_complex(2)
    y1, c1, c2 = (gens.generator(n) for n in ("y1", "c1", "c2"))
    x = y1 * c1.scale(Fraction(3, 2)) + y1 * c2
    y = y1 * c1.scale(Fraction(3, 2)) - y1 * c2.scale(Fraction(1, 3))
    assert (x - y).terms == {((0,), (0, 1)): Fraction(4, 3)}  # y1*c1 cancels
    assert (x - y) + y == x


def test_degree_and_homogeneity():
    gens, _ = weil_complex(2)
    y1, c1 = gens.generator("y1"), gens.generator("c1")
    assert y1.degree() == 1 and c1.degree() == 2
    with pytest.raises(ValueError):
        (y1 + c1).degree()
    with pytest.raises(ValueError):
        gens.zero().degree()


def test_element_str():
    gens, _ = weil_complex(2)
    x = gens.generator("y1") * gens.generator("c1").scale(Fraction(1, 2))
    assert str(x) == "1/2*y1*c1"
    assert str(gens.zero()) == "0"
    assert str(gens.unit()) == "1"
    assert str(-gens.generator("y2")) == "-y2"


def test_element_constructor_rejects_monomials_outside_the_ring():
    gens, _ = weil_complex(1)
    for m in (((0,), (5,)),    # y1*c1^5, above the truncation
              ((0,), (-1,)),   # a negative exponent
              ((0, 0), (0,)),  # a repeated exterior index
              ((3,), (0,))):   # an exterior index out of range
        with pytest.raises(ValueError, match=r"^invalid monomial"):
            Element(gens, {m: 1})
    with pytest.raises(TypeError, match="^exponent must be an int"):
        Element(gens, {((0,), (1.0,)): 1})


def test_unbounded_ring_is_rejected():
    with pytest.raises(ValueError, match="generator p has no cap"):
        GeneratorSet((), (("p", 2, None),))
    with pytest.raises(ValueError, match="generator q has no cap"):
        GeneratorSet((("x", 1),), (("p", 2, 1), ("q", 4, None)))
    # a truncation or a cap on every generator makes the ring finite
    assert GeneratorSet((), (("p", 2, None),), truncation=4).dimension() == 3
    assert GeneratorSet((), (("p", 2, 3),)).dimension() == 4


def test_top_degree_is_the_largest_nonempty_degree():
    # p1^2 has degree 8 > 6, so the polynomial parts stop at p1 (degree 4)
    # and the top is u1*p1, of degree 7, below 3 + truncation
    gens = GeneratorSet((("u1", 3),), (("p1", 4, None),), truncation=6)
    assert gens.top_degree() == 7
    d = Differential(gens, {"u1": gens.generator("p1")})
    report = cohomology(gens, d)
    assert report.max_degree == 7 and list(report.by_degree) == list(range(8))


def _random_ring(rng):
    """1-4 polynomial generators of degree 2-6, caps None or 0-4,
    truncation 0-12 (redrawn from 1-12 when the ring would be infinite),
    and 0-2 exterior generators of degree 1-5."""
    poly = tuple((f"p{j}", rng.choice((2, 4, 6)), rng.choice((None, 0, 1, 2, 3, 4)))
                 for j in range(rng.randint(1, 4)))
    exterior = tuple((f"x{i}", rng.choice((1, 3, 5))) for i in range(rng.randint(0, 2)))
    truncation = rng.randint(0, 12)
    if truncation == 0 and any(cap is None for _, _, cap in poly):
        with pytest.raises(ValueError, match="has no cap"):
            GeneratorSet(exterior, poly)
        truncation = rng.randint(1, 12)
    return GeneratorSet(exterior, poly, truncation)


RING_SHAPES = [
    # the truncation binds before the caps
    GeneratorSet((("x", 1),), (("a", 2, 4), ("b", 4, 3)), truncation=6),
    # b's degree exceeds the bound, so b never appears
    GeneratorSet((("x", 1), ("y", 3)), (("a", 2, 1), ("b", 6, None)), truncation=4),
    # no truncation: the caps alone bound the ring, one of them 0
    GeneratorSet((("x", 3),), (("a", 2, 2), ("b", 4, 0), ("c", 6, 1))),
]


def test_ring_shape_matches_the_enumeration():
    rng = random.Random(2026)
    rings = RING_SHAPES + [_random_ring(rng) for _ in range(100)]
    for gens in rings:
        parts = [x for bucket in poly_parts(gens).values() for x in bucket]
        assert list(gens._most) == [max(e) for e in zip(*parts)], gens
        assert count_poly_monomials(gens) == len(parts), gens
        ext_total = sum(deg for _, deg in gens.exterior)
        sizes = [len(basis_of_degree(gens, n))
                 for n in range(ext_total + gens._bound + 3)]
        assert gens.dimension() == sum(sizes), gens
        assert gens.top_degree() == max(n for n, size in enumerate(sizes) if size), gens
        basis = {m for n, size in enumerate(sizes) if size
                 for m in basis_of_degree(gens, n)}
        for _ in range(40):
            ext = tuple(sorted(rng.sample(range(gens.n_exterior + 1),
                                          rng.randint(0, gens.n_exterior))))
            exps = tuple(rng.randint(-1, most + 2) for most in gens._most)
            assert gens.mono_valid((ext, exps)) == ((ext, exps) in basis), (gens, ext, exps)


def test_generator_set_validation():
    with pytest.raises(ValueError):
        GeneratorSet((("y", 2),), ())  # even exterior degree
    with pytest.raises(ValueError):
        GeneratorSet((), (("c", 3, None),))  # odd polynomial degree
    with pytest.raises(ValueError):
        GeneratorSet((("y", 1),), (("y", 2, None),))  # duplicate name


@pytest.mark.parametrize("make, name", [
    (lambda: GeneratorSet((("x", 3.0),), ()), "degree of x"),
    (lambda: GeneratorSet((("x", True),), ()), "degree of x"),
    (lambda: GeneratorSet((), (("c", 2.0, None),)), "degree of c"),
    (lambda: GeneratorSet((), (("c", 2, 1.0),)), "cap for c"),
    (lambda: GeneratorSet((), (("c", 2, True),)), "cap for c"),
    (lambda: GeneratorSet((), (("c", 2, None),), 4.0), "truncation"),
    (lambda: GeneratorSet((), (("c", 2, None),), False), "truncation"),
    # c1^1.5 would have degree 3.0, and True would read as c1
    (lambda: weil_complex(2)[0].monomial((), (1.5, 0)), "exponent"),
    (lambda: weil_complex(2)[0].monomial((), (True, 0)), "exponent"),
    (lambda: weil_complex(2)[0].monomial((0.0,), (0, 0)), "exterior index"),
    (lambda: weil_complex(2)[0].monomial((True,), (0, 0)), "exterior index"),
    # 2.0 would fail inside range, and True would read as x ** 1
    (lambda: weil_complex(2)[0].generator("c1") ** 2.0, "exponent"),
    (lambda: weil_complex(2)[0].generator("c1") ** True, "exponent"),
], ids=["float-odd-degree", "bool-odd-degree", "float-even-degree", "float-cap",
        "bool-cap", "float-truncation", "bool-truncation", "float-exponent",
        "bool-exponent", "float-exterior-index", "bool-exterior-index",
        "float-power", "bool-power"])
def test_generator_set_rejects_non_integers(make, name):
    with pytest.raises(TypeError, match=f"^{name} must be an int"):
        make()


def _scanned_generator(gens, name):
    """The generator as the name scan built it before the name index."""
    for i, (n, _) in enumerate(gens.exterior):
        if n == name:
            return Element(gens, {((i,), (0,) * gens.n_poly): 1})
    for j, (n, _, _) in enumerate(gens.poly):
        if n == name:
            exps = tuple(1 if k == j else 0 for k in range(gens.n_poly))
            return Element(gens, {((), exps): 1})
    raise AssertionError(f"no generator named {name!r}")


@pytest.mark.parametrize("gens", [
    pytest.param(lambda: weil_complex(5)[0], id="W5-framed"),
    pytest.param(lambda: weil_complex(5, framed=False)[0], id="W5-unframed"),
    pytest.param(lambda: projective_base_model(3).gens, id="projective-k3"),
    pytest.param(lambda: projective_reduced_model(4)[0], id="projective-reduced-k4"),
])
def test_generator_lookup_equals_the_name_scan(gens):
    gens = gens()
    names = [n for n, _ in gens.exterior] + [n for n, _, _ in gens.poly]
    for name in names:
        got = gens.generator(name)
        assert got == _scanned_generator(gens, name)
        assert list(got.terms.values()) == [1]
    with pytest.raises(KeyError, match="no generator named 'nope'"):
        gens.generator("nope")
