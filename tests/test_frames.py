"""Frame-bundle Koszul models, characteristic maps, and certificates."""

import ast
import functools
import random
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import secclasses
from secclasses import dga
from secclasses.algebra import (Element, GeneratorMismatch, SecclassesError, basis_of_degree,
                               subsets)
from secclasses.dga import DegreeMismatch, Differential
from secclasses.frames import (CertifiedClass, CharacteristicMap, FrameModel, IndexOutOfRange,
                               _certificate, _GeneratorMap, _inclusion, _rigid_family,
                               build_frame_model, certify_projective_family,
                               certify_sphere_family, fiber_primitive_count,
                               permanence_family, projective_base_model,
                               projective_reduced_model, sphere_base_model,
                               sphere_reduced_model)
from secclasses.models import (BundleMap, Factor, admissible_monomials,
                               canonical_bundle, cp2, independence_certificate,
                               product_model, sphere_model, verify_symmetric_multiple,
                               whitney_sum)
from secclasses.weil import (VeyIndex, spherical_rigid_classes, spherical_rigid_count,
                             vey_basis, weil_complex)
from ring_pairings import evaluate_on_cycle
from test_dga import _random_in_degree
from test_linalg import _where


def test_fiber_primitive_counts():
    assert fiber_primitive_count(3) == 1
    assert fiber_primitive_count(4) == 1
    assert fiber_primitive_count(5) == 2
    assert fiber_primitive_count(6) == 2
    assert fiber_primitive_count(7) == 3
    assert fiber_primitive_count(8) == 3


def test_projective_full_model_structure():
    base = product_model([Factor("cp2", 1), Factor("cp2", 1)])
    model = build_frame_model(base, canonical_bundle(base), 4)
    assert model.gens.exterior == (("u1", 3), ("v", 3))
    a1, a2 = (model.gens.generator(n) for n in ("a1", "a2"))
    assert model.d(model.gens.generator("u1")) == a1 * a1 + a2 * a2
    assert model.d(model.gens.generator("v")) == a1 * a2
    assert model.dimension() == 36


def test_sphere_model_structure():
    model = sphere_base_model(2)  # q = 6 over S^8
    assert model.gens.exterior == (("u1", 3), ("u2", 7), ("v", 5))
    s = model.gens.generator("s")
    assert model.d(model.gens.generator("u2")) == s
    assert model.d(model.gens.generator("u1")).is_zero()
    assert model.d(model.gens.generator("v")).is_zero()
    assert model.dimension() == 16


@pytest.mark.parametrize("k", range(2, 5))
def test_sphere_base_model_carries_the_canonical_bundle(k):
    # BundleMap compares by identity, so the fields are compared
    bundle = sphere_base_model(k).bundle
    assert bundle.ring == sphere_model(k)
    assert bundle.p_images == {k: bundle.ring.gens.generator("s")}
    assert bundle.rank == 4 * k - 2
    assert bundle.euler is None


@pytest.mark.parametrize("k", range(2, 9))
def test_projective_reduced_differential_is_t_power_over_factorial(k):
    gens, d = projective_reduced_model(k)
    t = gens.generator("t")
    for i in range(1, k):
        assert d(gens.generator(f"u{i}")) == (t ** i).scale(Fraction(1, factorial(i)))


def test_zero_bundle_model_is_kuenneth():
    base = cp2()
    bundle = BundleMap(base, 5, {})
    model = build_frame_model(base, bundle, 5)
    report = dga.cohomology(model.gens, model.d)
    # cohomology is base tensor exterior fiber: dimensions multiply
    base_dims = {0: 1, 2: 1, 4: 1}
    fiber_dims = {0: 1, 3: 1, 7: 1, 10: 1}
    for n, s in report.by_degree.items():
        expected = sum(b * fiber_dims.get(n - bn, 0)
                       for bn, b in base_dims.items())
        assert s.dim == expected
    total = sum(s.dim for s in report.by_degree.values())
    assert total == 3 * 4


def test_degree_mismatch_rejected():
    base = cp2()
    a = base.gens.generator("a")
    with pytest.raises(DegreeMismatch):
        BundleMap(base, 4, {1: a})  # p_1 image must have degree 4


def test_an_euler_image_of_the_wrong_degree_is_rejected():
    # a rank-2 bundle passes its own check, but in a q = 4 model d v must
    # have degree 4 and its Euler image a1 has degree 2
    base = product_model([Factor("cp2", 1), Factor("cp2", 1)])
    bundle = BundleMap(base, 2, {}, euler=base.gens.generator("a1"))
    with pytest.raises(DegreeMismatch, match="must have degree"):
        build_frame_model(base, bundle, 4)


def test_a_bundle_of_another_rank_is_rejected():
    # a rank-2 bundle over (CP^2)^2 has no q = 5 model, nor a q = 4 one
    # without the Euler transgression, though each passes the degree checks
    base = product_model([Factor("cp2", 1), Factor("cp2", 1)])
    a1 = base.gens.generator("a1")
    bundle = BundleMap(base, 2, {1: a1 * a1}, euler=a1)
    with pytest.raises(DegreeMismatch, match="rank-2 bundle"):
        build_frame_model(base, bundle, 5)
    with pytest.raises(DegreeMismatch, match="rank-2 bundle"):
        build_frame_model(base, bundle, 4, include_euler=False)


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: build_frame_model(cp2(), canonical_bundle(cp2()), 1),
                 ValueError, "frame models need q >= 2", id="build_frame_model-q"),
    pytest.param(lambda: CharacteristicMap(projective_base_model(2))(_a1()),
                 GeneratorMismatch, "element does not live over the map's source",
                 id="generator-map-source"),
])
def test_frame_input_checks_raise_their_exception_and_message(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert caught.type is error and str(caught.value) == message


def _cp2_squared():
    return product_model([Factor("cp2", 1), Factor("cp2", 1)])


def _a1():
    """A degree-2 element over (CP^2)^2, foreign to CP^2."""
    return _cp2_squared().gens.generator("a1")


# the sites of models and frames; Differential's is in test_dga
@pytest.mark.parametrize("call", [
    pytest.param(lambda: BundleMap(cp2(), 4, {1: _a1() * _a1()}), id="BundleMap-p"),
    pytest.param(lambda: BundleMap(cp2(), 2, {}, euler=_a1()), id="BundleMap-euler"),
    pytest.param(lambda: whitney_sum([BundleMap(cp2(), 2, {}),
                                      BundleMap(_cp2_squared(), 2, {})]), id="whitney_sum"),
    pytest.param(lambda: evaluate_on_cycle(_a1() * _a1(), cp2()), id="evaluate_on_cycle"),
    pytest.param(lambda: build_frame_model(cp2(), BundleMap(_cp2_squared(), 2, {}), 2),
                 id="build_frame_model"),
])
def test_a_value_over_a_foreign_ring_raises_generator_mismatch(call):
    with pytest.raises(GeneratorMismatch, match="live") as caught:
        call()
    # still a ValueError and a package error, so the CLI exits 4 with the same message
    assert isinstance(caught.value, ValueError) and isinstance(caught.value, SecclassesError)


def test_characteristic_map_checks_the_chain_property():
    # d u_1 = 2 p_1 breaks d(delta(y2)) = delta(c2) = p_1
    model = projective_base_model(2)
    u1 = model.gens.generator("u1")
    wrong = FrameModel(model.q, model.base, model.bundle, model.gens,
                       Differential(model.gens, {"u1": model.d(u1).scale(2)}),
                       model.has_euler_transgression)
    with pytest.raises(DegreeMismatch, match="commute with d on y2"):
        CharacteristicMap(wrong)


def test_an_inclusion_image_of_the_wrong_degree_is_rejected():
    # t sent to the image of c_4 (degree 8) instead of c_2's (degree 4)
    delta = CharacteristicMap(projective_base_model(2))
    with pytest.raises(DegreeMismatch, match="image of t has the wrong degree"):
        _inclusion(delta, projective_reduced_model(2), "c4")


def _two_classes(gens):
    """u1*a1^2*a2^2, the certified class over (CP^2)^2, and a1, both
    nonzero cocycles of projective_base_model(2), and a1*a2^2 = d(u1*a1),
    a coboundary, so a zero class."""
    return (gens.monomial((0,), (2, 2)), gens.generator("a1"),
            gens.monomial((), (1, 2)))


@pytest.mark.parametrize("broken, why, fixed", [
    # the same class twice, each nonzero, then once
    pytest.param(lambda x, a, b: ([x, x], []),
                 lambda c: not c.jointly_independent and all(e.nonzero for e in c.classes),
                 lambda x, a, b: ([x, a], []), id="not-independent"),
    # a coboundary among the rigid classes, then dropped
    pytest.param(lambda x, a, b: ([x, b], []),
                 lambda c: [e.nonzero for e in c.classes] == [True, False],
                 lambda x, a, b: ([x], []), id="zero-rigid-class"),
    # an expected-zero entry whose image is nonzero, then zero
    pytest.param(lambda x, a, b: ([x], [a]),
                 lambda c: c.jointly_independent and c.classes[-1].nonzero,
                 lambda x, a, b: ([x], [a.gens.zero()]), id="nonzero-expected-zero"),
])
def test_the_certificate_fails_on_each_broken_condition(broken, why, fixed):
    model = projective_base_model(2)
    classes = _two_classes(model.gens)
    assert model.d(model.gens.monomial((0,), (1, 0))) == classes[2]

    def certify(make):
        rigid, vanishing = make(*classes)
        return _certificate(model, model.d,
                            [(f"x{i}", x, x, None) for i, x in enumerate(rigid)],
                            [(f"z{i}", x, None) for i, x in enumerate(vanishing)])
    cert = certify(broken)
    assert not cert.passed and why(cert)
    assert certify(fixed).passed


def test_chain_map_property_randomized():
    from secclasses.acceptance import random_element
    rng = random.Random(41)
    cases = []
    base = product_model([Factor("cp2", 1), Factor("cp2", 1)])
    cases.append(build_frame_model(base, canonical_bundle(base), 4))
    cases.append(sphere_base_model(2))
    for model in cases:
        delta = CharacteristicMap(model)
        gens_w = delta.source_gens
        d_w = delta.source_d
        d_m = model.d
        for _ in range(100):
            x = random_element(gens_w, rng)
            assert delta(d_w(x)) == d_m(delta(x))


def test_top_even_generator_image_in_full_model():
    base = product_model([Factor("cp2", 1), Factor("cp2", 1)])
    model = build_frame_model(base, canonical_bundle(base), 4)
    delta = CharacteristicMap(model)
    y4 = delta.source_gens.generator("y4")
    image = delta(y4)
    v = model.gens.generator("v")
    a1, a2 = (model.gens.generator(n) for n in ("a1", "a2"))
    assert image == v * (a1 * a2)
    assert model.d(image) == delta(delta.source_gens.generator("c4"))


def test_certificate_model_drops_euler_transgression():
    model = projective_base_model(2)
    assert [n for n, _ in model.gens.exterior] == ["u1"]
    delta = CharacteristicMap(model)
    with pytest.raises(IndexOutOfRange):
        delta(delta.source_gens.generator("y4"))


def test_projective_certificates():
    cert = certify_projective_family(2)
    assert cert.passed and cert.jointly_independent
    assert [c.source for c in cert.classes] == ["y2*c2^2"]
    assert cert.classes[0].image == "2*u1*a1^2*a2^2"
    assert cert.classes[0].degree == 11

    cert3 = certify_projective_family(3)
    assert cert3.passed
    assert [(c.source, c.degree) for c in cert3.classes] == \
        [("y2*c2^3", 15), ("y2*y4*c2^3", 22)]
    with pytest.raises(ValueError):
        certify_projective_family(1)


def test_sphere_certificate():
    cert = certify_sphere_family(2)
    assert cert.passed
    nonzero = [c for c in cert.classes if not c.expected_zero]
    assert [(c.source, c.image) for c in nonzero] == [("y4*c4", "u2*s")]
    vanishing = [c for c in cert.classes if c.expected_zero]
    assert len(vanishing) == 1
    assert vanishing[0].source == "y2*c2^3"
    assert not vanishing[0].nonzero
    with pytest.raises(ValueError):
        certify_sphere_family(1)


def test_sphere_characteristic_images():
    model = sphere_base_model(2)
    delta = CharacteristicMap(model)
    gens_w = delta.source_gens
    image = delta(VeyIndex((4,), (4,)).element(gens_w))
    assert image == model.gens.monomial((1,), (1,))  # u2 * s
    assert delta(VeyIndex((2,), (2, 2, 2)).element(gens_w)).is_zero()


def test_permanence_seed_only():
    cert = permanence_family((2,), (2, 2), 4, ())
    assert cert.passed
    assert len(cert.classes) == 1
    assert cert.classes[0].degree == 11


def test_permanence_adds_twisted_class():
    cert = permanence_family((2,), (2, 2, 2), 6, (2,))
    assert cert.passed
    degrees = sorted(c.degree for c in cert.classes)
    assert degrees == [15, 22]  # 2q+3 and 2q+3 + (4*2-1)
    labels = [c.source for c in cert.classes]
    assert any("twisted" in lbl for lbl in labels)


def test_permanence_strictness_and_range():
    with pytest.raises(ValueError):
        permanence_family((4,), (4,), 6, (2,))  # i_last = 4 is not < 2r = 4
    with pytest.raises(IndexOutOfRange):
        permanence_family((2,), (2, 2), 4, (3,))  # y6 does not exist for q=4
    with pytest.raises(IndexOutOfRange):
        permanence_family((2,), (2, 2, 2), 6, (3,))  # no Tp_3 in SO(6)
    with pytest.raises(ValueError):
        permanence_family((2,), (1, 1), 4, ())  # not a basis member
    with pytest.raises(ValueError):
        permanence_family((2,), (2, 2, 2), 6, (2, 2))  # not strictly increasing


def test_permanence_from_an_even_degree_seed():
    # an even seed degree makes the sphere class a polynomial generator x
    # with x^2 = 0, in place of an exterior one
    seed = VeyIndex((2, 4), (2, 2, 2, 2))
    assert seed.degree == 26
    cert = permanence_family(seed.I, seed.J, 8, (3,))
    assert cert.passed and cert.jointly_independent
    assert cert.model_label == "SO(8) x S^26"
    assert [(c.source, c.image, c.degree, c.nonzero) for c in cert.classes] == [
        ("y2*y4*c2^4", "x", 26, True),
        ("y2*y4*c2^4 twisted by y6", "u3*x", 37, True)]


def test_permanence_degree_bookkeeping():
    # degree of the twisted class is seed degree + sum(4r - 1)
    seed = VeyIndex((2,), (2, 2, 2))
    cert = permanence_family(seed.I, seed.J, 6, (2,))
    by_label = {c.source: c.degree for c in cert.classes}
    assert by_label[seed.label()] == seed.degree == 15
    assert by_label[f"{seed.label()} twisted by y4"] == seed.degree + 7


def test_certified_classes_are_rigid():
    for k in (2, 3):
        cert = certify_projective_family(k)
        for cls in cert.classes:
            assert cls.vey.label() == cls.source
            assert cls.vey.J == (2,) * k
            assert cls.vey.is_rigid(2 * k)


def test_catalog_classes_are_certified():
    # every class ``catalog`` lists is a nonzero class of a passing frame
    # certificate: family A of the projective one for k = q/2, family B
    # (q = 4k - 2) of the sphere one
    for q in range(4, 25, 2):
        entries = spherical_rigid_classes(q)
        for family, certify, k in (("A", certify_projective_family, q // 2),
                                   ("B", certify_sphere_family, (q + 2) // 4)):
            listed = {e.vey for e in entries if e.family == family}
            if listed:
                cert = certify(k)
                assert cert.passed, (q, family)
                assert listed <= {c.vey for c in cert.classes if c.nonzero}, (q, family)


def test_sphere_model_euler_honest_zero():
    # the Euler image over a sphere base is zero, so v is a cycle there
    model = sphere_base_model(3)  # q = 10 over S^12
    assert model.d(model.gens.generator("v")).is_zero()
    assert model.has_euler_transgression


def naive_characteristic_map(delta, x):
    """Oracle: the map term by term, powers recomputed, sums built pairwise."""
    gens = delta.model.gens
    out = gens.zero()
    for m, coeff in x.terms.items():
        ext, exps = x.gens.unpack(m)
        term = gens.unit().scale(coeff)
        for pos in ext:
            term = term * delta.ext_images[pos]
        for j, e in enumerate(exps):
            term = term * delta.poly_images[j] ** e
        out = out + term
    return out


def test_characteristic_map_matches_naive_route():
    # the one-dict accumulation and the cached powers c_j^e change nothing,
    # including the printed form, and reusing a cached power is safe
    from secclasses.acceptance import random_element
    rng = random.Random(53)
    for model in (projective_base_model(2), projective_base_model(3),
                  sphere_base_model(2)):
        delta = CharacteristicMap(model)
        housed = {i for i, img in enumerate(delta.ext_images) if img is not None}
        top = VeyIndex((2,), (2,) * (model.q // 2)).element(delta.source_gens)
        samples = [top, top]  # the second call reuses the cached power
        for _ in range(60):
            x = random_element(delta.source_gens, rng, n_terms=5)
            samples.append(Element(x.gens, {m: c for m, c in x.terms.items()
                                            if housed.issuperset(x.gens.unpack(m)[0])}))
        for x in samples:
            got = delta(x)
            assert got == naive_characteristic_map(delta, x)
            assert str(got) == str(naive_characteristic_map(delta, x))


def test_a_zero_element_leaves_the_certified_classes_dependent():
    # the certificates follow dga.classes_mod_image's one zero rule: a zero
    # element reads as zero, and no family holding it is independent
    model = projective_base_model(2)
    x = model.gens.monomial((0,), (2, 2))  # u1*a1^2*a2^2
    elements = [x, model.gens.zero()]
    cert = _certificate(model, model.d, [(label, e, e, None)
                                         for label, e in zip(["x", "zero"], elements)])
    assert [e.nonzero for e in cert.classes] == [True, False]
    assert [(e.image, e.degree) for e in cert.classes] == [(str(x), 11), ("0", None)]
    assert cert.jointly_independent is False and cert.passed is False
    assert dga.classes_mod_image(model.d, elements) == ([True, False], False)


def _basis_after_int(n):
    gens, _ = weil_complex(2)
    assert basis_of_degree(gens, int(n))
    return basis_of_degree(gens, n)


@pytest.mark.parametrize("call, name", [
    (lambda: certify_projective_family(2.0), "k"),
    (lambda: certify_projective_family(True), "k"),
    (lambda: certify_sphere_family(2.0), "k"),
    (lambda: projective_base_model(2.0), "k"),
    (lambda: sphere_base_model(2.0), "k"),
    (lambda: projective_reduced_model(3.0), "k"),
    (lambda: sphere_reduced_model(2.0), "k"),
    (lambda: independence_certificate(4.0), "q"),
    (lambda: admissible_monomials(4.0), "q"),
    (lambda: spherical_rigid_classes(4.0), "q"),
    (lambda: spherical_rigid_count(4.0), "q"),
    (lambda: verify_symmetric_multiple(2.0, 1), "k"),
    (lambda: verify_symmetric_multiple(2, True), "ell"),
    # the Godbillon-Vey class y1*c1^q at q = 2
    (lambda: VeyIndex((1,), (1,) * 2).is_rigid(2.0), "q"),
    (lambda: VeyIndex((1,), (1,) * 2).is_member(True), "q"),
    (lambda: permanence_family((2,), (2, 2), 4.0, ()), "q"),
    (lambda: permanence_family((2,), (2, 2), 4, (2.0,)), "twisting index"),
    (lambda: permanence_family((2,), (2, 2, 2), 6, (True,)), "twisting index"),
    (lambda: build_frame_model(cp2(), canonical_bundle(cp2()), 2.0), "q"),
    # the int entry is cached first: a float or bool key must miss it
    (lambda: _basis_after_int(5.0), "n"),
    (lambda: _basis_after_int(True), "n"),
    (lambda: vey_basis(3, min_degree=2.5), "min_degree"),
    (lambda: vey_basis(3, max_degree=True), "max_degree"),
    (lambda: VeyIndex((1,), (1, 1)).is_member(2.0), "q"),
    (lambda: VeyIndex((1,), (1, 1)).is_rigid(True), "q"),
], ids=["projective-float", "projective-bool", "sphere-float", "projective-base",
        "sphere-base", "projective-reduced", "sphere-reduced", "independence",
        "admissible", "spherical-classes", "spherical-count", "symmetric-k",
        "symmetric-ell", "godbillon-vey-float", "godbillon-vey-bool", "permanence-q",
        "permanence-r-float", "permanence-r-bool", "frame-model-q-float",
        "basis-degree-float", "basis-degree-bool", "vey-min-degree", "vey-max-degree",
        "vey-member-q", "vey-rigid-q"])
def test_family_sizes_must_be_ints(call, name):
    with pytest.raises(TypeError, match=f"^{name} must be an int"):
        call()


def test_certify_rejects_a_term_outside_the_model():
    # u1*a1^3 breaks the cap a1^3 = 0 of CP^2; d kills it, so the basis
    # check, not the cocycle check, must catch it
    model = projective_base_model(2)
    bad = Element._of(model.gens, {model.gens._word((0,), (3, 0)): Fraction(1)})
    assert model.d(bad).is_zero()
    with pytest.raises(ValueError, match="outside the model"):
        _certificate(model, model.d, [("bad", bad, bad, None)])


# -- the reduced models and their inclusion ------------------------------------
#
# A certificate is computed in a sub-DGA S of the frame model M.  It is
# sound because M has a chain retraction r onto S: r d_M = d_S r and
# r(i(s)) = s for the inclusion i.  The retractions are written out here,
# per family, and checked on every monomial.

def _projective_bridge(k):
    """M, S, the inclusion i (t goes to c_2's image, p_1) and r: Reynolds
    averaging over the signed permutations of the a_j, read in S.  u_E a^x
    goes to zero unless every x_j is 0 or 2, and else, with m of them 2, to
    u_E t^m / (m! C(k, m)), since a_j^3 = 0 makes p_1^m = m! e_m(a_1^2, ...)."""
    model = projective_base_model(k)
    reduced = projective_reduced_model(k)
    iota = _inclusion(CharacteristicMap(model), reduced, "c2")

    def r(ext, x):
        if any(e not in (0, 2) for e in x):
            return None
        m = x.count(2)
        return (ext, (m,)), Fraction(1, factorial(m) * comb(k, m))
    return model, reduced, iota, r


def _sphere_bridge(k):
    """M, S, the inclusion and r, which kills u_1..u_{k-1} and v: a free
    factor of M whose generators have zero differential and appear in no
    generator's image."""
    model = sphere_base_model(k)
    reduced = sphere_reduced_model(k)
    iota = _inclusion(CharacteristicMap(model), reduced, f"c{2 * k}")
    first, v = k - 1, model.gens.n_exterior - 1

    def r(ext, x):
        if any(p < first or p == v for p in ext):
            return None
        return (tuple(p - first for p in ext), x), Fraction(1)
    return model, reduced, iota, r


BRIDGES = [pytest.param(_projective_bridge, id="projective"),
           pytest.param(_sphere_bridge, id="sphere")]


def _retract(r, gens_s, x):
    out = {}
    for m, c in x.terms.items():
        image = r(*x.gens.unpack(m))
        if image is not None:
            mono, scale = image
            w = gens_s.pack(*mono)
            out[w] = out.get(w, 0) + c * scale
    return Element(gens_s, out)


@pytest.mark.parametrize("bridge", BRIDGES)
@pytest.mark.parametrize("k", [2, 3, 4])
def test_retraction_is_a_chain_map_onto_the_reduced_model(bridge, k):
    model, (gens_s, d_s), iota, r = bridge(k)
    for n in range(model.gens.top_degree() + 1):
        for m in basis_of_degree(model.gens, n):
            mono = Element(model.gens, {m: 1})
            assert _retract(r, gens_s, model.d(mono)) == d_s(_retract(r, gens_s, mono)), m
    for n in range(gens_s.top_degree() + 1):
        for m in basis_of_degree(gens_s, n):
            s = Element(gens_s, {m: 1})
            assert _retract(r, gens_s, iota(s)) == s, m


@pytest.mark.parametrize("bridge", BRIDGES)
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_reduced_route_matches_the_full_model_on_random_cocycles(bridge, k):
    # cocycles of S, mixing representatives and coboundaries, and the
    # coboundaries alone; their images are invariant cocycles of M
    model, (gens_s, d_s), iota, _ = bridge(k)
    rng = random.Random(67 + k)
    seen = {True: 0, False: 0}
    for n, s in dga.cohomology(gens_s, d_s).by_degree.items():
        if n == 0:
            continue
        for _ in range(2):
            cocycles = []
            for _ in range(rng.randint(1, 3)):
                x = d_s(_random_in_degree(gens_s, rng, n - 1))
                for rep in s.representatives:
                    x = x + rep.scale(rng.randint(-2, 2))
                if x:
                    cocycles.append(x)
            if cocycles:
                got = dga.classes_mod_image(d_s, cocycles)
                assert got == dga.classes_mod_image(
                    model.d, [iota(x) for x in cocycles]), (n, cocycles)
                for nonzero in got[0]:
                    seen[nonzero] += 1
    assert seen[True] and seen[False]


@pytest.mark.parametrize("build, certify, k", [
    *[pytest.param(projective_base_model, certify_projective_family, k,
                   id=f"projective-k{k}") for k in range(2, 6)],
    *[pytest.param(sphere_base_model, certify_sphere_family, k,
                   id=f"sphere-k{k}") for k in range(2, 5)],
])
def test_reduced_certificate_matches_the_full_model(build, certify, k):
    model = build(k)
    cert = certify(k)
    rigid = [c for c in cert.classes if not c.expected_zero]
    delta = CharacteristicMap(model)
    images = [delta(c.vey.element(delta.source_gens)) for c in rigid]
    full = _certificate(model, model.d,
                        [(c.source, x, x, None) for c, x in zip(rigid, images)])
    assert [CertifiedClass(c.source, c.image, c.degree, c.nonzero, c.expected_zero)
            for c in rigid] == list(full.classes)
    assert full.jointly_independent == cert.jointly_independent


@pytest.mark.parametrize("k, i", [(3, 2), (4, 2), (4, 3)])
def test_a_wrong_factorial_fails_the_chain_check(k, i):
    delta = CharacteristicMap(projective_base_model(k))
    gens_s, d_s = projective_reduced_model(k)
    t = gens_s.generator("t")
    images = {f"u{j}": d_s.ext_images[j - 1] for j in range(1, k)}
    images[f"u{i}"] = t ** i  # d u_i = t^i / i!
    wrong = (gens_s, Differential(gens_s, images))
    with pytest.raises(DegreeMismatch, match=f"commute with d on u{i}"):
        _inclusion(delta, wrong, "c2")


def _projective_lift(k):
    """The lift sigma of certify_projective_family, written out again:
    y_{2i} -> u_i (i < k), c_{2i} -> t^i / i! (i <= k)."""
    gens_s, _ = projective_reduced_model(k)
    t = gens_s.generator("t")
    lift = {f"y{2 * i}": gens_s.generator(f"u{i}") for i in range(1, k)}
    lift.update((f"c{2 * i}", (t ** i).scale(Fraction(1, factorial(i))))
                for i in range(1, k + 1))
    return gens_s, lift


def _projective_veys(k):
    return [VeyIndex((2,) + tuple(2 * i for i in rest), (2,) * k)
            for rest in subsets(range(2, k))]


def test_the_written_out_lift_certifies_as_the_family_does():
    _, lift = _projective_lift(4)
    cert = _rigid_family(projective_base_model(4), projective_reduced_model(4), "c2",
                         lift, _projective_veys(4))
    assert cert == certify_projective_family(4) and cert.passed


@pytest.mark.parametrize("wrong, error, match", [
    pytest.param(lambda t, u: {"c4": t ** 2}, DegreeMismatch, "commute with d on y4",
                 id="c4-to-t^2"),
    pytest.param(lambda t, u: {"y4": u(1)}, DegreeMismatch, "wrong degree", id="y4-to-u1"),
    # a chain map, but iota sigma = -delta on y2 and c2: y2 comes first in the lift
    pytest.param(lambda t, u: {"y2": -u(1), "c2": -t}, ValueError, "^y2 lifts",
                 id="y2-and-c2-negated"),
    pytest.param(lambda t, u: {"c8": t.gens.zero()}, ValueError, "^c8 lifts", id="c8-to-0"),
])
def test_a_wrong_image_of_one_generator_fails(wrong, error, match):
    # the wrong images pass sigma's degree and chain checks or fail them;
    # either way the family is not certified
    gens_s, lift = _projective_lift(4)
    lift.update(wrong(gens_s.generator("t"), lambda i: gens_s.generator(f"u{i}")))
    with pytest.raises(error, match=match):
        _rigid_family(projective_base_model(4), projective_reduced_model(4), "c2",
                      lift, _projective_veys(4))


def test_a_class_outside_the_reduced_model_is_rejected():
    # y2 maps to u1, which the sphere's reduced model splits off, so the
    # sphere lift sigma gives y2 no image
    gens_s, _ = reduced = sphere_reduced_model(2)
    lift = {"y4": gens_s.generator("u2"), "c4": gens_s.generator("s")}
    with pytest.raises(IndexOutOfRange, match="^y2 has no image$"):
        _rigid_family(sphere_base_model(2), reduced, "c4", lift, [VeyIndex((2,), (4,))])


def test_a_generator_map_takes_its_images_by_name():
    # an unnamed generator, exterior or polynomial, has no image; an
    # unknown name is refused as Differential refuses it
    gens_w, d_w = weil_complex(2)
    f = _GeneratorMap(d_w, d_w, {"y2": gens_w.generator("y2"), "c2": gens_w.generator("c2")})
    assert f.ext_images == (None, gens_w.generator("y2"))
    assert f.poly_images == (None, gens_w.generator("c2"))
    for name in ("y1", "c1"):
        with pytest.raises(IndexOutOfRange, match=f"^{name} has no image$"):
            f(gens_w.generator(name))
    with pytest.raises(KeyError, match="unknown generators: \\['c3'\\]"):
        _GeneratorMap(d_w, d_w, {"c3": gens_w.zero()})


def _zero_on_y1_c1():
    """The map W_3 -> W_3 sending y1 and c1 to zero, with no image of the
    other generators."""
    gens_w, d_w = weil_complex(3)
    return _GeneratorMap(d_w, d_w, {"y1": gens_w.zero(), "c1": gens_w.zero()})


@pytest.mark.parametrize("make, names, unmapped", [
    (lambda: _generator_map("delta-projective-2"), ("y1", "y4"), "y4"),
    (lambda: _generator_map("delta-projective-2"), ("y1", "y4", "c1"), "y4"),
    (lambda: _generator_map("delta-projective-2"), ("y4", "c1"), "y4"),
    (lambda: _generator_map("delta-projective-2"), ("y3", "y4", "c2"), "y4"),
    (_zero_on_y1_c1, ("y1", "y2"), "y2"),
    (_zero_on_y1_c1, ("c1", "c2"), "c2"),
    (_zero_on_y1_c1, ("y1", "c1", "c2"), "c2"),
], ids=["delta-y1-y4", "delta-y1-y4-c1", "delta-y4-c1", "delta-y3-y4-c2", "w3-y1-y2",
        "w3-c1-c2", "w3-y1-c1-c2"])
def test_a_term_with_an_unmapped_generator_raises_whatever_its_other_factors_map_to(
        make, names, unmapped):
    # a factor mapping to zero, before or after the generator without an
    # image in generator order, must not hide it
    f = make()
    x = f.source_gens.unit()
    for name in names:
        x = x * f.source_gens.generator(name)
    assert x
    with pytest.raises(IndexOutOfRange, match=f"^{unmapped} has no image"):
        f(x)
    with pytest.raises(IndexOutOfRange, match=f"^{unmapped} has no image"):
        f(x + f.source_gens.unit())


@functools.cache
def _generator_map(name):
    if name.startswith("delta"):
        return CharacteristicMap({"delta-projective-2": projective_base_model(2),
                                  "delta-projective-3": projective_base_model(3),
                                  "delta-sphere-2": sphere_base_model(2)}[name])
    if name == "iota-projective":
        return _inclusion(CharacteristicMap(projective_base_model(3)),
                          projective_reduced_model(3), "c2")
    return _inclusion(CharacteristicMap(sphere_base_model(3)), sphere_reduced_model(3), "c6")


@st.composite
def _elements(draw, f):
    """Sums of up to three products of up to three generators with an
    image under ``f``, so that products often survive in the target."""
    gens = f.source_gens
    names = [name for (name, *_), image in zip(gens.exterior + gens.poly,
                                                f.ext_images + f.poly_images)
             if image is not None]
    x = gens.zero()
    for _ in range(draw(st.integers(1, 3))):
        term = gens.unit().scale(draw(st.integers(-3, 3) | st.fractions(-2, 2, max_denominator=3)))
        for name in draw(st.lists(st.sampled_from(names), max_size=3)):
            term = term * gens.generator(name)
        x = x + term
    return x


@pytest.mark.parametrize("name", ["delta-projective-2", "delta-projective-3",
                                  "delta-sphere-2", "iota-projective", "iota-sphere"])
@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(data=st.data())
def test_the_generator_maps_are_multiplicative_and_additive(name, data):
    # why agreement of iota sigma and delta on generators is agreement on
    # every class
    f = _generator_map(name)
    x, y = (data.draw(_elements(f), label) for label in "xy")
    assert f(x * y) == f(x) * f(y)
    assert f(x + y) == f(x) + f(y)


def _uses(source: str, name: str, call_only: bool = False) -> list[str]:
    """The functions of a module that read ``name``, or with ``call_only``
    call it, by name, by import alias or as a module attribute, once per
    node."""
    names = {name} | {a.asname for node in ast.walk(ast.parse(source))
                      if isinstance(node, ast.ImportFrom)
                      for a in node.names if a.name == name and a.asname}

    def named(node) -> bool:
        return (isinstance(node, ast.Name) and node.id in names
                or isinstance(node, ast.Attribute) and node.attr in names)
    if call_only:
        return _where(source, lambda node, _: isinstance(node, ast.Call) and named(node.func))
    return _where(source, lambda node, _: named(node))


def test_one_route_ranks_and_builds_every_frame_certificate():
    # a second rank in frames, or a certificate built outside _certificate,
    # would be a second way to certify, past its basis check or pass rule
    src = Path(secclasses.__file__).parent
    assert _uses((src / "frames.py").read_text(), "classes_mod_image") == ["_certificate"]
    built = [(path.name, f) for path in sorted(src.glob("*.py"))
             for f in _uses(path.read_text(), "FrameCertificate", call_only=True)]
    assert built == [("frames.py", "_certificate")]
    sample = ("from .dga import classes_mod_image as rank\n"
              "from .frames import FrameCertificate as F\n"
              "x = F(1)\n"
              "def f(d, xs) -> FrameCertificate:\n"
              "    dga.classes_mod_image(d, xs); rank(d, xs); g = classes_mod_image\n"
              "    return frames.FrameCertificate(2)\n")
    assert _uses(sample, "classes_mod_image") == ["f", "f", "f"]
    assert _uses(sample, "FrameCertificate", call_only=True) == ["<module>", "f"]


def test_frames_takes_every_lift_and_image_from_a_map_or_a_generator():
    # a monomial packed by hand in frames would be a lift built from an
    # index, past the check that iota sigma = delta on generators
    source = (Path(secclasses.__file__).parent / "frames.py").read_text()
    assert _uses(source, "monomial", call_only=True) == []
    assert _uses(source, "pack", call_only=True) == []
    sample = ("from .algebra import pack as p\n"
              "def f(gens):\n"
              "    gens.monomial((0,), (1,)); g = gens.pack; gens.unpack(0)\n"
              "    return p((), ()), gens.pack((), ())\n")
    assert _uses(sample, "monomial", call_only=True) == ["f"]
    assert _uses(sample, "pack", call_only=True) == ["f", "f"]
