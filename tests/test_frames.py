"""Frame-bundle Koszul models, characteristic maps, and certificates."""

import random
from fractions import Fraction
from math import comb, factorial

import pytest

from secclasses import dga
from secclasses.algebra import Element, GeneratorMismatch, SecclassesError, basis_of_degree
from secclasses.dga import DegreeMismatch, Differential
from secclasses.frames import (CertifiedClass, CharacteristicMap, FrameModel, IndexOutOfRange,
                               _certificate, _certify, _certify_reduced, _inclusion,
                               build_frame_model, certify_projective_family,
                               certify_sphere_family, fiber_primitive_count,
                               permanence_family, projective_base_model,
                               projective_reduced_model, sphere_base_model,
                               sphere_reduced_model)
from secclasses.models import (BundleMap, Factor, admissible_monomials,
                               canonical_bundle, cp2, evaluate_on_cycle,
                               independence_certificate, product_model, sphere_model,
                               verify_symmetric_multiple, whitney_sum)
from secclasses.weil import (VeyIndex, godbillon_vey, spherical_rigid_classes,
                             spherical_rigid_count)
from test_dga import _random_in_degree


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
        _inclusion(delta, projective_reduced_model(2), [3])


@pytest.mark.parametrize("joint, nonzero, expected_zero", [
    pytest.param(False, (True, True), (False, False), id="not-independent"),
    pytest.param(True, (True, False), (False, False), id="zero-rigid-class"),
    pytest.param(True, (True, True), (False, True), id="nonzero-expected-zero"),
])
def test_the_certificate_fails_on_each_broken_condition(joint, nonzero, expected_zero):
    model = projective_base_model(2)
    entries = [CertifiedClass(f"x{i}", "x", 3, nz, ez)
               for i, (nz, ez) in enumerate(zip(nonzero, expected_zero))]
    assert not _certificate(model, entries, joint).passed
    fixed = [CertifiedClass(e.source, e.image, e.degree, not e.expected_zero,
                            e.expected_zero, e.vey) for e in entries]
    assert _certificate(model, fixed, True).passed


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
    for (ext, exps), coeff in x.terms.items():
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
                                            if housed.issuperset(m[0])}))
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
    entries, joint = _certify(model, elements, ["x", "zero"])
    assert [e.nonzero for e in entries] == [True, False]
    assert joint is False
    assert dga.classes_mod_image(model.d, elements) == ([True, False], False)


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
    (lambda: godbillon_vey(2.0), "q"),
    (lambda: godbillon_vey(True), "q"),
    (lambda: permanence_family((2,), (2, 2), 4.0, ()), "q"),
    (lambda: permanence_family((2,), (2, 2), 4, (2.0,)), "twisting index"),
    (lambda: permanence_family((2,), (2, 2, 2), 6, (True,)), "twisting index"),
    (lambda: build_frame_model(cp2(), canonical_bundle(cp2()), 2.0), "q"),
], ids=["projective-float", "projective-bool", "sphere-float", "projective-base",
        "sphere-base", "projective-reduced", "sphere-reduced", "independence",
        "admissible", "spherical-classes", "spherical-count", "symmetric-k",
        "symmetric-ell", "godbillon-vey-float", "godbillon-vey-bool", "permanence-q",
        "permanence-r-float", "permanence-r-bool", "frame-model-q-float"])
def test_family_sizes_must_be_ints(call, name):
    with pytest.raises(TypeError, match=f"^{name} must be an int"):
        call()


def test_certify_rejects_a_term_outside_the_model():
    # u1*a1^3 breaks the cap a1^3 = 0 of CP^2; d kills it, so the basis
    # check, not the cocycle check, must catch it
    model = projective_base_model(2)
    bad = Element._of(model.gens, {((0,), (3, 0)): Fraction(1)})
    assert model.d(bad).is_zero()
    with pytest.raises(ValueError, match="outside the model"):
        _certify(model, [bad], ["bad"])


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
    iota = _inclusion(CharacteristicMap(model), reduced, [1])

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
    iota = _inclusion(CharacteristicMap(model), reduced, [2 * k - 1])
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
    for (ext, exps), c in x.terms.items():
        image = r(ext, exps)
        if image is not None:
            m, scale = image
            out[m] = out.get(m, 0) + c * scale
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
    entries, joint = _certify(model, images, [c.source for c in rigid])
    assert [CertifiedClass(c.source, c.image, c.degree, c.nonzero, c.expected_zero)
            for c in rigid] == entries
    assert joint == cert.jointly_independent


@pytest.mark.parametrize("k, i", [(3, 2), (4, 2), (4, 3)])
def test_a_wrong_factorial_fails_the_chain_check(k, i):
    delta = CharacteristicMap(projective_base_model(k))
    gens_s, d_s = projective_reduced_model(k)
    t = gens_s.generator("t")
    images = {f"u{j}": d_s.ext_images[j - 1] for j in range(1, k)}
    images[f"u{i}"] = t ** i  # d u_i = t^i / i!
    wrong = (gens_s, Differential(gens_s, images))
    with pytest.raises(DegreeMismatch, match=f"commute with d on u{i}"):
        _inclusion(delta, wrong, [1])


def test_a_class_outside_the_reduced_model_is_rejected():
    # y2 maps to u1, which the sphere's reduced model splits off
    model = sphere_base_model(2)
    reduced = sphere_reduced_model(2)
    delta = CharacteristicMap(model)
    outside = VeyIndex((2,), (4,))
    assert delta(outside.element(delta.source_gens)) == \
        model.gens.monomial((0,), (1,))  # u1 * s
    lift = reduced[0].monomial((0,), (1,))  # u2 * s
    with pytest.raises(ValueError, match="not the image"):
        _certify_reduced(delta, reduced, [3], [outside], [lift])

