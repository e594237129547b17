"""Differential contracts, Leibniz behavior, and exact cohomology."""

import math
import random
import time
from collections.abc import Hashable
from fractions import Fraction

import pytest

from secclasses.algebra import (Element, GeneratorMismatch, GeneratorSet, basis_of_degree,
                                exponent_vectors)
from secclasses import dga, frames, linalg
from secclasses.dga import (DegreeMismatch, Differential, NotACocycle,
                            class_nonzero, classes_mod_image, cohomology)
from secclasses.frames import (certify_projective_family, certify_sphere_family,
                               permanence_family, projective_base_model,
                               projective_reduced_model, sphere_base_model,
                               sphere_reduced_model)
from secclasses.linalg import rank
from fraction_linalg import Echelon, kernel_from_columns
from secclasses.weil import weil_complex
from test_algebra import _random_ring


def test_apply_d_on_generators():
    gens, d = weil_complex(1)
    assert d(gens.generator("y1")) == gens.generator("c1")
    assert d(gens.generator("c1")).is_zero()


def test_apply_d_two_term_product():
    gens, d = weil_complex(2)
    y1y2 = gens.monomial((0, 1), (0, 0))
    expected = gens.monomial((1,), (1, 0)) - gens.monomial((0,), (0, 1))
    assert d(y1y2) == expected  # y2*c1 - y1*c2


def test_apply_d_is_linear():
    gens, d = weil_complex(2)
    x = gens.generator("y1").scale(3) - gens.generator("y2").scale(Fraction(1, 2))
    assert d(x) == d(gens.generator("y1")).scale(3) - \
        d(gens.generator("y2")).scale(Fraction(1, 2))


@pytest.mark.parametrize("call", [
    pytest.param(lambda g2, d2, g3, d3: d3(g2.generator("y2")), id="differential"),
    pytest.param(lambda g2, d2, g3, d3: Differential(g2, {"y1": g3.generator("c1")}),
                 id="differential-image"),
    pytest.param(lambda g2, d2, g3, d3: cohomology(g3, d2), id="cohomology"),
    pytest.param(lambda g2, d2, g3, d3: class_nonzero(
        g2, d3, g3.generator("y1") * g3.generator("c1") ** 3), id="class_nonzero"),
])
def test_mismatched_generator_sets_are_rejected(call):
    with pytest.raises(GeneratorMismatch):
        call(*weil_complex(2), *weil_complex(3))


def test_degree_contract_rejected_at_construction():
    gens, _ = weil_complex(2)
    with pytest.raises(DegreeMismatch):
        Differential(gens, {"y1": gens.generator("y2")})  # odd -> odd
    with pytest.raises(KeyError):
        Differential(gens, {"nope": gens.generator("c1")})


def test_impure_images_rejected_at_construction():
    # d maps exterior generators into the polynomial subring and kills the
    # polynomial generators; an explicit zero image is still accepted
    gens = GeneratorSet((("u", 3), ("w", 1)), (("p", 4, None), ("z", 2, None)),
                        truncation=8)
    u, w, p, z = (gens.generator(n) for n in ("u", "w", "p", "z"))
    d = Differential(gens, {"u": p, "p": gens.zero()})
    assert d(u * w) == p * w
    with pytest.raises(ValueError, match=r"^d\(p\) must be 0"):
        Differential(gens, {"u": p, "p": u * w})
    with pytest.raises(ValueError, match=r"^d\(u\) = .* is not pure"):
        Differential(gens, {"u": p + w * u})


def test_d_squared_and_leibniz_randomized():
    from secclasses.acceptance import random_element, random_homogeneous
    rng = random.Random(17)
    for q in (2, 3, 4):
        gens, d = weil_complex(q)
        for _ in range(100):
            x = random_element(gens, rng)
            assert d(d(x)).is_zero()
            a = random_homogeneous(gens, rng)
            b = random_element(gens, rng)
            if a:
                sign = -1 if a.degree() % 2 else 1
                assert d(a * b) == d(a) * b + (a * d(b)).scale(sign)


def test_leibniz_on_capped_frame_models():
    # exponent caps and a nonzero d on several exterior generators
    from secclasses.acceptance import random_element, random_homogeneous
    rng = random.Random(29)
    for model in (projective_base_model(3), sphere_base_model(2)):
        gens, d = model.gens, model.d
        for _ in range(100):
            a = random_homogeneous(gens, rng)
            b = random_element(gens, rng)
            sign = -1 if a.degree() % 2 else 1
            assert d(a * b) == d(a) * b + (a * d(b)).scale(sign)
            assert d(d(b)).is_zero()


def test_cohomology_w1():
    gens, d = weil_complex(1)
    report = cohomology(gens, d)
    assert {n: s.chain_dim for n, s in report.by_degree.items()} == \
        {0: 1, 1: 1, 2: 1, 3: 1}
    assert report.dims() == {0: 1, 3: 1}
    reps = report.by_degree[3].representatives
    assert len(reps) == 1 and reps[0] == gens.monomial((0,), (1,))


def test_cohomology_acyclic_transgression_model():
    # one odd generator transgressing onto one polynomial generator:
    # acyclic in low degrees
    gens = GeneratorSet((("u1", 3),), (("p1", 4, None),), truncation=6)
    d = Differential(gens, {"u1": gens.generator("p1")})
    report = cohomology(gens, d, max_degree=4)
    assert report.by_degree[0].dim == 1
    for n in (1, 2, 3, 4):
        assert report.by_degree[n].dim == 0


def _euler_characteristics(report):
    """The alternating sums of the chain and cohomology dimensions over
    the stored degrees (the degrees above them are empty)."""
    slices = report.by_degree.items()
    return (sum((-1) ** n * s.chain_dim for n, s in slices),
            sum((-1) ** n * s.dim for n, s in slices))


def test_euler_characteristic_consistency():
    for q in (1, 2, 3):
        gens, d = weil_complex(q)
        chain, cohom = _euler_characteristics(cohomology(gens, d))
        assert chain == cohom


def test_class_nonzero_examples():
    gens, d = weil_complex(1)
    assert class_nonzero(gens, d, gens.monomial((0,), (1,)))  # y1*c1
    assert not class_nonzero(gens, d, gens.generator("c1"))   # c1 = d(y1)
    assert not class_nonzero(gens, d, gens.zero())
    with pytest.raises(NotACocycle):
        class_nonzero(gens, d, gens.generator("y1"))


def test_rank_independent_of_basis_order():
    gens, d = weil_complex(2)
    rng = random.Random(23)
    for n in (4, 5, 6):
        basis_n = list(basis_of_degree(gens, n))
        index = {m: i for i, m in enumerate(basis_of_degree(gens, n + 1))}
        rows = []
        for m in basis_n:
            dm = d(Element(gens, {m: Fraction(1)}))
            rows.append({index[mm]: c for mm, c in dm.terms.items()})
        base = rank(rows)
        for _ in range(5):
            perm = rows[:]
            rng.shuffle(perm)
            assert rank(perm) == base


def test_representatives_are_cocycles_not_coboundaries():
    gens, d = weil_complex(2)
    report = cohomology(gens, d)
    for n, s in report.by_degree.items():
        for rep in s.representatives:
            assert d(rep).is_zero()
            assert class_nonzero(gens, d, rep)
        assert len(s.representatives) == s.dim


def _public_image_columns(gens, d, n):
    """Coordinates of d(m) for the degree-n basis, through ``d(Element)``."""
    basis_n = basis_of_degree(gens, n)
    index = {m: i for i, m in enumerate(basis_of_degree(gens, n + 1))}
    return basis_n, [{index[mm]: c for mm, c in d(Element(gens, {m: 1})).terms.items()}
                     for m in basis_n]


def global_cohomology(gens, d):
    """Oracle: one elimination over each whole degree slice, no blocks,
    in reduced echelon form over Fraction.

    Returns ``{n: (dim, [str(rep), ...])}`` over every degree.
    """
    out = {}
    prev_image = []
    for n in range(gens.top_degree() + 1):
        basis_n, cols = _public_image_columns(gens, d, n)
        kernel = kernel_from_columns(cols)
        stack = Echelon()
        for row in prev_image:
            stack.add(row)
        image_rank = stack.rank
        reps = []
        for vec in kernel:
            residual = stack.add(vec)
            if residual is not None:
                reps.append(str(Element(
                    gens, {basis_n[j]: c for j, c in residual.items()})))
        out[n] = (len(kernel) - image_rank, reps)
        prev_image = [c for c in cols if c]
    return out


def _transgression_model():
    gens = GeneratorSet((("u1", 3),), (("p1", 4, None),), truncation=6)
    return gens, Differential(gens, {"u1": gens.generator("p1")})


def _frame(build):
    model = build(2)
    return model.gens, model.d


BLOCK_CASES = [
    *[pytest.param(lambda q=q, f=f: weil_complex(q, framed=f),
                   id=f"W{q}-{'framed' if f else 'unframed'}")
      for q in range(1, 6) for f in (True, False)],
    pytest.param(lambda: weil_complex(6), id="W6-framed"),
    pytest.param(_transgression_model, id="transgression"),
    pytest.param(lambda: _koszul_model(), id="koszul"),  # defined below
    pytest.param(lambda: _frame(projective_base_model), id="projective-k2"),
    pytest.param(lambda: _frame(sphere_base_model), id="sphere-k2"),
    # non-unit coefficients: d u_i = t^i/i!, so 1/2 and 1/6 at k = 4
    pytest.param(lambda: projective_reduced_model(4), id="projective-reduced-k4"),
    pytest.param(lambda: sphere_reduced_model(3), id="sphere-reduced-k3"),
]


@pytest.mark.parametrize("complex_", BLOCK_CASES)
def test_block_cohomology_matches_global_elimination(complex_):
    gens, d = complex_()
    report = cohomology(gens, d)
    got = {n: (s.dim, [str(r) for r in s.representatives])
           for n, s in report.by_degree.items()}
    assert got == global_cohomology(gens, d)


@pytest.mark.parametrize("complex_", BLOCK_CASES)
def test_rank_route_matches_representative_route_and_oracle(complex_):
    gens, d = complex_()
    ranks = cohomology(gens, d, representatives=False).by_degree
    reps = cohomology(gens, d).by_degree
    oracle = global_cohomology(gens, d)
    assert ranks.keys() == reps.keys() == oracle.keys()
    for n, s in ranks.items():
        assert (s.chain_dim, s.dim) == (reps[n].chain_dim, reps[n].dim)
        assert (s.chain_dim, s.dim) == (len(basis_of_degree(gens, n)), oracle[n][0])
        assert s.representatives is None


@pytest.mark.parametrize("complex_", BLOCK_CASES)
def test_layout_columns_equal_the_leibniz_oracle(complex_):
    # the layout clears d's denominators by one scale for every column
    gens, d = complex_()
    scale = math.lcm(*(c.denominator for image in d.ext_images
                       for c in image.terms.values()))
    top = gens.top_degree()
    layout = dga._Layout(gens, d, top + 1)
    for n in range(top + 1):
        basis_n, cols = _public_image_columns(gens, d, n)
        assert layout.columns(n) == (len(basis_n), [
            {i: scale * c for i, c in col.items()} for col in cols]), n


@pytest.mark.parametrize("complex_", BLOCK_CASES)
def test_layout_columns_take_only_the_trusted_entries(complex_, monkeypatch):
    # d u_i = t^i/i! puts 1/2 and 1/6 into the reduced projective model,
    # and its layout scales them away: no trusted entry sees a non-int,
    # and no layout column passes the entry check
    calls, ranked = [], []
    of, integer_row = linalg.IntegerEliminator._of.__func__, linalg._integer_row

    def trusted(cls, rows):
        rows = list(rows)
        assert all(type(v) is int and v for row in rows for v in row.values())
        calls.append("trusted")
        ranked.append(len(rows))
        return of(cls, rows)

    def checked(row):
        calls.append("checked")
        return integer_row(row)

    monkeypatch.setattr(linalg.IntegerEliminator, "_of", classmethod(trusted))
    monkeypatch.setattr(linalg, "_integer_row", checked)
    gens, d = complex_()
    slices = cohomology(gens, d, representatives=False).by_degree
    assert calls == ["trusted"] * len(slices)
    classes = [r for s in cohomology(gens, d).by_degree.values()
               for r in s.representatives]
    calls.clear()
    # the image rows, the nonzero columns of d below each class degree,
    # are ranked by one trusted call; then each class row is checked by
    # ``independent``, and checked again by ``add`` for the joint answer
    image = sum(1 for n in {x.degree() for x in classes} if n
                for col in _public_image_columns(gens, d, n - 1)[1] if col)
    assert classes_mod_image(d, classes) == ([True] * len(classes), True)
    assert calls == ["trusted"] + ["checked"] * (2 * len(classes))
    assert ranked[-1] == image


@pytest.mark.parametrize("complex_", BLOCK_CASES)
def test_representatives_add_no_image_row(complex_, monkeypatch):
    # the echelon that ranked d_{n-1} takes the kernel vectors in place,
    # so only the kernel vectors of the degrees with classes go through
    # ``Echelon.add``
    gens, d = complex_()
    kernels = 0
    for n, (dim, _) in global_cohomology(gens, d).items():
        if dim:
            kernels += len(kernel_from_columns(_public_image_columns(gens, d, n)[1]))
    calls = []
    add = linalg.Echelon.add

    def counted(self, row):
        calls.append(row)
        return add(self, row)

    monkeypatch.setattr(linalg.Echelon, "add", counted)
    cohomology(gens, d)
    assert len(calls) == kernels


def test_layout_columns_drop_an_image_term_beyond_a_cap():
    # d(y) = p^3 is given outside the ring (p is capped at 1), so the
    # Leibniz rule drops every product with it; by fields alone, p + p^3
    # would carry out of the field of p
    gens = GeneratorSet((("y", 5),), (("p", 2, 1), ("q", 2, 2)))
    d = Differential(gens, {"y": Element._of(gens, {gens._word((), (3, 0)): Fraction(1)})})
    layout = dga._Layout(gens, d, 10)
    for n in range(10):
        basis_n, cols = _public_image_columns(gens, d, n)
        assert layout.columns(n) == (len(basis_n), cols), n
    # so y is a cocycle, and the coboundary test's check must not read d(y) as q
    y = gens.generator("y")
    assert not d(y)
    assert classes_mod_image(d, [y]) == ([True], True)


def test_degrees_above_the_top_are_not_enumerated(monkeypatch):
    gens, d = weil_complex(2)
    top = gens.top_degree()
    full = cohomology(gens, d).by_degree
    laid_out, enumerated = [], []
    block_offsets = dga._block_offsets

    def recording_offsets(ext_degrees, parts, n):
        laid_out.append(n)
        return block_offsets(ext_degrees, parts, n)

    def recording_basis(g, n):
        enumerated.append(n)
        return basis_of_degree(g, n)

    monkeypatch.setattr(dga, "_block_offsets", recording_offsets)
    monkeypatch.setattr(dga, "basis_of_degree", recording_basis)
    for representatives in (True, False):
        laid_out.clear()
        enumerated.clear()
        report = cohomology(gens, d, top + 50, representatives)
        assert laid_out == list(range(top + 2))  # top + 1: the targets of d_top
        # monomials are built only to name representatives
        assert enumerated == ([n for n in full if full[n].dim]
                              if representatives else [])
        assert report.max_degree == top + 50
        # the empty degrees above the top are not stored; the CLI writes
        # their rows itself (pinned by the padded golden reports)
        assert list(report.by_degree) == list(range(top + 1))
        for n, s in report.by_degree.items():
            assert (s.chain_dim, s.dim) == (full[n].chain_dim, full[n].dim)


def test_cohomology_reports_are_unhashable_and_compare_equal():
    gens, d = weil_complex(1)
    report = cohomology(gens, d)
    assert report == cohomology(gens, d)
    assert not isinstance(report, Hashable)
    with pytest.raises(TypeError):
        hash(report)


def test_a_huge_max_degree_stores_only_the_computed_degrees():
    gens, d = weil_complex(1)
    start = time.perf_counter()
    report = cohomology(gens, d, 10**9)
    assert time.perf_counter() - start < 1
    assert len(report.by_degree) == gens.top_degree() + 1
    assert report.dims() == cohomology(gens, d).dims()
    assert _euler_characteristics(report) == _euler_characteristics(cohomology(gens, d))


@pytest.mark.parametrize("max_degree", [True, 2.0], ids=["bool", "float"])
def test_non_integer_max_degree_rejected(max_degree):
    # True would read as degree 1, and 2.0 would fail inside range
    gens, d = weil_complex(1)
    with pytest.raises(TypeError, match="^max_degree must be an int"):
        cohomology(gens, d, max_degree)


def test_negative_max_degree_rejected():
    # -3 would give an empty report whose max_degree is -3
    gens, d = weil_complex(1)
    with pytest.raises(ValueError, match="max_degree must be nonnegative"):
        cohomology(gens, d, -3)


def test_huge_reports_compare_without_listing_their_degrees():
    gens, d = weil_complex(1)
    start = time.perf_counter()
    a, b = cohomology(gens, d, 10**9), cohomology(gens, d, 10**9)
    assert a == b and a.by_degree == b.by_degree
    assert cohomology(gens, d, 10**9 - 1) != a
    assert cohomology(gens, d, 10**9, representatives=False) != a
    assert time.perf_counter() - start < 1
    changed = {**a.by_degree, 3: dga.DegreeSlice(1, 0, ())}
    assert dga.CohomologyReport(10**9, changed) != a


def test_a_dropped_residual_fails_the_rank_cross_check(monkeypatch):
    # the first residual returned in any complex is the unit class in
    # degree 0, where no image rows come first
    gens, d = weil_complex(3)
    original = linalg.Echelon.add
    dropped = []

    def drop_one(self, row):
        residual = original(self, row)
        if residual is not None and not dropped:
            dropped.append(residual)
            return None
        return residual

    monkeypatch.setattr(linalg.Echelon, "add", drop_one)
    with pytest.raises(RuntimeError, match="representatives but rank gives dim"):
        cohomology(gens, d)
    assert dropped
    cohomology(gens, d, representatives=False)  # the rank route uses no Echelon


def _koszul_model():
    """A pure complex with a cap and a truncation: d(x) = q, d(y) = q^2, q
    capped at 2, p uncapped, truncation 6.  d never lowers the polynomial
    degree, so the truncation and the cap cut out ideals closed under d,
    and d(y*q) = q^3 is cut by the cap."""
    gens = GeneratorSet((("x", 1), ("y", 3)),
                        (("p", 2, None), ("q", 2, 2)), truncation=6)
    q = gens.generator("q")
    return gens, Differential(gens, {"x": q, "y": q * q})


def _two_step_model():
    """d(u) = s + r and d(w) = r: s = d(u - w) is exact, but the column
    d(w) that shows it never touches s; it is reached only through r."""
    gens = GeneratorSet((("u", 3), ("w", 3)),
                        (("s", 4, None), ("r", 4, None)), truncation=4)
    s, r = gens.generator("s"), gens.generator("r")
    return gens, Differential(gens, {"u": s + r, "w": r})


def global_classes_mod_image(d, cocycles):
    """Oracle: membership against the whole image of d in every degree of
    the cocycles' support at once, reduced in one Fraction ``Echelon``.

    The image of d is graded, so each degree n of the support gets its
    own coordinates and the rows of all of d_{n-1}; a cocycle of several
    degrees is then a coboundary iff each of its homogeneous parts is.
    """
    gens = d.gens
    degrees = sorted({gens.mono_degree(m) for x in cocycles for m in x.terms})
    index = {m: i for i, m in enumerate(
        m for n in degrees for m in basis_of_degree(gens, n))}
    image = Echelon()
    for n in degrees:
        for m in basis_of_degree(gens, n - 1):
            dm = d(Element(gens, {m: Fraction(1)}))
            image.add({index[mm]: c for mm, c in dm.terms.items()})
    joint = Echelon()
    joint.pivots = {c: dict(row) for c, row in image.pivots.items()}
    nonzero, independent = [], True
    for x in cocycles:
        coords = {index[m]: c for m, c in x.terms.items()}
        nonzero.append(bool(image.reduce(coords)))
        independent = joint.add(coords) is not None and independent
    return nonzero, independent


@pytest.mark.parametrize("certify", [
    *[pytest.param(lambda k=k: certify_projective_family(k), id=f"projective-k{k}")
      for k in range(2, 6)],
    *[pytest.param(lambda k=k: certify_sphere_family(k), id=f"sphere-k{k}")
      for k in (2, 3)],
    pytest.param(lambda: permanence_family((2,), (2, 2), 4, ()), id="permanence-seed"),
    pytest.param(lambda: permanence_family((2,), (2, 2, 2), 6, (2,)),
                 id="permanence-twisted"),
])
def test_certificates_match_global_elimination(certify, monkeypatch):
    got = certify()
    monkeypatch.setattr(frames.dga, "classes_mod_image", global_classes_mod_image)
    assert got == certify()


def _random_in_degree(gens, rng, n):
    pool = basis_of_degree(gens, n)
    if not pool:
        return gens.zero()
    return Element(gens, {rng.choice(pool): Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                          for _ in range(rng.randint(1, 3))})


RANDOM_COCYCLE_CASES = [
    pytest.param(lambda: weil_complex(2), id="W2-framed"),
    pytest.param(lambda: weil_complex(3), id="W3-framed"),
    pytest.param(lambda: weil_complex(3, framed=False), id="W3-unframed"),
    pytest.param(lambda: _frame(projective_base_model), id="projective-k2"),
    pytest.param(lambda: _frame(sphere_base_model), id="sphere-k2"),
    pytest.param(_koszul_model, id="koszul"),
    pytest.param(_two_step_model, id="two-step"),
    # d u_i = t^i/i!: membership on a layout scaled by lcm(1!, 2!, 3!)
    pytest.param(lambda: projective_reduced_model(4), id="projective-reduced-k4"),
]


@pytest.mark.parametrize("complex_", RANDOM_COCYCLE_CASES)
def test_membership_matches_global_elimination_on_random_cocycles(complex_):
    # random combinations of representatives plus random coboundaries d(y),
    # and the coboundaries alone, which must report zero
    gens, d = complex_()
    rng = random.Random(61)
    for n, s in cohomology(gens, d).by_degree.items():
        if n == 0:
            continue
        for _ in range(4):
            cocycles = []
            for _ in range(rng.randint(1, 3)):
                x = d(_random_in_degree(gens, rng, n - 1))
                for rep in s.representatives:
                    x = x + rep.scale(rng.randint(-2, 2))
                if x:
                    cocycles.append(x)
            if cocycles:
                assert classes_mod_image(d, cocycles) == \
                    global_classes_mod_image(d, cocycles)
            y = d(_random_in_degree(gens, rng, n - 1))
            if y:
                assert classes_mod_image(d, [y]) == ([False], False)
                assert not class_nonzero(gens, d, y)


@pytest.mark.parametrize("complex_", RANDOM_COCYCLE_CASES)
def test_membership_across_degrees_matches_the_graded_oracle(complex_):
    # cocycles of several degrees in one call, an inhomogeneous cocycle,
    # and the degree-0 unit class, whose degree has no sources
    gens, d = complex_()
    slices = cohomology(gens, d).by_degree
    rng = random.Random(67)

    def random_cocycle(n):
        x = d(_random_in_degree(gens, rng, n - 1)) if n else gens.zero()
        for rep in slices[n].representatives:
            x = x + rep.scale(rng.randint(-2, 2))
        return x

    unit = gens.unit().scale(3)
    assert classes_mod_image(d, [unit]) == ([True], True)
    degrees = list(slices)
    for _ in range(10):
        picked = rng.sample(degrees, min(4, len(degrees)))
        cocycles = [x for n in picked if (x := random_cocycle(n))]
        mixed = random_cocycle(rng.choice(degrees)) + random_cocycle(rng.choice(degrees))
        for xs in (cocycles, [unit, *cocycles], [mixed], [mixed, *cocycles[:2]]):
            xs = [x for x in xs if x]
            if xs:
                assert classes_mod_image(d, xs) == global_classes_mod_image(d, xs)
        if mixed:
            assert class_nonzero(gens, d, mixed) == \
                global_classes_mod_image(d, [mixed])[0][0]


def test_membership_lays_out_each_degree_of_the_support_once(monkeypatch):
    # the degree-0 unit class has no sources, so only degree 5 needs d_4
    gens, d = weil_complex(2)
    laid_out = []
    columns = dga._Layout.columns

    def recording_columns(self, n):
        laid_out.append(n)
        return columns(self, n)

    monkeypatch.setattr(dga._Layout, "columns", recording_columns)
    y1c1c1 = gens.monomial((0,), (2, 0))  # a cocycle: d = c1^3 is truncated
    assert classes_mod_image(d, [gens.unit(), y1c1c1, y1c1c1.scale(2)]) == \
        ([True, True, True], False)
    assert laid_out == [4]


def test_membership_rejects_a_monomial_outside_the_complex():
    gens, d = _koszul_model()
    for m in (gens._word((), (0, 3)),   # breaks the cap of q
              gens._word((), (3, 1)),   # breaks the truncation, each exponent in range
              -1, gens._word((), (1, 0)) + (1 << gens._deg_at)):  # a wrong degree field
        x = Element._of(gens, {m: Fraction(1)})
        with pytest.raises(ValueError, match="not a monomial of the complex"):
            classes_mod_image(d, [x])
    # the layout's lookups do not check such words, so mono_valid must: on
    # W_2, c1^2 with the degree field of c1 reads the degree-2 offsets, and
    # finds no part there
    gens, d = weil_complex(2)
    square = gens.pack((), (2, 0))
    alias = square - (2 << gens._deg_at)
    layout = dga._Layout(gens, d, 5)
    assert gens.mono_degree(square) == 4
    assert layout.row(square, 4) == basis_of_degree(gens, 4).index(square)
    with pytest.raises(KeyError):
        layout.row(alias, gens.mono_degree(alias))
    with pytest.raises(ValueError, match="not a monomial of the complex"):
        classes_mod_image(d, [Element._of(gens, {square: Fraction(1), alias: Fraction(1)})])


def test_membership_on_a_cocycle_spanning_two_blocks():
    # W_q is multigraded by mu(y_E c^x) = 1_E + x, which d preserves since
    # d y_i = c_i; a block is the set of mu values of an element's terms
    gens, d = weil_complex(3)

    def mu(m):
        ext, x = gens.unpack(m)
        return tuple(e + (j in ext) for j, e in enumerate(x))

    def block(x):
        return {mu(m) for m in x.terms}

    for s in cohomology(gens, d).by_degree.values():
        reps = s.representatives
        pairs = [(a, b) for i, a in enumerate(reps) for b in reps[i + 1:]
                 if not block(a) & block(b)]
        if pairs:
            break
    a, b = pairs[0]
    n = a.degree()

    def source(x):
        return next(y for y in basis_of_degree(gens, n - 1)
                    if mu(y) in block(x) and d(Element(gens, {y: Fraction(1)})))

    ya, yb = source(a), source(b)
    exact = d(Element(gens, {ya: Fraction(1), yb: Fraction(-3)}))
    assert block(exact) & block(a) and block(exact) & block(b)
    assert classes_mod_image(d, [exact]) == ([False], False)
    x = a + b.scale(2) + exact
    for cocycles in ([x], [x, a], [x, a, b], [a, b]):
        got = classes_mod_image(d, cocycles)
        assert got == global_classes_mod_image(d, cocycles)
    assert classes_mod_image(d, [x, a]) == ([True, True], True)
    assert classes_mod_image(d, [x, a, b]) == ([True, True, True], False)


def test_membership_finds_a_coboundary_two_columns_away():
    gens, d = _two_step_model()
    s = gens.generator("s")
    assert classes_mod_image(d, [s]) == ([False], False)
    assert not class_nonzero(gens, d, s)
    assert global_classes_mod_image(d, [s]) == ([False], False)


def test_membership_rejects_a_non_cocycle():
    gens, d = weil_complex(2)
    y1 = gens.generator("y1")
    with pytest.raises(NotACocycle, match="cocycle 1"):
        classes_mod_image(d, [gens.unit(), y1])


def test_membership_rejects_an_element_over_another_generator_set():
    # over the truncation-6 set, d(y1*c1^2) = c1^3 survives, so the element
    # is no cocycle there, and it must not be read over W_2
    gens, d = weil_complex(2)
    other = GeneratorSet(gens.exterior, gens.poly, truncation=6)
    x = other.monomial((0,), (2, 0))
    with pytest.raises(GeneratorMismatch, match="cocycle 0"):
        classes_mod_image(d, [x])


def test_membership_checks_generators_then_monomials_then_cocycle():
    # each element fails the later checks too, and must be named by the
    # first one: x*p^4 breaks the truncation of the complex, and d(x) = q
    gens, d = _koszul_model()
    foreign = GeneratorSet(gens.exterior, gens.poly, truncation=8).monomial((0,), (4, 0))
    with pytest.raises(GeneratorMismatch):
        classes_mod_image(d, [foreign])
    bad = Element._of(gens, {gens._word((), (0, 3)): Fraction(1),  # q^3 + x
                             gens.pack((0,), (0, 0)): Fraction(1)})
    with pytest.raises(ValueError, match="not a monomial of the complex"):
        classes_mod_image(d, [bad])


def test_membership_reads_a_zero_element_as_zero():
    gens, d = weil_complex(2)
    assert classes_mod_image(d, [gens.zero()]) == ([False], False)
    assert classes_mod_image(d, [gens.unit(), gens.zero()]) == ([True, False], False)


# -- seeded random pure complexes ----------------------------------------------

def _random_pure_complex(rng):
    """A ring of :func:`test_algebra._random_ring`'s polynomial shape with
    1-4 exterior generators of odd degree 1-9, at most 240 monomials, and
    a random pure differential: each image has 0-3 terms of degree
    deg + 1, coefficients +-1..4 over 1, 2 or 3 (so the layout's scale
    is not always 1)."""
    while True:
        base = _random_ring(rng)
        exterior = tuple((f"x{i}", rng.choice((1, 3, 5, 7, 9)))
                         for i in range(rng.randint(1, 4)))
        gens = GeneratorSet(exterior, base.poly, base.truncation)
        if gens.dimension() <= 240:
            break
    parts = list(exponent_vectors(gens._weights, gens._bound, gens._most))
    images = {}
    for name, deg in exterior:
        pool = [e for e, total in parts if total == deg + 1]
        image = gens.zero()
        for _ in range(rng.randint(0, 3) if pool else 0):
            image = image + gens.monomial((), rng.choice(pool), Fraction(
                rng.choice((-1, 1)) * rng.randint(1, 4), rng.choice((1, 2, 3))))
        images[name] = image
    return gens, Differential(gens, images)


def test_random_pure_complexes_match_the_oracles():
    rng = random.Random(1913)
    # the bounds are drawn from their own stream, so the complexes stay those of rng
    bounds = random.Random(1914)
    for _ in range(100):
        gens, d = _random_pure_complex(rng)
        full, ranks = cohomology(gens, d), cohomology(gens, d, representatives=False)
        top = gens.top_degree()
        m = bounds.randint(0, top + 3)
        bounded = cohomology(gens, d, m)
        assert bounded.max_degree == m
        assert bounded.by_degree == {n: full.by_degree[n] for n in range(min(m, top) + 1)}
        got = {n: (s.dim, [str(r) for r in s.representatives])
               for n, s in full.by_degree.items()}
        assert got == global_cohomology(gens, d), (gens, d.ext_images)
        assert [(s.chain_dim, s.dim) for s in ranks.by_degree.values()] == \
            [(s.chain_dim, s.dim) for s in full.by_degree.values()]
        chain, cohom = _euler_characteristics(full)
        assert chain == cohom
        reps = [r for s in full.by_degree.values() for r in s.representatives]
        assert all(reps)
        assert classes_mod_image(d, reps) == ([True] * len(reps), True)
        for n, s in full.by_degree.items():
            boundary = d(_random_in_degree(gens, rng, n - 1))
            assert classes_mod_image(d, [boundary]) == ([False], False)
            if s.representatives:
                r = rng.choice(s.representatives)
                assert classes_mod_image(d, [r + boundary]) == ([True], True)
        layout = dga._Layout(gens, d, top + 1)
        for n in range(top + 1):
            basis_n = basis_of_degree(gens, n)
            assert [(gens.mono_degree(m), layout.row(m, n)) for m in basis_n] == \
                [(n, i) for i in range(len(basis_n))], n
