"""Differential contracts, Leibniz behavior, and exact cohomology."""

import random
from fractions import Fraction

import pytest

from secclasses.algebra import Element, GeneratorSet, basis_of_degree
from secclasses.dga import (DegreeMismatch, Differential, NotACocycle,
                            _image_columns, class_nonzero, cohomology)
from secclasses.frames import projective_base_model, sphere_base_model
from secclasses.linalg import Echelon, kernel_from_columns, rank
from secclasses.weil import weil_complex


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


def test_degree_contract_rejected_at_construction():
    gens, _ = weil_complex(2)
    with pytest.raises(DegreeMismatch):
        Differential(gens, {"y1": gens.generator("y2")})  # odd -> odd
    with pytest.raises(KeyError):
        Differential(gens, {"nope": gens.generator("c1")})


def test_square_zero_checked_at_construction():
    # d(u) = p, d(p) = 0 is fine; making d(p) nonzero breaks d(d(u)) = 0
    gens = GeneratorSet((("u", 3),), (("p", 4, None), ("z", 8, None)), truncation=8)
    Differential(gens, {"u": gens.generator("p")})
    with pytest.raises(ValueError):
        Differential(gens, {"u": gens.generator("p"),
                            "p": gens.generator("u") * gens.generator("p")})


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


def test_euler_characteristic_consistency():
    for q in (1, 2, 3):
        gens, d = weil_complex(q)
        chain, cohom = cohomology(gens, d).euler_characteristics()
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


def global_cohomology(gens, d):
    """Oracle: one elimination over each whole degree slice, no blocks.

    Returns ``{n: (dim, [str(rep), ...])}`` over every degree.
    """
    out = {}
    prev_image = []
    for n in range(gens.top_degree() + 1):
        basis_n, cols = _image_columns(gens, d, n)
        kernel = kernel_from_columns(cols, len(basis_n))
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


@pytest.mark.parametrize("complex_", [
    *[pytest.param(lambda q=q, f=f: weil_complex(q, framed=f),
                   id=f"W{q}-{'framed' if f else 'unframed'}")
      for q in range(1, 6) for f in (True, False)],
    pytest.param(_transgression_model, id="transgression"),
    pytest.param(lambda: _frame(projective_base_model), id="projective-k2"),
    pytest.param(lambda: _frame(sphere_base_model), id="sphere-k2"),
])
def test_block_cohomology_matches_global_elimination(complex_):
    gens, d = complex_()
    report = cohomology(gens, d)
    got = {n: (s.dim, [str(r) for r in s.representatives])
           for n, s in report.by_degree.items()}
    assert got == global_cohomology(gens, d)
