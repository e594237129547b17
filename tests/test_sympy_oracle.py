"""sympy's ``DomainMatrix`` over QQ as a third rank oracle, independent of
both the integer engine in ``linalg`` and the Fraction engine in
``fraction_linalg``.  Skipped when sympy is not installed."""

import random
from fractions import Fraction

import pytest

import fraction_linalg as oracle
from secclasses.algebra import Element, basis_of_degree
from secclasses.dga import _Layout, classes_mod_image, cohomology
from secclasses.frames import projective_reduced_model
from secclasses.linalg import IntegerEliminator, rank
from secclasses.weil import weil_complex
from test_dga import BLOCK_CASES
from test_linalg import _random_int_rows

QQ = pytest.importorskip("sympy").QQ
DomainMatrix = pytest.importorskip("sympy.polys.matrices").DomainMatrix


def sympy_rank(rows, ncols: int) -> int:
    """The rank of the sparse rows ``{column: Fraction}`` over QQ."""
    if not rows or not ncols:
        return 0
    dense = [[QQ(0)] * ncols for _ in rows]
    for dense_row, row in zip(dense, rows):
        for j, c in row.items():
            c = Fraction(c)
            dense_row[j] = QQ(c.numerator, c.denominator)
    return DomainMatrix(dense, (len(rows), ncols), QQ).rank()


def sympy_classes_mod_image(d, cocycles):
    """Membership by rank: x is not a coboundary iff adding its row to all
    of d_{n-1}, for every degree n of the support, raises the rank, and the
    cocycles are independent modulo coboundaries iff adding them all
    raises it by their number.  Each degree gets its own columns, as the
    image of d is graded."""
    gens = d.gens
    degrees = sorted({gens.mono_degree(m) for x in cocycles for m in x.terms})
    index = {m: i for i, m in enumerate(
        m for n in degrees for m in basis_of_degree(gens, n))}
    image = [{index[m]: c for m, c in d(Element(gens, {y: Fraction(1)})).terms.items()}
             for n in degrees for y in basis_of_degree(gens, n - 1)]
    rows = [{index[m]: c for m, c in x.terms.items()} for x in cocycles]
    base = sympy_rank(image, len(index))
    nonzero = [sympy_rank(image + [row], len(index)) > base for row in rows]
    return nonzero, sympy_rank(image + rows, len(index)) == base + len(rows)


@pytest.mark.parametrize("seed", range(12))
def test_rank_matches_sympy_on_random_sparse_rational_matrices(seed):
    rng = random.Random(seed)
    nrows, ncols = rng.randint(1, 40), rng.randint(1, 40)
    density = rng.choice((0.05, 0.15, 0.4))
    rows = [{j: Fraction(rng.randint(-9, 9), rng.randint(1, 7))
             for j in range(ncols) if rng.random() < density}
            for _ in range(nrows)]
    # a few dependent rows, so the rank is not simply min(nrows, ncols)
    for _ in range(rng.randint(0, 4)):
        a, b = rng.choice(rows), rng.choice(rows)
        s, t = Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-2, 2)
        rows.append({j: s * a.get(j, 0) + t * b.get(j, 0) for j in a.keys() | b.keys()})
    assert rank(rows) == sympy_rank(rows, ncols)


@pytest.mark.parametrize("seed", range(6))
def test_trusted_rank_matches_sympy_on_random_integer_matrices(seed):
    rng = random.Random(seed)
    nrows, ncols = rng.randint(1, 40), rng.randint(1, 40)
    rows = _random_int_rows(rng, nrows, ncols, unit=seed % 2 == 0)
    assert IntegerEliminator._of(rows).rank == rank(rows) == sympy_rank(rows, ncols)


@pytest.mark.parametrize("seed", range(6))
def test_independent_matches_sympy(seed):
    # the nonzero answers by a query that keeps nothing, then the joint one
    # by adding the queried rows, as ``classes_mod_image`` asks them
    rng = random.Random(seed)
    ncols = rng.randint(1, 30)
    rows = [{j: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
             for j in range(ncols) if rng.random() < 0.15} for _ in range(ncols)]
    image, queries = rows[:ncols // 2], rows[ncols // 2:]
    queries += [{j: 3 * a.get(j, 0) - b.get(j, 0) for j in a.keys() | b.keys()}
                for a, b in zip(image, image[1:])]
    elim = IntegerEliminator()
    for row in image:
        elim.add(row)
    base = sympy_rank(image, ncols)
    for row in queries:
        assert elim.independent(row) == (sympy_rank(image + [row], ncols) > base)
    assert elim.rank == base
    for row in queries:
        elim.add(row)
    assert elim.rank == sympy_rank(image + queries, ncols)


@pytest.mark.parametrize("complex_", BLOCK_CASES)
def test_trusted_ranks_of_integral_layouts_match_sympy(complex_):
    # the ranks the rank route of ``cohomology`` takes, degree by degree;
    # every layout is integral, the reduced projective model's scaled by
    # the lcm of its 1/i!
    gens, d = complex_()
    top = gens.top_degree()
    layout = _Layout(gens, d, top + 1)
    for n in range(top + 1):
        _, cols = layout.columns(n)
        image = [c for c in cols if c]
        ref = oracle.Echelon()
        for row in image:
            ref.add(row)
        ncols = 1 + max((i for c in image for i in c), default=-1)
        assert IntegerEliminator._of(image).rank == rank(image) == ref.rank == \
            sympy_rank(image, ncols), n


@pytest.mark.parametrize("complex_", [
    pytest.param(lambda: weil_complex(2), id="W2"),
    pytest.param(lambda: weil_complex(3), id="W3"),
    *[pytest.param(lambda k=k: projective_reduced_model(k), id=f"projective-S{k}")
      for k in (2, 3, 4)],
])
def test_membership_matches_sympy(complex_):
    # in each degree: the representatives, a random combination of them
    # plus a coboundary, and the coboundary alone; then cocycles of several
    # degrees in one call
    gens, d = complex_()
    rng = random.Random(71)
    slices = cohomology(gens, d).by_degree
    picked = []
    for n, s in slices.items():
        below = basis_of_degree(gens, n - 1) if n else []
        exact = d(Element(gens, {y: Fraction(rng.randint(-3, 3)) for y in below}))
        mixed = exact
        for rep in s.representatives:
            mixed = mixed + rep.scale(rng.randint(-2, 2))
        for xs in ([*s.representatives], [mixed, *s.representatives], [exact]):
            xs = [x for x in xs if x]
            if xs:
                assert classes_mod_image(d, xs) == sympy_classes_mod_image(d, xs), n
        if mixed:
            picked.append(mixed)
    for _ in range(5):
        xs = rng.sample(picked, min(4, len(picked)))
        assert classes_mod_image(d, xs) == sympy_classes_mod_image(d, xs)
