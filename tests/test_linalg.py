"""Exact rank, echelon, and kernel routines, cross-checked against the
reduced echelon form over Fraction in ``fraction_linalg``."""

import ast
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import fraction_linalg as oracle
import secclasses
from secclasses.algebra import InexactCoefficient
from secclasses.linalg import (Echelon, IntegerEliminator, _cancel, kernel_from_columns,
                               rank)


def F(a, b=1):
    return Fraction(a, b)


def test_rank_small_examples():
    assert rank([{0: F(1)}, {1: F(1)}]) == 2
    assert rank([{0: F(1), 1: F(2)}, {0: F(2), 1: F(4)}]) == 1
    assert rank([]) == 0
    assert rank([{}]) == 0
    assert rank([{0: F(2), 1: F(0)}]) == 1


def test_rank_with_fractions():
    rows = [{0: F(1, 2), 1: F(1, 3)}, {0: F(3), 1: F(2)}]
    assert rank(rows) == 1


def _random_rows(rng, nrows, ncols, density=0.4):
    rows = []
    for _ in range(nrows):
        row = {}
        for j in range(ncols):
            if rng.random() < density:
                row[j] = F(rng.randint(-6, 6), rng.randint(1, 4))
        rows.append(row)
    return rows


def test_integer_and_fraction_routes_agree():
    rng = random.Random(3)
    for _ in range(50):
        rows = _random_rows(rng, rng.randint(1, 8), rng.randint(1, 8))
        ech = oracle.Echelon()
        for r in rows:
            ech.add(dict(r))
        assert rank(rows) == ech.rank


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.lists(st.dictionaries(st.integers(0, 7), st.integers(-3, 3), max_size=5),
                max_size=8))
def test_rank_equals_the_oracle_rank(rows):
    # a zero coefficient is drawn too: the checked entry drops it
    assert rank(rows) == len(oracle.rref(rows)[0])


def test_rank_invariant_under_permutation():
    rng = random.Random(5)
    for _ in range(30):
        rows = _random_rows(rng, 6, 6)
        base = rank(rows)
        perm = list(range(len(rows)))
        rng.shuffle(perm)
        shuffled_rows = [rows[i] for i in perm]
        cols = list(range(6))
        rng.shuffle(cols)
        relabeled = [{cols[j]: v for j, v in row.items()} for row in shuffled_rows]
        assert rank(relabeled) == base


def test_rref_rows_are_monic_and_reduced():
    rows = [{0: F(2), 1: F(4), 2: F(2)}, {0: F(1), 1: F(3)}, {2: F(5)}]
    pivots, prows = oracle.rref(rows)
    assert pivots == sorted(pivots)
    for c, row in zip(pivots, prows):
        assert row[c] == 1
        for other in pivots:
            if other != c:
                assert other not in row


def test_kernel_vectors_annihilate():
    rng = random.Random(9)
    for _ in range(30):
        ncols = rng.randint(1, 7)
        nrows = rng.randint(1, 7)
        columns = []
        for _ in range(ncols):
            col = {}
            for i in range(nrows):
                if rng.random() < 0.4:
                    col[i] = F(rng.randint(-5, 5), rng.randint(1, 3))
            columns.append(col)
        kernel = kernel_from_columns(columns)
        col_rank = rank(list(columns))
        assert len(kernel) == ncols - col_rank
        for vec in kernel:
            image = {}
            for j, coeff in vec.items():
                for i, v in columns[j].items():
                    image[i] = image.get(i, F(0)) + coeff * v
            assert all(v == 0 for v in image.values())


def test_echelon_reduce_is_idempotent():
    ech = oracle.Echelon()
    ech.add({0: F(1), 1: F(2)})
    ech.add({1: F(1), 2: F(3)})
    residual = ech.reduce({0: F(2), 1: F(5), 2: F(3)})
    assert ech.reduce(residual) == residual
    assert ech.add({0: F(1), 1: F(2)}) is None


def _random_rational_rows(rng, nrows, ncols):
    """Rows with rational entries, negative leads, zero rows and repeats."""
    rows = []
    for _ in range(nrows):
        pick = rng.random()
        if pick < 0.1:
            rows.append({})
        elif pick < 0.2 and rows:
            row = rng.choice(rows)
            scale = F(rng.choice([-3, -1, 2]), rng.randint(1, 3))
            rows.append({j: scale * v for j, v in row.items()})
        else:
            row = {j: F(rng.choice([-1, 1]) * rng.randint(1, 6), rng.randint(1, 4))
                   for j in range(ncols) if rng.random() < 0.45}
            rows.append(row)
    return rows


def test_echelon_residuals_equal_the_fraction_oracle():
    rng = random.Random(11)
    for _ in range(300):
        rows = _random_rational_rows(rng, rng.randint(1, 10), rng.randint(1, 8))
        ech, ref = Echelon(), oracle.Echelon()
        for row in rows:
            got, want = ech.add(dict(row)), ref.add(dict(row))
            assert got == want
            if got is not None:
                assert all(type(v) is int or v.denominator != 1
                           for v in got.values())
        assert ech.rank == ref.rank


def test_echelon_on_large_sparse_rows_equals_the_fraction_oracle():
    # about 30 blocks of up to 6 columns, interleaved over 200 columns, rows
    # added in shuffled order: most stored pivots are absent from each row
    rng = random.Random(23)
    for _ in range(5):
        free = rng.sample(range(200), 200)
        rows = []
        for _ in range(30):
            size = rng.randint(1, 6)
            block, free = free[:size], free[size:]
            for row in _random_rational_rows(rng, rng.randint(1, 8), size):
                rows.append({block[j]: v for j, v in row.items()})
        rng.shuffle(rows)
        ech, ref = Echelon(), oracle.Echelon()
        for row in rows:
            assert ech.add(dict(row)) == ref.add(dict(row))
        assert ech.rank == ref.rank


def test_integer_kernel_spans_the_oracle_kernel():
    rng = random.Random(13)
    for _ in range(300):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        columns = _random_rational_rows(rng, ncols, nrows)
        got = kernel_from_columns(columns)
        want = oracle.kernel_from_columns(columns)
        assert len(got) == len(want) == ncols - rank(columns)
        for g, w in zip(got, want):
            # same free column, and the same span up to each free column
            assert max(g) == max(w)
            assert all(type(v) is int for v in g.values())
        for k in range(1, len(got) + 1):
            assert rank(got[:k] + want[:k]) == k


def _random_int_rows(rng, nrows, ncols, unit):
    """Rows of nonzero ints, with a few repeats and sums of earlier rows;
    with ``unit`` every entry is 1 or -1, so most stored pivots lead with 1."""
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.2:
            a, b = rng.choice(rows), rng.choice(rows)
            row = {j: a.get(j, 0) - b.get(j, 0) for j in a.keys() | b.keys()}
            rows.append({j: v for j, v in row.items() if v})
        else:
            rows.append({j: rng.choice((-1, 1)) * (1 if unit else rng.randint(1, 6))
                         for j in range(ncols) if rng.random() < 0.35})
    return rows


@pytest.mark.parametrize("unit", [True, False], ids=["unit", "non-unit"])
def test_trusted_rank_equals_the_checked_rank_and_the_oracle(unit):
    rng = random.Random(29)
    for _ in range(200):
        rows = _random_int_rows(rng, rng.randint(1, 12), rng.randint(1, 10), unit)
        ref, checked = oracle.Echelon(), IntegerEliminator()
        for row in rows:
            checked.add(row)
        want = [ref.add(row) for row in rows]
        trusted = IntegerEliminator._of(rows)
        assert type(trusted) is IntegerEliminator
        assert trusted.pivots == checked.pivots
        assert trusted.rank == rank(rows) == ref.rank
        # an Echelon built from the first i rows by the trusted constructor
        # gives each later row the residual of one fed every row (i = 0),
        # which is the oracle's
        for i in range(len(rows) + 1):
            prefix = Echelon._of(rows[:i])
            assert type(prefix) is Echelon
            assert [prefix.add(row) for row in rows[i:]] == want[i:], i


def test_no_entry_mutates_a_row_it_is_given():
    # a trusted row may be stored as a pivot as it is, so its caller must
    # still read it unchanged after later rows cancel against it
    rng = random.Random(31)
    for unit in (True, False):
        for _ in range(100):
            rows = _random_int_rows(rng, rng.randint(1, 10), rng.randint(1, 8), unit)
            before = [dict(r) for r in rows]
            half = len(rows) // 2
            prefix = Echelon._of(rows[:half])
            held = {c: dict(p) for c, p in prefix.pivots.items()}
            IntegerEliminator._of(rows)
            rank(rows)
            checked, ech = IntegerEliminator(), Echelon()
            for row in rows:
                checked.add(row)
                checked.independent(row)
                ech.add(row)
                prefix.add(row)
            kernel_from_columns(rows)
            assert rows == before
            # nor a stored pivot: the rows the trusted constructor kept are as they were
            assert {c: prefix.pivots[c] for c in held} == held


def test_cancel_drops_every_cancelled_entry():
    # against the unit lead p[0] = 1, r - 2p cancels at columns 0 and 1
    assert _cancel({0: 2, 1: 2, 2: 1}, {0: 1, 1: 1}, 0) == {2: 1}
    rng = random.Random(37)
    for unit in (True, False):
        for _ in range(300):
            r, p = _random_int_rows(rng, 2, 5, unit)
            common = sorted(r.keys() & p.keys())
            if not common:
                continue
            c = rng.choice(common)
            a, b = r[c], p[c]
            want = {j: b * r.get(j, 0) - a * p.get(j, 0) for j in r.keys() | p.keys()}
            want = {j: v for j, v in want.items() if v}
            g = gcd(*want.values()) if want else 1
            got = _cancel(r, p, c)
            assert got == {j: v // g for j, v in want.items()}
            assert c not in got and all(got.values())


def test_independent_keeps_nothing_and_equals_the_oracle():
    # half the queried rows lie in the span of the added ones
    rng = random.Random(41)
    for _ in range(200):
        rows = _random_rational_rows(rng, rng.randint(1, 8), rng.randint(1, 8))
        elim, ref = IntegerEliminator(), oracle.Echelon()
        for row in rows[:len(rows) // 2 + 1]:
            elim.add(row)
            ref.add(row)
        spanned = [{j: F(2) * a.get(j, 0) - b.get(j, 0) for j in a.keys() | b.keys()}
                   for a, b in zip(rows, rows[1:len(rows) // 2 + 1])]
        for row in rows + spanned:
            pivots = dict(elim.pivots)
            assert elim.independent(row) == bool(ref.reduce(row))
            assert elim.pivots == pivots


@pytest.mark.parametrize("call", [
    pytest.param(lambda: Echelon().add({0: 0.1, 1: 1}), id="echelon-add"),
    pytest.param(lambda: IntegerEliminator().add({0: F(1), 1: 2.0}), id="integer-add"),
    pytest.param(lambda: IntegerEliminator().independent({0: 0.5}),
                 id="integer-independent"),
    pytest.param(lambda: kernel_from_columns([{0: 0.5}, {0: 1}]), id="kernel"),
    pytest.param(lambda: rank([{0: 0.5}]), id="rank"),
    # a bool is no coefficient: True would read as 1, and False as a dropped 0
    pytest.param(lambda: rank([{0: True}]), id="rank-true"),
    pytest.param(lambda: IntegerEliminator().add({0: 1, 1: False}), id="integer-add-false"),
    pytest.param(lambda: Echelon().add({0: F(1, 2), 1: True}), id="echelon-add-true"),
])
def test_inexact_entries_rejected(call):
    with pytest.raises(InexactCoefficient):
        call()


ELIMINATORS = {"IntegerEliminator", "Echelon"}


def _linalg_privates(source: str) -> set[str]:
    """The private names of ``linalg`` a module imports from it, or reads
    off an imported ``linalg`` module."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
            names |= {a.name for a in node.names if a.name.startswith("_")}
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "linalg" and node.attr.startswith("_")):
            names.add(node.attr)
    return names


DICT_WRITES = {"update", "setdefault", "pop", "popitem", "clear", "__setitem__"}


def _pivots_write(node) -> bool:
    """Whether a node stores to a ``.pivots`` attribute, to an item of one,
    or calls a method of one that writes it."""
    if isinstance(node, ast.Attribute) and node.attr == "pivots":
        return not isinstance(node.ctx, ast.Load)
    if isinstance(node, ast.Subscript):
        return (not isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Attribute) and node.value.attr == "pivots")
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        owner = node.func.value
        return (node.func.attr in DICT_WRITES
                and isinstance(owner, ast.Attribute) and owner.attr == "pivots")
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return (node.func.id == "setattr" and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant) and node.args[1].value == "pivots")
    return False


def _eliminator_names(tree) -> set[str]:
    """The names of the ``linalg`` eliminator classes, and the aliases a
    module imports them under."""
    names = set(ELIMINATORS)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
            names |= {a.asname for a in node.names if a.asname and a.name in ELIMINATORS}
    return names


def _trusted_construction(node, eliminators: set[str]) -> bool:
    """Whether a node calls ``_of`` on a ``linalg`` eliminator class, by
    name, by alias or as the attribute of a module."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "_of"):
        return False
    owner = node.func.value
    if isinstance(owner, ast.Attribute):
        return owner.attr in ELIMINATORS
    return isinstance(owner, ast.Name) and owner.id in eliminators


def _where(source: str, found) -> list[str]:
    """The functions of a module holding a node that ``found(node,
    eliminators)`` accepts, once per node."""
    tree = ast.parse(source)
    eliminators = _eliminator_names(tree)
    out = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if found(node, eliminators):
            out.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return out


# The functions outside ``linalg`` that build an eliminator by its trusted
# constructor, each from the integer columns of ``dga._Layout``: the ranks
# of ``cohomology`` and the image of ``classes_mod_image``.
TRUSTED_CALLERS = [("dga.py", "cohomology"), ("dga.py", "classes_mod_image")]


def test_only_the_one_trusted_entry_leaves_linalg():
    # every other row goes through the entry check; a private linalg name
    # used elsewhere, pivots stored from outside linalg, or the trusted
    # constructor called on rows nobody made integral would each be a
    # second way to eliminate, unchecked
    src = Path(secclasses.__file__).parent
    imported, writes, trusted = {}, [], []
    for path in sorted(src.glob("*.py")):
        if path.name != "linalg.py":
            source = path.read_text()
            imported[path.name] = _linalg_privates(source)
            writes += [(path.name, f) for f in _where(source, lambda n, _: _pivots_write(n))]
            trusted += [(path.name, f) for f in _where(source, _trusted_construction)]
    assert set().union(*imported.values()) == set(), imported
    assert writes == []
    assert trusted == TRUSTED_CALLERS
    assert _linalg_privates("from .linalg import Echelon, _keep\n"
                            "from secclasses import linalg\n"
                            "linalg._integer_row({})") == {"_keep", "_integer_row"}
    assert _where("e.pivots = {}\n"
                  "def f(e, r):\n"
                  "    e.pivots[0] = r; e.pivots.update({}); n = len(e.pivots)\n"
                  "    setattr(e, 'pivots', {}); del e.pivots\n"
                  "class C:\n"
                  "    def g(self, rows): self.pivots |= rows\n",
                  lambda n, _: _pivots_write(n)) == ["<module>", "f", "f", "f", "f", "g"]
    assert _where("from .linalg import Echelon as E, IntegerEliminator\n"
                  "from . import linalg\n"
                  "x = E._of([])\n"
                  "def f(rows, g):\n"
                  "    IntegerEliminator._of(rows); linalg.Echelon._of(rows)\n"
                  "    Element._of(g, {}); secclasses.linalg.Echelon._of(rows)\n",
                  _trusted_construction) == ["<module>", "f", "f", "f"]
