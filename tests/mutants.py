"""The mutation register: faults planted one at a time in a copy of the
package, each with the tests that must fail on it.

Run it from anywhere with ``python tests/mutants.py``.  It copies ``src/``,
``tests/``, ``schemas/`` and ``pyproject.toml`` into a temporary directory,
checks that every test the register names passes there, and then, for
each entry in turn, replaces the entry's old text by its new text in the
copy and runs the entry's tests under pytest in a subprocess.  An entry
is killed when one of its tests fails (or the run times out), and
survived otherwise.
It prints one line per entry and exits 1 if an entry survived.  Nothing
outside the temporary directory is written.

``tests/test_mutants.py`` checks in tier-1 that each old text occurs
exactly once in its file and that each named test exists, so a refactor
that moves the code or the test must update or retire the entry.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # occurs exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest node ids of whole test functions


# _GeneratorMap.__call__ with its no-image check up front, and the planted
# fault: each generator checked only as it is multiplied in, so a term whose
# product reaches zero before it returns zero instead of raising
_NO_IMAGE_UP_FRONT = """\
            if not no_ext.isdisjoint(ext) or any(exps[i] for i in no_poly):
                names = [self.source_gens.exterior[pos][0] for pos in ext if pos in no_ext]
                names += [self.source_gens.poly[i][0] for i in no_poly if exps[i]]
                raise IndexOutOfRange(f"{names[0]} {self._no_image}")
            term = unit
            for pos in ext:
                term = term * self.ext_images[pos]
                if term.is_zero():
                    break
            else:
                for powers, e in zip(self._powers, exps):
                    if not e:
                        continue
"""
_NO_IMAGE_IN_THE_PRODUCT = """\
            term = unit
            for pos in ext:
                img = self.ext_images[pos]
                if img is None:
                    raise IndexOutOfRange(
                        f"{self.source_gens.exterior[pos][0]} {self._no_image}")
                term = term * img
                if term.is_zero():
                    break
            else:
                for i, (powers, e) in enumerate(zip(self._powers, exps)):
                    if not e:
                        continue
                    if powers is None:
                        raise IndexOutOfRange(f"{self.source_gens.poly[i][0]} {self._no_image}")
"""

MUTANTS = (
    Mutant("linalg-cancel-offsets-entries", "src/secclasses/linalg.py",
           "v = r.get(j, 0) * b - a * p.get(j, 0)",
           "v = r.get(j, 0) * b - a * p.get(j, 0) + (j > c)",
           ("tests/test_linalg.py::test_rank_equals_the_oracle_rank",)),
    Mutant("algebra-poly-mul-drops-the-guard", "src/secclasses/algebra.py",
           "return None if (a + b + self._bias) & self._guard else a + b",
           "return a + b",
           ("tests/test_algebra.py::test_word_methods_match_the_tuple_reference",)),
    Mutant("dga-layout-drops-the-koszul-sign", "src/secclasses/dga.py",
           "-c if p & 1 else c", "c if p & 1 else c",
           ("tests/test_dga.py::test_layout_columns_equal_the_leibniz_oracle",)),
    Mutant("frames-generator-map-squares-powers", "src/secclasses/frames.py",
           "powers.append(powers[-1] * powers[1])",
           "powers.append(powers[-1] * powers[-1])",
           ("tests/test_frames.py::test_the_generator_maps_are_multiplicative_and_additive",)),
    Mutant("frames-generator-map-checks-no-image-late", "src/secclasses/frames.py",
           _NO_IMAGE_UP_FRONT, _NO_IMAGE_IN_THE_PRODUCT,
           ("tests/test_frames.py::"
            "test_a_term_with_an_unmapped_generator_raises_whatever_its_other_factors_map_to",)),
    Mutant("models-deals-count-one-way-per-slot", "src/secclasses/models.py",
           "prod(map(comb, left, take))", "1",
           ("tests/test_models.py::test_counted_pairings_equal_the_ring_oracle",
            "tests/test_models.py::test_certificate_q6_degree8_block")),
    Mutant("weil-rigid-vey-basis-keeps-the-member-floor", "src/secclasses/weil.py",
           "least=q + 1 - i1 + rigid", "least=q + 1 - i1",
           ("tests/test_weil.py::test_rigid_vey_basis_is_the_basis_filtered_by_is_rigid",)),
    Mutant("algebra-exponent-vectors-least-off-by-one", "src/secclasses/algebra.py",
           "top, low = max(budget + 1, 0), max(least, 0)",
           "top, low = max(budget + 1, 0), max(least - 1, 0)",
           ("tests/test_algebra.py::test_enumerators_match_brute_force_product",)),
    Mutant("models-deals-takes-one-weight-short", "src/secclasses/models.py",
           "caps=left, least=w))", "caps=left, least=w - 1))",
           ("tests/test_models.py::test_counted_pairings_of_every_degree_equal_the_ring_oracle",)),
    Mutant("reporting-empty-table-tests-the-rows", "src/secclasses/reporting.py",
           "    if not body:\n", "    if not rows:\n",
           ("tests/test_cli.py::test_golden_output_sha256",)),
    Mutant("weil-is-member-skips-the-j-sum", "src/secclasses/weil.py",
           "        if sj > q:\n            return False\n", "",
           ("tests/test_weil.py::"
            "test_is_member_rejects_an_empty_i_an_index_above_q_and_a_j_sum_above_q",)),
    Mutant("linalg-keep-leaves-a-negative-lead", "src/secclasses/linalg.py",
           "    if r[lead] < 0:\n        r = {j: -v for j, v in r.items()}\n", "",
           ("tests/test_linalg.py::test_kept_pivots_are_content_stripped_with_a_positive_lead",)),
    Mutant("linalg-echelon-skips-later-pivot-columns", "src/secclasses/linalg.py",
           "c = min((j for j in r if j > c and j in pivots), default=None)", "c = None",
           ("tests/test_linalg.py::test_echelon_residuals_equal_the_fraction_oracle",)),
    Mutant("linalg-kernel-offset-one-low", "src/secclasses/linalg.py",
           "offset = 1 + max(", "offset = max(",
           ("tests/test_linalg.py::test_kernel_vectors_annihilate",
            "tests/test_linalg.py::test_integer_kernel_spans_the_oracle_kernel")),
    Mutant("algebra-mono-mul-drops-the-exterior-overlap", "src/secclasses/algebra.py",
           "if ea & eb or (a + b + self._bias) & self._guard:",
           "if (a + b + self._bias) & self._guard:",
           ("tests/test_algebra.py::test_word_methods_match_the_tuple_reference",
            "tests/test_algebra.py::test_exterior_square_inside_product")),
    Mutant("dga-layout-shift-drops-the-cap-test", "src/secclasses/dga.py",
           "(i, pos[y]) for i, x in enumerate(self.parts[k])\n"
           "                if (y := mul(x, b)) is not None]",
           "(i, pos[x + b]) for i, x in enumerate(self.parts[k])]",
           ("tests/test_dga.py::test_layout_columns_drop_an_image_term_beyond_a_cap",)),
    Mutant("cli-cohomology-drops-the-exterior-lower-bound", "src/secclasses/cli.py",
           "    _check_budget(1 << exterior, args.max_dim, what, at_least=True)\n", "",
           ("tests/test_cli.py::"
            "test_cohomology_lower_bound_counts_the_exterior_generators_of_w_q",)),
)


def _passes(root: Path, tests) -> bool:
    """Whether ``tests`` pass in the copy at ``root``, under its own package."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name in ("src", "tests", "schemas"):
            shutil.copytree(ROOT / name, root / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy2(ROOT / "pyproject.toml", root)
        if not _passes(root, sorted({t for m in MUTANTS for t in m.tests})):
            print("the register's tests fail on the unmutated copy")
            return 2
        survived = 0
        for m in MUTANTS:
            target = root / m.path
            text = target.read_text()
            if text.count(m.old) != 1:
                raise SystemExit(f"{m.name}: the old text does not occur exactly once")
            target.write_text(text.replace(m.old, m.new))
            try:
                killed = not _passes(root, m.tests)
            finally:
                target.write_text(text)
            survived += not killed
            print(f"{'killed' if killed else 'SURVIVED':8}  {m.name}")
        print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
