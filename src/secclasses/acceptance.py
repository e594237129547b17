"""The acceptance suite: one callable per criterion, shared by pytest and
the CLI selftest.  Every check is exact; randomized checks use a fixed
seed so the suite is reproducible.  Each :data:`CRITERIA` row carries
the criterion's runtime budget, and :func:`run` alone reads the clock:
passing details carry no timings, so ``selftest`` prints the same bytes
on every run, and a pass over budget fails naming its elapsed time.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import factorial

from .algebra import Element, GeneratorSet, basis_of_degree
from .dga import class_nonzero, cohomology
from .frames import (CharacteristicMap, certify_projective_family,
                     certify_sphere_family, projective_base_model,
                     sphere_base_model)
from .models import independence_certificate, verify_symmetric_multiple
from .weil import (VeyIndex, spherical_rigid_classes, vey_counts_by_degree,
                   weil_complex)

SEED = 43113


def random_monomial(gens: GeneratorSet, rng: random.Random):
    ext = tuple(i for i in range(gens.n_exterior) if rng.random() < 0.5)
    exps = []
    budget = gens._bound
    for deg, most in zip(gens._weights, gens._most):
        emax = min(most, budget // deg)
        e = rng.randint(0, emax) if emax > 0 else 0
        # bias toward sparse exponents so products rarely vanish outright
        if rng.random() < 0.5:
            e = min(e, 1)
        exps.append(e)
        budget -= e * deg
    return gens.pack(ext, exps)


def random_element(gens: GeneratorSet, rng: random.Random, n_terms: int = 3) -> Element:
    terms = {}
    for _ in range(rng.randint(1, n_terms)):
        m = random_monomial(gens, rng)
        terms[m] = Fraction(rng.choice([c for c in range(-9, 10) if c]),
                            rng.randint(1, 9))
    return Element(gens, terms)


def random_homogeneous(gens: GeneratorSet, rng: random.Random) -> Element:
    m = random_monomial(gens, rng)
    degree = gens.mono_degree(m)
    pool = basis_of_degree(gens, degree)
    terms = {}
    for _ in range(rng.randint(1, min(3, len(pool)))):
        terms[rng.choice(pool)] = Fraction(rng.choice([c for c in range(-9, 10) if c]),
                                           rng.randint(1, 9))
    return Element(gens, terms)


def _sign(parity: int) -> int:
    return -1 if parity & 1 else 1


def criterion_algebra_laws() -> tuple[bool, str]:
    """Graded commutativity, associativity, Leibniz, d(d(x)) = 0.

    Exhaustive over the monomials of the codimension 1 and 2 complexes,
    1000 exact randomized checks per law spread over codimensions 3..6.
    """
    for q in (1, 2):
        gens, d = weil_complex(q)
        monos = [m for n in range(gens.top_degree() + 1)
                 for m in basis_of_degree(gens, n)]
        for a in monos:
            ea = Element(gens, {a: Fraction(1)})
            if d(d(ea)):
                return False, f"d^2 != 0 on {gens.mono_str(a)} in W_{q}"
            for b in monos:
                eb = Element(gens, {b: Fraction(1)})
                ab, ba = ea * eb, eb * ea
                sign = _sign(gens.mono_degree(a) * gens.mono_degree(b))
                if ab != ba.scale(sign):
                    return False, (f"graded commutativity fails on {gens.mono_str(a)}, "
                                   f"{gens.mono_str(b)} in W_{q}")
                if d(ab) != d(ea) * eb + (ea * d(eb)).scale(_sign(gens.mono_degree(a))):
                    return False, (f"Leibniz fails on {gens.mono_str(a)}, "
                                   f"{gens.mono_str(b)} in W_{q}")
                for c in monos:
                    ec = Element(gens, {c: Fraction(1)})
                    if (ea * eb) * ec != ea * (eb * ec):
                        return False, (f"associativity fails on {gens.mono_str(a)}, "
                                       f"{gens.mono_str(b)}, {gens.mono_str(c)} in W_{q}")
    rng = random.Random(SEED)
    per_q = 250
    for q in (3, 4, 5, 6):
        gens, d = weil_complex(q)
        for _ in range(per_q):
            a, b = random_homogeneous(gens, rng), random_homogeneous(gens, rng)
            if a and b:
                da, db = (a.degree(), b.degree())
                if a * b != (b * a).scale(_sign(da * db)):
                    return False, f"graded commutativity fails in W_{q}"
                if d(a * b) != d(a) * b + (a * d(b)).scale(_sign(da)):
                    return False, f"Leibniz fails in W_{q}"
            x, y, z = (random_element(gens, rng) for _ in range(3))
            if (x * y) * z != x * (y * z):
                return False, f"associativity fails in W_{q}"
            if d(d(random_element(gens, rng))):
                return False, f"d^2 != 0 in W_{q}"
    return True, ("exhaustive for W_1, W_2; 1000 randomized checks per law "
                  "over W_3..W_6")


def criterion_vey_oracle() -> tuple[bool, str]:
    """Per-degree Vey counts equal brute-force cohomology dims, q = 1..7.

    Two independent routes: the index predicate enumeration versus exact
    ranks of d on every degree slice (no representatives).
    """
    for q in range(1, 8):
        gens, d = weil_complex(q)
        report = cohomology(gens, d, representatives=False)
        counts = vey_counts_by_degree(q)
        if report.by_degree[0].dim != 1:
            return False, f"H^0(W_{q}) != Q"
        for n in range(1, report.max_degree + 1):
            expected = counts.get(n, 0)
            got = report.by_degree[n].dim
            if expected != got:
                return False, (f"W_{q} degree {n}: {expected} Vey indices but "
                               f"dim H = {got}")
    return True, "all degrees agree for q = 1..7"


def criterion_godbillon_vey() -> tuple[bool, str]:
    """H(W_1) has dims {0: 1, 3: 1} with representative y1*c1, and the
    class y1*c1^q survives in the unframed complex for q = 1, 2."""
    gens, d = weil_complex(1)
    report = cohomology(gens, d)
    dims = report.dims()
    if dims != {0: 1, 3: 1}:
        return False, f"H(W_1) dims {dims} != {{0: 1, 3: 1}}"
    rep = report.by_degree[3].representatives
    expected = gens.monomial((0,), (1,))
    if len(rep) != 1 or rep[0] != expected:
        return False, f"degree-3 representative is {rep}, expected y1*c1"
    for q in (1, 2):
        wo_gens, wo_d = weil_complex(q, framed=False)
        exps = tuple(q if j == 0 else 0 for j in range(q))
        gv = wo_gens.monomial((0,), exps)
        if not class_nonzero(wo_gens, wo_d, gv):
            return False, f"y1*c1^{q} vanishes in the unframed complex, q={q}"
    return True, "H(W_1) = {1, y1*c1}; y1*c1^q nonzero unframed for q = 1, 2"


def criterion_pontrjagin_certificates() -> tuple[bool, str]:
    """Full-rank pairing certificates for q in {2, 4, 6, 8, 10}; the q=6
    degree-8 block is [[2, 0], [1, 1]] under the documented normalization."""
    for q in (2, 4, 6, 8, 10):
        report = independence_certificate(q)
        if not report.passed:
            bad = [b.degree for b in report.blocks if not b.full]
            return False, f"q={q}: degree blocks {bad} are rank deficient"
    report6 = independence_certificate(6)
    block8 = next(b for b in report6.blocks if b.degree == 8)
    expected = ((Fraction(2), Fraction(0)), (Fraction(1), Fraction(1)))
    if block8.matrix != expected:
        return False, f"q=6 degree-8 block is {block8.matrix}, expected ((2,0),(1,1))"
    return True, "all blocks full rank for q in 2..10; q=6 block matches"


def criterion_symmetric_ratio() -> tuple[bool, str]:
    """p_ell of the canonical sum over (CP^2)^k equals p_1^ell / ell!
    exactly, for k <= 5 and ell <= k."""
    for k in range(1, 6):
        for ell in range(1, k + 1):
            ratio, proportional = verify_symmetric_multiple(k, ell)
            if not proportional or ratio != Fraction(1, factorial(ell)):
                return False, (f"k={k}, ell={ell}: ratio {ratio}, "
                               f"expected 1/{factorial(ell)}")
    return True, "ratio is exactly 1/ell! for all k <= 5, ell <= k"


def criterion_projective_family() -> tuple[bool, str]:
    """Rigid classes y_I c_2^k over (CP^2)^k certified nonzero and
    independent for k = 2, 3; the k=2 image is exactly 2*u1*a1^2*a2^2."""
    for k in (2, 3):
        cert = certify_projective_family(k)
        if not cert.passed:
            bad = [c.source for c in cert.classes if not c.nonzero]
            return False, f"k={k}: classes {bad} failed certification"
    model = projective_base_model(2)
    delta = CharacteristicMap(model)
    v = VeyIndex((2,), (2, 2))
    image = delta(v.element(delta.source_gens))
    expected = model.gens.monomial((0,), (2, 2), Fraction(2))
    if image != expected:
        return False, f"k=2 image is {image}, expected 2*u1*a1^2*a2^2"
    return True, "k = 2, 3 certified; k=2 image equals 2*u1*a1^2*a2^2"


def criterion_sphere_family() -> tuple[bool, str]:
    """Over S^8 with q = 6: y4*c4 maps to s*u2 and survives, while
    y2*c2^3 maps to zero."""
    cert = certify_sphere_family(2)
    if not cert.passed:
        return False, f"sphere certificate failed: {cert.classes}"
    model = sphere_base_model(2)
    delta = CharacteristicMap(model)
    image = delta(VeyIndex((4,), (4,)).element(delta.source_gens))
    expected = model.gens.monomial((1,), (1,))
    if image != expected:
        return False, f"image of y4*c4 is {image}, expected s*u2"
    vanished = delta(VeyIndex((2,), (2, 2, 2)).element(delta.source_gens))
    if not vanished.is_zero():
        return False, f"y2*c2^3 should map to zero, got {vanished}"
    return True, "y4*c4 -> s*u2 nonzero; y2*c2^3 -> 0"


def criterion_spherical_families() -> tuple[bool, str]:
    """q=4 gives the single class y2*c2^2 in degree 11; q=6 gives three
    classes with degrees {15, 15, 22}."""
    fam4 = spherical_rigid_classes(4)
    if [(e.label(), e.degree) for e in fam4] != [("y2*c2^2", 11)]:
        return False, f"q=4 family is {[(e.label(), e.degree) for e in fam4]}"
    fam6 = spherical_rigid_classes(6)
    labels = sorted(e.label() for e in fam6)
    degrees = sorted(e.degree for e in fam6)
    if labels != ["y2*c2^3", "y2*y4*c2^3", "y4*c4"] or degrees != [15, 15, 22]:
        return False, f"q=6 family is {labels} with degrees {degrees}"
    return True, "q=4: {y2*c2^2} at degree 11; q=6: degrees {15, 15, 22}"


def criterion_growth_table() -> tuple[bool, str]:
    """Family sizes: |A(q)| = 2^(floor((q+2)/4)-1) for even q <= 30,
    monotone, and |A(q)| >= q^2/36 for even q in [8, 30] (exact comparison),
    with equality at q = 12 and nowhere else.

    The constant 1/36 is the least value of 2^(B-1) / q^2, B = floor((q+2)/4),
    over even q in [8, 30].  B is constant on each pair q = 4B-2, 4B, so the
    ratio is smallest at q = 4B, where it is 2^(B-1) / (16 B^2):
    B = 2, 3, 4 give 1/32, 1/36, 1/32, and from B = 4 on the ratio grows,
    since 2^(B-1) doubles with B while B^2 grows by at most (5/4)^2 < 2.
    At q = 4B-2 the ratio is larger than at q = 4B.  So the minimum
    4/144 = 1/36 is attained only at q = 12, and one member more or less
    there breaks the equality."""
    sizes = {}
    for q in range(4, 31, 2):
        fam = [e for e in spherical_rigid_classes(q) if e.family == "A"]
        sizes[q] = len(fam)
        expected = 2 ** ((q + 2) // 4 - 1)
        if len(fam) != expected:
            return False, f"|A({q})| = {len(fam)}, expected {expected}"
    qs = sorted(sizes)
    if any(sizes[a] > sizes[b] for a, b in zip(qs, qs[1:])):
        return False, f"family sizes are not monotone: {sizes}"
    violations = [q for q in range(8, 31, 2)
                  if Fraction(sizes[q]) < Fraction(q * q, 36)]
    if violations:
        parts = ", ".join(f"q={q}: size {sizes[q]} < q^2/36 = {Fraction(q * q, 36)}"
                          for q in violations)
        return False, f"quadratic lower bound fails ({parts})"
    tight = [q for q in range(8, 31, 2) if Fraction(sizes[q]) == Fraction(q * q, 36)]
    if tight != [12]:
        return False, f"q^2/36 is attained at q in {tight}, expected only q=12"
    return True, ("sizes match 2^(floor((q+2)/4)-1), monotone, >= q^2/36 "
                  "with equality only at q=12")


def criterion_cross_module() -> tuple[bool, str]:
    """For even q in 4..16: every spherical family entry passes membership
    and rigidity and is a nonzero class of a passing frame certificate,
    family A of the projective one for k = q/2 and family B (q = 4k - 2)
    of the sphere one, and every class those certify is a rigid Vey index."""
    for q in range(4, 17, 2):
        entries = spherical_rigid_classes(q)
        for entry in entries:
            if not entry.vey.is_member(q) or not entry.vey.is_rigid(q):
                return False, f"q={q}: {entry.label()} fails the predicates"
        for family, certify, k in (("A", certify_projective_family, q // 2),
                                   ("B", certify_sphere_family, (q + 2) // 4)):
            listed = {e.vey for e in entries if e.family == family}
            if not listed:
                continue
            cert = certify(k)
            if not cert.passed or not listed <= {c.vey for c in cert.classes if c.nonzero}:
                return False, f"q={q}: a family {family} class is not certified nonzero"
            for cls in cert.classes:
                if cls.expected_zero:
                    continue
                v = cls.vey
                if v is None or v.label() != cls.source or not v.is_rigid(q):
                    return False, f"certified class {cls.source} is not rigid for q={q}"
    return True, "family entries and certified classes all pass rigidity"


# (name, criterion, runtime budget in seconds or None)
CRITERIA: list[tuple[str, object, int | None]] = [
    ("1-algebra-laws", criterion_algebra_laws, 30),
    ("2-vey-oracle-equivalence", criterion_vey_oracle, 120),
    ("3-godbillon-vey-regression", criterion_godbillon_vey, None),
    ("4-pontrjagin-independence", criterion_pontrjagin_certificates, 60),
    ("5-symmetric-power-ratio", criterion_symmetric_ratio, None),
    ("6-projective-frame-certificate", criterion_projective_family, 120),
    ("7-sphere-frame-certificate", criterion_sphere_family, None),
    ("8-spherical-rigid-families", criterion_spherical_families, None),
    ("9-rigid-growth-table", criterion_growth_table, None),
    ("10-cross-module-consistency", criterion_cross_module, None),
]


def run(criterion, budget: int | None) -> tuple[bool, str]:
    """Run one criterion; a pass that took ``budget`` seconds or more fails,
    and its detail names the elapsed time."""
    start = time.perf_counter()
    ok, detail = criterion()
    elapsed = time.perf_counter() - start
    if ok and budget is not None and elapsed >= budget:
        return False, f"runtime budget exceeded: {elapsed:.1f}s >= {budget}s"
    return ok, detail


def run_all() -> list[tuple[str, bool, str]]:
    return [(name, *run(criterion, budget)) for name, criterion, budget in CRITERIA]
