"""Koszul models of orthonormal frame bundles and characteristic maps.

For a rank-q bundle over a finite base ring, the frame-bundle model is
base tensor Lambda(u_1, ..., u_umax [, v]): u_i has degree 4i-1 and kills
the i-th Pontrjagin image, v (even q only) has degree q-1 and kills the
Euler image.  The number of u's is (q-1)/2 for odd q and q/2-1 for even q,
matching the primitive generators of the rotation group's cohomology.

The characteristic map from the codimension-q Weil complex sends c_{2j} to
the j-th Pontrjagin image, y_{2j} to u_j, odd-indexed generators to zero,
and (even q, full models) y_q to v times the Euler image.

The certificates for the rigid families deliberately drop the Euler
transgression from the model: the classes y_I c_2^k land in the subalgebra
generated by the Pontrjagin data alone, and over (CP^2)^k the Euler
differential would make the whole subalgebra's image exact (the witness is
u_I * v * a_1...a_k, whose differential is u_I * a_1^2...a_k^2 on the nose
because every Pontrjagin image annihilates a_1...a_k).  Nonvanishing is
therefore certified in the Pontrjagin-transgression model, which is the
finite computation the degree-filtration argument reduces to.

Each family is ranked in a small sub-DGA S of that model M, onto which M
has a chain retraction r (r d = d r, r = id on S), so a cocycle of S is a
coboundary in M iff it is one in S, and likewise for independence modulo
coboundaries.  Over (CP^2)^k, S = Lambda(u_1..u_{k-1}) tensor
Q[t]/(t^{k+1}) with d u_i = t^i / i! and t the p_1 image: r averages over
the signed permutations of the a_j.  Over S^{4k}, S = Lambda(u_k..u_{2k-2})
tensor Q[s]/(s^2) with d u_k = s: r kills u_1..u_{k-1} and v.

Three maps carry a family, each a :class:`_GeneratorMap` given on
generators by name, with its own powers, and checked at construction to
be a chain map: the characteristic map delta: W -> M, the inclusion
iota: S -> M and the family's lift sigma: W -> S.  :func:`_rigid_family`
checks iota sigma = delta on the generators sigma maps, which gives it on
every class, as all three are multiplicative; a class v lifts to
sigma(v) and prints as iota(sigma(v)).  M itself supplies the dimension.
Every family, permanence included, is certified by one
:func:`_certificate` over (label, lift, image, vey) tuples, a permanence
class being its own lift in M: one :func:`dga.classes_mod_image` call
ranks the lifts, and it passes when they are jointly independent and each
class is nonzero unless it is expected to vanish, in which case it is zero.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .algebra import (Element, GeneratorMismatch, GeneratorSet, Mono, Record,
                      basis_of_degree, require_int, subsets)
from .dga import DegreeMismatch, Differential
from .models import (BundleMap, Factor, ModelRing, canonical_bundle,
                     product_model, sphere_model)
from .weil import IndexOutOfRange, VeyIndex, weil_complex
from . import dga


def fiber_primitive_count(q: int) -> int:
    """Number of Pontrjagin transgressions u_i in the rank-q fiber."""
    return (q - 1) // 2 if q % 2 else q // 2 - 1


def _fiber_generators(q: int, with_v: bool) -> tuple[tuple[str, int], ...]:
    """The exterior generators of the rank-q fiber: u_i of degree 4i-1,
    then, if ``with_v``, v of degree q-1."""
    fiber = tuple((f"u{i}", 4 * i - 1) for i in range(1, fiber_primitive_count(q) + 1))
    return fiber + (("v", q - 1),) if with_v else fiber


def _family_size(k: int, family: str) -> None:
    """Check the parameter k of the projective or sphere family."""
    require_int("k", k)
    if k < 2:
        raise ValueError(f"the {family} family starts at k = 2")


class FrameModel(Record, eq=False):
    """Finite Koszul model of the frame bundle of a rank-q bundle."""

    __slots__ = ("q", "base", "bundle", "gens", "d", "has_euler_transgression")

    def __init__(self, q: int, base: ModelRing, bundle: BundleMap | None,
                 gens: GeneratorSet, d: Differential, has_euler_transgression: bool):
        self._set(q, base, bundle, gens, d, has_euler_transgression)

    def dimension(self) -> int:
        return self.gens.dimension()


def build_frame_model(base: ModelRing, bundle: BundleMap, q: int,
                      include_euler: bool = True) -> FrameModel:
    """Assemble the Koszul model; differentials vanish on the base."""
    require_int("q", q)
    if q < 2:
        raise ValueError("frame models need q >= 2")
    if bundle.ring.gens != base.gens:
        raise GeneratorMismatch("bundle data must live over the base ring")
    n_u = fiber_primitive_count(q)
    with_v = q % 2 == 0 and include_euler
    gens = GeneratorSet(_fiber_generators(q, with_v), base.gens.poly, base.gens.truncation)
    images = {f"u{i}": gens.rehouse(bundle.p(i)) for i in range(1, n_u + 1)}
    if with_v:
        images["v"] = gens.rehouse(bundle.euler_image())
    d = Differential(gens, images)
    if bundle.rank != q:
        raise DegreeMismatch(f"a rank-{bundle.rank} bundle has no q = {q} frame model")
    return FrameModel(q, base, bundle, gens, d, with_v)


class _GeneratorMap:
    """The multiplicative map from the DGA of ``source_d`` to that of
    ``target_d``, given on generators by name, as :class:`Differential`
    takes its images: ``images[g]`` is the image of the generator g.  A
    generator not named has no image, and an element with a term involving
    it raises :class:`IndexOutOfRange`, whatever the term's other
    generators map to.  The images are kept as ``ext_images`` and
    ``poly_images``, in generator order, None where there is none; the
    powers of each polynomial image are computed once, in the map's own
    list [1, image, ...].

    Checked at construction to be a chain map on generators: each image
    has the generator's degree, and the image of d g is d of the image of
    g.  That is the whole chain property, as both sides are derivations
    along the map.  Polynomial generators come first, so a wrong
    polynomial image is named before an exterior generator whose d uses it.
    """

    _no_image = "has no image"

    def __init__(self, source_d: Differential, target_d: Differential,
                 images: dict[str, Element]):
        gens = self.source_gens = source_d.gens
        self.source_d = source_d
        self.target = target_d.gens
        images = dict(images)
        self.poly_images = tuple(images.pop(name, None) for name, _, _ in gens.poly)
        self.ext_images: tuple[Element | None, ...] = tuple(
            images.pop(name, None) for name, _ in gens.exterior)
        if images:
            raise KeyError(f"images given for unknown generators: {sorted(images)}")
        unit = self.target.unit()
        self._powers = tuple(None if image is None else [unit, image] for image in self.poly_images)
        self._no_ext = frozenset(p for p, image in enumerate(self.ext_images) if image is None)
        self._no_poly = tuple(i for i, image in enumerate(self.poly_images) if image is None)
        names = tuple((name, deg) for name, deg, _ in gens.poly) + gens.exterior
        for (name, degree), image in zip(names, self.poly_images + self.ext_images):
            if image is None:
                continue
            if image and image.degree() != degree:
                raise DegreeMismatch(f"the image of {name} has the wrong degree")
            mapped, d_image = self(source_d(gens.generator(name))), target_d(image)
            if mapped != d_image:
                raise DegreeMismatch(
                    f"the map fails to commute with d on {name}: image of "
                    f"d({name}) = {mapped}, d(image) = {d_image}")

    def __call__(self, x: Element) -> Element:
        if x.gens != self.source_gens:
            raise GeneratorMismatch("element does not live over the map's source")
        acc: dict[Mono, int | Fraction] = {}
        unit, unpack = self.target.unit(), self.source_gens.unpack
        no_ext, no_poly = self._no_ext, self._no_poly
        for m, coeff in x.terms.items():
            ext, exps = unpack(m)
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
                    while len(powers) <= e:
                        powers.append(powers[-1] * powers[1])
                    term = term * powers[e]
                    if term.is_zero():
                        break
            for m, c in term.terms.items():
                acc[m] = acc.get(m, 0) + coeff * c
        return Element._of(self.target, acc)


class CharacteristicMap(_GeneratorMap):
    """The multiplicative map from the codimension-q Weil complex.

    In a model without the Euler transgression the top even generator y_q
    (even q) has no image; applying the map to an element involving it
    raises.  Everything else is total.
    """

    _no_image = "has no image in a model without the Euler transgression"

    def __init__(self, model: FrameModel):
        self.model = model
        q, gens = model.q, model.gens
        zero = gens.zero()
        images = {f"c{i}": zero if i % 2 else gens.rehouse(model.bundle.p(i // 2))
                  for i in range(1, q + 1)}
        images.update((f"y{i}", zero) for i in range(1, q + 1, 2))
        images.update((f"y{2 * i}", gens.generator(f"u{i}"))
                      for i in range(1, fiber_primitive_count(q) + 1))
        if model.has_euler_transgression:
            images[f"y{q}"] = gens.generator("v") * gens.rehouse(model.bundle.euler_image())
        super().__init__(weil_complex(q, framed=True)[1], model.d, images)


class CertifiedClass(Record):
    __slots__ = ("source", "image", "degree", "nonzero", "expected_zero", "vey")

    def __init__(self, source: str, image: str, degree: int | None, nonzero: bool,
                 expected_zero: bool = False, vey: VeyIndex | None = None):
        self._set(source, image, degree, nonzero, expected_zero, vey)


class FrameCertificate(Record):
    __slots__ = ("q", "model_label", "model_dimension", "classes", "jointly_independent",
                 "passed")

    def __init__(self, q: int, model_label: str, model_dimension: int,
                 classes: tuple[CertifiedClass, ...], jointly_independent: bool, passed: bool):
        self._set(q, model_label, model_dimension, classes, jointly_independent, passed)


def _certificate(model: FrameModel, d: Differential, classes,
                 expected_zero=()) -> FrameCertificate:
    """The certificate over ``model`` of the list ``classes`` of (label,
    lift, image, vey) tuples, each ranked by its lift in the complex of
    ``d``, then of the ``expected_zero`` (label, image, vey) tuples, each
    nonzero iff its image is.  An entry shows its image, with no degree if
    the image is zero.

    Every lift must be a combination of monomials of the basis of
    ``d.gens``, checked against the cached basis of each degree.  The lifts
    then go to one :func:`dga.classes_mod_image` call, which checks that
    they are cocycles and ranks them; a zero lift reads as zero and makes
    the classes jointly dependent.  The certificate passes when the classes
    are jointly independent, and every entry is nonzero except the
    expected-zero ones, which are zero.
    """
    by_degree: dict[int, list[tuple[str, Element]]] = {}
    for label, lift, _, _ in classes:
        if lift:
            by_degree.setdefault(lift.degree(), []).append((label, lift))
    for n, group in by_degree.items():
        basis_n = set(basis_of_degree(d.gens, n))
        for label, x in group:
            if outside := x.terms.keys() - basis_n:
                raise ValueError(f"{label} has a term {min(outside)} outside the model")
    nonzero, joint = dga.classes_mod_image(d, [lift for _, lift, _, _ in classes])
    entries = tuple(
        [CertifiedClass(label, str(x), x.degree() if x else None, nz, vey=v)
         for (label, _, x, v), nz in zip(classes, nonzero)]
        + [CertifiedClass(label, str(x), None, bool(x), expected_zero=True, vey=v)
           for label, x, v in expected_zero])
    return FrameCertificate(model.q, model.base.label, model.dimension(), entries,
                            joint, joint and all(e.nonzero != e.expected_zero
                                                 for e in entries))


def projective_reduced_generators(k: int) -> GeneratorSet:
    """The generators of ``projective_reduced_model(k)``, with no differential."""
    _family_size(k, "projective")
    return GeneratorSet(tuple((f"u{i}", 4 * i - 1) for i in range(1, k)), (("t", 4, k),))


def projective_reduced_model(k: int) -> tuple[GeneratorSet, Differential]:
    """S = Lambda(u_1..u_{k-1}) tensor Q[t]/(t^{k+1}), d u_i = t^i / i!: the
    sub-DGA of ``projective_base_model(k)`` fixed by the signed
    permutations of the a_j, with t standing for the p_1 image."""
    gens = projective_reduced_generators(k)
    t = gens.generator("t")
    return gens, Differential(gens, {f"u{i}": (t ** i).scale(Fraction(1, factorial(i)))
                                     for i in range(1, k)})


def sphere_reduced_generators(k: int) -> GeneratorSet:
    """The generators of ``sphere_reduced_model(k)``, with no differential."""
    _family_size(k, "sphere")
    return GeneratorSet(tuple((f"u{i}", 4 * i - 1) for i in range(k, 2 * k - 1)),
                        (("s", 4 * k, 1),))


def sphere_reduced_model(k: int) -> tuple[GeneratorSet, Differential]:
    """S = Lambda(u_k..u_{2k-2}) tensor Q[s]/(s^2), d u_k = s: the
    sub-DGA of ``sphere_base_model(k)`` left when the free factor
    Lambda(u_1..u_{k-1}, v), all of whose differentials vanish, is split off."""
    gens = sphere_reduced_generators(k)
    return gens, Differential(gens, {f"u{k}": gens.generator("s")})


def _inclusion(delta: CharacteristicMap, reduced, poly_source: str) -> _GeneratorMap:
    """The inclusion of ``reduced`` = (gens, d), a sub-DGA S of the model M
    of ``delta``: u_i goes to u_i, and the polynomial generator of S (t or
    s) to the image under ``delta`` of the generator named ``poly_source``
    (c_2 or c_{2k}).  The relation t^{k+1} = 0 (or s^2 = 0) of S needs no
    check, since its image lies above the top degree of the base.
    """
    gens, d = reduced
    model = delta.model
    images = {name: model.gens.generator(name) for name, _ in gens.exterior}
    images[gens.poly[0][0]] = delta(delta.source_gens.generator(poly_source))
    return _GeneratorMap(d, model.d, images)


def _rigid_family(model: FrameModel, reduced, poly_source: str, lift, veys,
                  vanishing=()) -> FrameCertificate:
    """The certificate over ``model`` M of the Vey classes ``veys``, ranked
    by their lifts in the sub-DGA ``reduced`` = (gens, d) of M, and of the
    ``vanishing`` classes, expected to map to zero in M.  ``lift`` names
    the image in S of each generator of W the classes use, so defines
    sigma: W -> S.  On each generator it names, iota sigma must equal
    delta (else ``ValueError`` names it), which gives iota(sigma(v)) =
    delta(v) on every class v, all three maps being multiplicative.
    """
    delta = CharacteristicMap(model)
    d_s = reduced[1]
    sigma = _GeneratorMap(delta.source_d, d_s, lift)
    iota = _inclusion(delta, reduced, poly_source)
    w = delta.source_gens
    for name in lift:
        g = w.generator(name)
        s, x = sigma(g), delta(g)
        if iota(s) != x:
            raise ValueError(f"{name} lifts to {s}, which does not include as its image {x}")
    lifts = [sigma(v.element(w)) for v in veys]
    return _certificate(model, d_s, [(v.label(), s, iota(s), v) for v, s in zip(veys, lifts)],
                        [(v.label(), delta(v.element(w)), v) for v in vanishing])


def projective_base_model(k: int) -> FrameModel:
    """Frame model of the canonical rank-2k sum over (CP^2)^k, without the
    Euler transgression (see the README's notes on frame certificates)."""
    _family_size(k, "projective")
    base = product_model([Factor("cp2", 1)] * k)
    return build_frame_model(base, canonical_bundle(base), 2 * k,
                             include_euler=False)


def certify_projective_family(k: int) -> FrameCertificate:
    """Rigid classes y_I c_2^k over (CP^2)^k, q = 2k: nonzero and independent.

    I runs over index sets (2 = 2i_1 < 2i_2 < ...) within the fiber
    primitives; the images are p_1-image^k times u_{i_1}...u_{i_l}.
    Certified in ``projective_reduced_model(k)`` through the lift
    y_{2i} -> u_i (i < k), c_{2i} -> t^i / i!, so y_I c_2^k lifts to
    u_I t^k, and t includes as the p_1 image.
    """
    model = projective_base_model(k)
    gens_s, _ = reduced = projective_reduced_model(k)
    t = gens_s.generator("t")
    lift = {f"y{2 * i}": gens_s.generator(f"u{i}") for i in range(1, k)}
    lift["c2"] = t  # not t/1!, so that every lift keeps int coefficients
    lift.update((f"c{2 * i}", (t ** i).scale(Fraction(1, factorial(i))))
                for i in range(2, k + 1))
    veys = [VeyIndex(tuple(2 * i for i in (1,) + rest), (2,) * k)
            for rest in subsets(range(2, k))]
    return _rigid_family(model, reduced, "c2", lift, veys)


def sphere_base_model(k: int) -> FrameModel:
    """Frame model over S^{4k} for q = 4k-2, with p_k normalized to the volume."""
    _family_size(k, "sphere")
    base = sphere_model(k)
    return build_frame_model(base, canonical_bundle(base), 4 * k - 2, include_euler=True)


def certify_sphere_family(k: int) -> FrameCertificate:
    """Rigid classes y_I c_{2k} over S^{4k}, q = 4k-2, plus the vanishing check.

    I runs over (2k = 2i_1 < 2i_2 < ...); images are s tensor u_{i_1}... .
    The class y_2 c_2^{2k-1} maps to zero here (p_1 pulls back to zero),
    which is reported as an expected-zero entry.  Certified in
    ``sphere_reduced_model(k)`` through the lift y_{2i} -> u_i
    (k <= i <= 2k-2), c_{2k} -> s, c_{2i} -> 0 (k < i <= 2k-2), so
    y_I c_{2k} lifts to u_I s, and s includes as the image of c_{2k}.
    """
    model = sphere_base_model(k)
    gens_s, _ = reduced = sphere_reduced_model(k)
    lift = {f"y{2 * i}": gens_s.generator(f"u{i}") for i in range(k, 2 * k - 1)}
    lift[f"c{2 * k}"] = gens_s.generator("s")
    lift.update((f"c{2 * i}", gens_s.zero()) for i in range(k + 1, 2 * k - 1))
    veys = [VeyIndex(tuple(2 * i for i in (k,) + rest), (2 * k,))
            for rest in subsets(range(k + 1, 2 * k - 1))]
    return _rigid_family(model, reduced, f"c{2 * k}", lift, veys,
                         [VeyIndex((2,), (2,) * (2 * k - 1))])


def permanence_family(I: tuple[int, ...], J: tuple[int, ...], q: int,
                      r_list: tuple[int, ...]) -> FrameCertificate:
    """Twisted families over SO(q) x S^n from one nonvanishing class.

    Given a Vey index (I, J) of degree n with a designated nonzero
    evaluation on S^n, each subset R of ``r_list`` yields the class
    Tp_R tensor the sphere class, living in the zero-differential tensor
    model Lambda(fiber primitives) tensor Q[chi]/chi^2.  Preconditions:
    r strictly increasing, last(I) < 2r, 2r <= q, and u_r present in the
    fiber (the twist needs the corresponding primitive).
    """
    seed = VeyIndex(tuple(I), tuple(J))
    r_list = tuple(r_list)
    require_int("q", q)
    require_int("twisting index", *r_list)
    if not seed.is_member(q):
        raise ValueError(f"{seed.label()} is not a basis member in codimension {q}")
    if any(r_list[a] >= r_list[a + 1] for a in range(len(r_list) - 1)):
        raise ValueError("twisting indices must be strictly increasing")
    n_u = fiber_primitive_count(q)
    i_last = seed.I[-1]
    for r in r_list:
        if 2 * r > q:
            raise IndexOutOfRange(f"y{2 * r} does not exist in codimension {q}")
        if r > n_u:
            raise IndexOutOfRange(f"the fiber of SO({q}) has no primitive Tp_{r}")
        if not i_last < 2 * r:
            raise ValueError(f"twist index 2r = {2 * r} must exceed i_last = {i_last}")
    n = seed.degree
    exterior = _fiber_generators(q, q % 2 == 0)
    if n % 2 == 1:
        gens = GeneratorSet(exterior + (("x", n),), ())
    else:
        gens = GeneratorSet(exterior, (("x", n, 1),))
    chi = gens.generator("x")
    d = Differential(gens, {})
    model = FrameModel(q, ModelRing(gens, f"SO({q}) x S^{n}"),
                       None, gens, d, q % 2 == 0)
    classes = []
    for R in subsets(r_list):
        elem = chi
        for r in R:
            elem = gens.generator(f"u{r}") * elem
        twisted = "*".join([f"y{2 * r}" for r in R])
        label = seed.label() if not R else f"{seed.label()} twisted by {twisted}"
        classes.append((label, elem, elem, None))  # each element is its own lift in M
    return _certificate(model, d, classes)
