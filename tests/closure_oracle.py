"""The monomial closure search: the block of the image of d that a support
touches.

The membership tests use it to build cocycles in disjoint blocks.  It
finds a block from Leibniz predecessors and monomial images, with no
index arithmetic: it reads the differential's generator images
(``ext_images``, ``poly_images``) and applies ``d`` to one monomial at a
time, and shares no code with ``dga._Layout``.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from secclasses.algebra import Element, Mono
from secclasses.dga import Differential


def _terms_by_variable(d: Differential) -> dict[int, list]:
    """Each generator-image term, keyed by one variable it needs: its first
    exterior index, else n_exterior + its first polynomial position.
    Generator degrees are positive, so no term is constant."""
    n_ext = d.gens.n_exterior
    out: dict[int, list] = {}
    for g, image in enumerate(d.ext_images + d.poly_images):
        for b_ext, b_exps in image.terms:
            key = b_ext[0] if b_ext else n_ext + next(
                j for j, e in enumerate(b_exps) if e)
            out.setdefault(key, []).append((g, b_ext, b_exps))
    return out


def predecessors(d: Differential, t: Mono) -> set[Mono]:
    """Every monomial m whose image d(m) can have ``t`` in its support.

    By the Leibniz rule every term of d(m) is, up to sign, (m / g) * b
    for a generator g of m and a term b of d(g).  So m = (t / b) * g
    for some g with d(g) != 0 and some term b of d(g) dividing t.  A
    candidate is dropped when g would repeat an exterior index of
    t / b, or when a polynomial g would break its cap or the
    truncation; every other candidate is a monomial of degree
    deg(t) - 1.  Cancellation in d(m) may still remove t, so this
    is a superset of the true predecessors.
    """
    t_ext, t_exps = t
    gens = d.gens
    n_ext = gens.n_exterior
    by_variable = _terms_by_variable(d)
    out: set[Mono] = set()
    # a term b divides t only if t has the variable b is keyed by
    keys = [*t_ext, *(n_ext + j for j, e in enumerate(t_exps) if e)]
    for key in keys:
        for g, b_ext, b_exps in by_variable.get(key, ()):
            if not (all(map(operator.le, b_exps, t_exps))
                    and all(i in t_ext for i in b_ext)):
                continue
            r_ext = tuple(i for i in t_ext if i not in b_ext)
            r_exps = tuple(map(operator.sub, t_exps, b_exps))
            if g < n_ext:
                if g not in r_ext:
                    out.add((tuple(sorted(r_ext + (g,))), r_exps))
                continue
            j = g - n_ext
            m = (r_ext, r_exps[:j] + (r_exps[j] + 1,) + r_exps[j + 1:])
            # a cap or the truncation may forbid the extra factor g
            if gens.mono_valid(m):
                out.add(m)
    return out


def touched_image(d: Differential, support) -> list[dict[Mono, int | Fraction]]:
    """The nonzero images d(m) of the block of d that ``support`` touches.

    A closure search: every monomial reached is a target, each target's
    predecessors are differentiated once, and the support of every new
    image joins the targets until nothing new is found.  Every m whose
    d(m) meets a reached target is found, and the rest of the image lives
    on targets that are never reached, so a vector supported on ``support``
    is in the image of d iff it is in the span of these rows.  The rows
    come in the canonical order of their source monomials.
    """
    targets = set(support)
    frontier = list(targets)
    images: dict[Mono, dict[Mono, int | Fraction]] = {}
    while frontier:
        for m in predecessors(d, frontier.pop()):
            if m in images:
                continue
            dm = images[m] = d(Element(d.gens, {m: 1})).terms
            for mm in dm.keys() - targets:
                targets.add(mm)
                frontier.append(mm)
    return [images[m] for m in sorted(images) if images[m]]
