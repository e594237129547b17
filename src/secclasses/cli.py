"""Command-line front end.

Every command emits a deterministic report in one of three formats:
a plain table (default), a schema-versioned JSON envelope, or flat CSV.
A command is one ``cmd_<name>`` function: it builds its records once,
and :func:`_report` renders them in the chosen format.

Arguments are checked by argparse alone, so a bad value is a usage error
that names the subcommand and the argument (``secclasses vey: error:
argument --q: must be >= 1``).  Exit codes: 0 success, 2 usage error,
3 dimension budget exceeded, 4 invariant violation (a selftest failure,
or any :class:`~secclasses.algebra.SecclassesError`, the base of the
package's own exceptions such as ``NotACocycle``).  Any other exception
is a bug and propagates with its traceback.

No color is ever emitted, so NO_COLOR is honored trivially; no network
access and no environment variables are required.

``acceptance``, ``frames`` and ``models`` are imported by the commands
that use them, so ``cohomology``, ``vey`` and ``catalog`` never load them.
Records are plain ``__slots__`` classes, and only ``--format csv`` loads ``csv``.
"""

from __future__ import annotations

import argparse
import sys

from .algebra import SecclassesError
from .dga import cohomology
from .reporting import FORMATS, envelope, rat, render
from .weil import (exterior_indices, spherical_rigid_classes, spherical_rigid_count,
                   vey_basis, weil_complex)

EXIT_OK = 0
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

DEFAULT_MAX_DIM = 10 ** 6


class BudgetExceeded(RuntimeError):
    pass


def _check_budget(count: int, max_dim: int, what: str, unit: str = "monomials",
                  at_least: bool = False):
    """Raise :class:`BudgetExceeded` if ``count`` is over ``max_dim``; a
    ``count`` above 64 bits is named by the power of two below it."""
    if count > max_dim:
        shown = count
        if count.bit_length() > 64:
            shown, at_least = f"2^{count.bit_length() - 1}", True
        raise BudgetExceeded(
            f"{what} has {'at least ' if at_least else ''}{shown} {unit}, over the "
            f"budget of {max_dim}; raise --max-dim to proceed")


def _report(args, params, results, title, columns, rows, notes) -> str:
    return render(args.format, envelope(args.command, params, results),
                  title, columns, rows, notes)


def cmd_vey(args) -> str:
    classes = vey_basis(args.q, args.min_degree, args.max_degree, rigid=args.rigid_only)
    records = [{"class": v.label(), "degree": v.degree,
                "rigid": args.rigid_only or v.is_rigid(args.q),
                "I": list(v.I), "J": list(v.J)} for v in classes]
    results = {"count": len(records),
               "unit_class": "excluded from the listing; contributes 1 in degree 0",
               "classes": records}
    params = {"q": args.q, "rigid_only": args.rigid_only,
              "min_degree": args.min_degree, "max_degree": args.max_degree}
    title = f"Vey basis, codimension {args.q}" + \
        (" (rigid only)" if args.rigid_only else "")
    rows = [{**r, "I": " ".join(map(str, r["I"])), "J": " ".join(map(str, r["J"]))}
            for r in records]
    return _report(args, params, results, title,
                   ["class", "degree", "rigid", "I", "J"], rows,
                   [f"{len(rows)} classes (unit class excluded)"])


def cmd_cohomology(args) -> str:
    what = f"the codimension-{args.q} complex"
    # every exterior subset times the unit: a lower bound from q alone,
    # checked before W_q is built or counted
    exterior = len(exterior_indices(args.q, args.framed))
    _check_budget(1 << exterior, args.max_dim, what, at_least=True)
    gens, d = weil_complex(args.q, framed=args.framed)
    dimension = gens.dimension()
    _check_budget(dimension, args.max_dim, what)
    max_degree = gens.top_degree() if args.max_degree is None else args.max_degree
    _check_budget(max_degree + 1, args.max_dim, "the report", "rows")
    report = cohomology(gens, d, max_degree, args.representatives)
    reps = args.representatives

    def record(n, chain_dim, dim, representatives):
        return {"degree": n, "chain_dim": chain_dim, "dim": dim,
                **({"representatives": [str(r) for r in representatives]}
                   if reps else {})}
    records = [record(n, s.chain_dim, s.dim, s.representatives)
               for n, s in report.by_degree.items()]
    # the degrees above the top are empty, and the report does not store them
    records += [record(n, 0, 0, ()) for n in range(len(records), max_degree + 1)]
    rows = [{**r, "representatives": "; ".join(r["representatives"])}
            if reps else r for r in records]
    columns = ["degree", "chain_dim", "dim"] + (["representatives"] if reps else [])
    nonzero = report.dims()
    results = {
        "total_dimension": dimension,
        "max_degree": report.max_degree,
        "dims": {str(n): dim for n, dim in nonzero.items()},
        "by_degree": records,
    }
    params = {"q": args.q, "framed": args.framed, "max_degree": args.max_degree,
              "representatives": reps, "max_dim": args.max_dim}
    kind = "framed" if args.framed else "unframed"
    return _report(args, params, results,
                   f"Cohomology of the {kind} codimension-{args.q} complex",
                   columns, rows, [f"nonzero dims: {nonzero}"])


def cmd_pontrjagin(args) -> str:
    from .models import independence_certificate
    report = independence_certificate(args.q)
    rows = []
    for b in report.blocks:
        for cls, matrix_row in zip(b.classes, b.matrix):
            for cyc, value in zip(b.cycles, matrix_row):
                rows.append({"kind": "entry", "degree": b.degree, "class": cls,
                             "cycle": cyc, "value": rat(value)})
        rows.append({"kind": "block", "degree": b.degree, "class": "",
                     "cycle": "", "value": "",
                     "rank": b.rank, "full": b.full})
    results = {
        "monomials": list(report.monomials),
        "blocks": [{
            "degree": b.degree,
            "classes": list(b.classes),
            "cycles": list(b.cycles),
            "matrix": [[rat(v) for v in row] for row in b.matrix],
            "rank": b.rank,
            "full_rank": b.full,
        } for b in report.blocks],
        "passed": report.passed,
        "normalization": report.note,
    }
    notes = [f"degree {b.degree}: rank {b.rank}/{len(b.classes)}"
             + ("" if b.full else "  RANK DEFICIENT") for b in report.blocks]
    notes.append("PASS" if report.passed else "FAIL")
    notes.append(report.note)
    return _report(args, {"q": args.q}, results,
                   f"Pontrjagin independence certificate, q = {args.q}",
                   ["kind", "degree", "class", "cycle", "value", "rank", "full"],
                   rows, notes)


def cmd_frame(args) -> str:
    from . import frames
    if args.case == "2k":
        reduced, certify = frames.projective_reduced_generators, frames.certify_projective_family
    else:
        reduced, certify = frames.sphere_reduced_generators, frames.certify_sphere_family
    # the budget counts the reduced model, the one laid out, from its
    # generators alone: before its differential or the full model is built
    _check_budget(reduced(args.k).dimension(), args.max_dim,
                  "the reduced frame model")
    cert = certify(args.k)
    columns = ["class", "degree", "image", "nonzero", "expected_zero"]
    records = [dict(zip(columns, (c.source, c.degree, c.image, c.nonzero,
                                  c.expected_zero))) for c in cert.classes]
    results = {"q": cert.q, "base": cert.model_label,
               "model_dimension": cert.model_dimension, "classes": records,
               "jointly_independent": cert.jointly_independent, "passed": cert.passed}
    params = {"case": args.case, "k": args.k, "max_dim": args.max_dim}
    notes = [f"base {cert.model_label}, model dimension {cert.model_dimension}",
             f"jointly independent: {cert.jointly_independent}",
             "PASS" if cert.passed else "FAIL"]
    return _report(args, params, results,
                   f"Frame-model certificate, case {args.case}, k = {args.k}",
                   columns, records, notes)


def cmd_catalog(args) -> str:
    _check_budget(spherical_rigid_count(args.q), args.max_dim,
                  f"the codimension-{args.q} spherical family", "classes")
    entries = [e for e in spherical_rigid_classes(args.q) if e.degree == args.dim]
    entries.sort(key=lambda e: (e.degree, e.label()))
    rows = [{"class": e.label(), "family": e.family, "degree": e.degree,
             "pairing": f"l{idx} * <{e.label()}, [S^{args.dim}]>"}
            for idx, e in enumerate(entries, start=1)]
    rank = len(entries)
    note = (f"Z^{rank}-indexed family: each pairing scales linearly in its "
            "integer parameter, so distinct parameters give distinct "
            "(non-homotopic) foliations" if rank else
            "no spherically supported rigid classes in this degree")
    results = {"classes": rows, "family_rank": rank, "note": note}
    return _report(args, {"q": args.q, "dim": args.dim}, results,
                   f"Distinguishing catalog: codimension {args.q}, "
                   f"manifold dimension {args.dim}",
                   ["class", "family", "degree", "pairing"], rows, [note])


def cmd_selftest(args) -> tuple[str, int]:
    from . import acceptance
    results = acceptance.run_all()
    passed = all(ok for _, ok, _ in results)
    if args.format != "table":
        criteria = [{"name": n, "passed": ok, "detail": d} for n, ok, d in results]
        text = _report(args, {}, {"criteria": criteria, "passed": passed},
                       "", ["name", "passed", "detail"], criteria, [])
    else:
        lines = [f"{'PASS' if ok else 'FAIL'}  {name}: {detail}"
                 for name, ok, detail in results]
        lines.append(f"{sum(ok for _, ok, _ in results)}/{len(results)} criteria passed")
        text = "\n".join(lines) + "\n"
    return text, EXIT_OK if passed else EXIT_INTERNAL


def _at_least(low: int, even: bool = False):
    """An argparse ``type``: an int that is at least ``low``, and even if
    ``even``; anything else is a usage error naming the argument."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low or even and value % 2:
            raise argparse.ArgumentTypeError(
                f"must be {'even and ' if even else ''}>= {low}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secclasses",
        description="Exact secondary characteristic classes of foliations")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=FORMATS, default="table",
                       help="output format (default: table)")

    p = sub.add_parser("vey", help="enumerate the Vey basis")
    p.add_argument("--q", type=_at_least(1), required=True, help="codimension, >= 1")
    p.add_argument("--rigid-only", action="store_true")
    p.add_argument("--min-degree", type=int, default=None)
    p.add_argument("--max-degree", type=_at_least(0), default=None)
    add_format(p)

    p = sub.add_parser("cohomology", help="exact cohomology of a complex")
    p.add_argument("--q", type=_at_least(1), required=True, help="codimension, >= 1")
    p.add_argument("--framed", action=argparse.BooleanOptionalAction,
                   default=True, help="framed complex (default) or unframed")
    p.add_argument("--max-degree", type=_at_least(0), default=None)
    p.add_argument("--representatives", action="store_true")
    p.add_argument("--max-dim", type=_at_least(0), default=DEFAULT_MAX_DIM,
                   help="largest admissible total monomial count, and "
                        "number of report rows (max degree + 1)")
    add_format(p)

    p = sub.add_parser("pontrjagin", help="independence certificate")
    p.add_argument("--q", type=_at_least(2), required=True, help="codimension, >= 2")
    add_format(p)

    p = sub.add_parser("frame", help="frame-model certificates")
    p.add_argument("--case", choices=("2k", "4k2"), required=True,
                   help="2k: (CP^2)^k base, q = 2k; 4k2: S^{4k} base, q = 4k-2")
    p.add_argument("--k", type=_at_least(2), required=True,
                   help="family parameter, >= 2")
    p.add_argument("--max-dim", type=_at_least(0), default=DEFAULT_MAX_DIM,
                   help="largest admissible monomial count of the reduced "
                        "model the certificate is computed in")
    add_format(p)

    p = sub.add_parser("catalog", help="distinguishing classes by dimension")
    p.add_argument("--q", type=_at_least(4, even=True), required=True,
                   help="even codimension >= 4")
    p.add_argument("--dim", type=_at_least(1), required=True, help="manifold dimension")
    p.add_argument("--max-dim", type=_at_least(0), default=DEFAULT_MAX_DIM,
                   help="largest admissible number of family classes, "
                        "counted before any is listed")
    add_format(p)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    add_format(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # looked up per call, so that a replaced cmd_<command> is the one run
    command = globals()[f"cmd_{args.command}"]
    try:
        out = command(args)
    except BudgetExceeded as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BUDGET
    except SecclassesError as exc:
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL
    text, code = out if isinstance(out, tuple) else (out, EXIT_OK)
    sys.stdout.write(text)
    return code


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
