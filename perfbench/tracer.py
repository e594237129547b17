"""Per-layer tracing of one CLI job, from outside the program.

Run as a script, this is the bootstrap of a traced job's child process::

    PYTHONPATH=src python3 perfbench/tracer.py --out trace.json --job ID \\
        -- cohomology --q 8 --format json

It imports ``secclasses.cli``, wraps public functions of each module, runs
``secclasses.cli.main(argv)`` with stdout captured under ``tracemalloc``,
writes the captured report to its own stdout unchanged (so the caller can
check it against the reference hash) and writes the spans and counters to
``--out``.  Nothing under ``src/`` is modified; the wrappers are installed
by rebinding names at run time.

Spans are kept in memory as ``(name, start, end, parent, job)`` tuples,
``parent`` being the index of the enclosing span or -1, and are written
out once the job ends.  :func:`layer_metrics` turns them into the
per-layer metrics, a span's self time being its duration minus the union
of its child spans.

Functions that can run 10^5 to 10^6 times in one job
(``GeneratorSet.mono_mul``, ``Element.__init__`` and
``VeyIndex.__post_init__``) get count-only wrappers without spans.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import sys
import time
import tracemalloc
from collections import defaultdict

# (metric, unit) for every per-layer metric, in the order they are reported.
LAYER_METRICS = (
    ("algebra.basis_of_degree.calls", "count"),
    ("algebra.basis_of_degree.self_s", "s"),
    ("algebra.basis_of_degree.hit_ratio", "ratio"),
    ("algebra.basis_of_degree.monos", "count"),
    ("algebra.element_mul.calls", "count"),
    ("algebra.element_mul.self_s", "s"),
    ("algebra.element_mul.term_pairs", "count"),
    ("algebra.element_add.calls", "count"),
    ("algebra.element_add.self_s", "s"),
    ("algebra.element_init.calls", "count"),
    ("algebra.mono_mul.calls", "count"),
    ("algebra.mono_mul.null_ratio", "ratio"),
    ("dga.differential.calls", "count"),
    ("dga.differential.self_s", "s"),
    ("dga.differential.terms_in", "count"),
    ("dga.cohomology.self_s", "s"),
    ("dga.slice_dim_max", "count"),
    ("dga.slice_dim_total", "count"),
    ("linalg.kernel_from_columns.calls", "count"),
    ("linalg.kernel_from_columns.self_s", "s"),
    ("linalg.kernel_from_columns.nnz", "count"),
    ("linalg.echelon_add.calls", "count"),
    ("linalg.echelon_add.self_s", "s"),
    ("linalg.echelon_add.kept_ratio", "ratio"),
    ("linalg.integer_add.calls", "count"),
    ("linalg.integer_add.self_s", "s"),
    ("linalg.integer_add.kept_ratio", "ratio"),
    ("linalg.coeff_bits_max", "bits"),
    ("weil.vey_index.constructed", "count"),
    ("weil.weil_complex.self_s", "s"),
    ("models.whitney_sum.calls", "count"),
    ("models.whitney_sum.self_s", "s"),
    ("frames.build_frame_model.self_s", "s"),
    ("frames.characteristic_map.self_s", "s"),
    ("frames.certify.self_s", "s"),
    ("frames.model_dimension", "count"),
    ("reporting.render.self_s", "s"),
    ("reporting.output_bytes", "bytes"),
    ("cli.main.self_s", "s"),
    ("proc.import_s", "s"),
    ("proc.tracemalloc_peak_mb", "MB"),
    ("trace.overhead_ratio", "ratio"),
)


def _bits(value) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


class Tracer:
    """Spans and counters for one job, and the wrappers that record them."""

    def __init__(self, job: str):
        self.job = job
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def spanned(self, name: str, fn, after=None):
        """``fn`` recording a span; ``after(args, result)`` runs once it ends."""
        spans, stack, job = self.spans, self._stack, self.job
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, job)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def counted(self, name: str, fn, null_name: str | None = None):
        """``fn`` counting its calls, and its ``None`` results if asked."""
        counts = self.counts

        if null_name is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                result = fn(*args, **kwargs)
                if result is None:
                    counts[null_name] += 1
                return result
        return wrapper

    def _patch(self, owner, attr: str, replacement):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _rebind(self, original, replacement):
        """Replace ``original`` in every ``secclasses`` module that holds it.

        ``from .algebra import basis_of_degree`` copies the name into
        ``dga`` and ``frames``, so patching only the defining module would
        miss their calls.
        """
        n = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "secclasses"
                                   or mod_name.startswith("secclasses.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, replacement)
                    n += 1
        if not n:
            raise RuntimeError(f"{original!r} is bound in no secclasses module")

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap the layers' public functions; :meth:`uninstall` undoes it."""
        from secclasses import algebra, cli, dga, frames, linalg, models, \
            reporting, weil
        add = self._add

        # Wrapped outside the lru_cache, which keeps working, and whose
        # cache_info() stays readable through ``bod``.  ``monos`` counts the
        # monomials of the calls that missed the cache, i.e. enumerated.
        bod = self._basis_of_degree = algebra.basis_of_degree
        misses = [bod.cache_info().misses]

        def after_basis(_args, result):
            now = bod.cache_info().misses
            if now != misses[0]:
                misses[0] = now
                add("algebra.basis_of_degree.monos", len(result))
        self._rebind(bod, self.spanned("algebra.basis_of_degree", bod,
                                       after_basis))

        def after_mul(args, _result):
            a, b = args
            if isinstance(b, algebra.Element):
                add("algebra.element_mul.term_pairs",
                    len(a.terms) * len(b.terms))
        self._method(algebra.Element, "__mul__", "algebra.element_mul",
                     after_mul)
        self._method(algebra.Element, "__add__", "algebra.element_add")
        self._patch(algebra.Element, "__init__", self.counted(
            "algebra.element_init.calls", algebra.Element.__init__))
        self._patch(algebra.GeneratorSet, "mono_mul", self.counted(
            "algebra.mono_mul.calls", algebra.GeneratorSet.mono_mul,
            "algebra.mono_mul.nulls"))

        self._method(dga.Differential, "__call__", "dga.differential",
                     lambda args, _r: add("dga.differential.terms_in",
                                          len(args[1].terms)))

        def after_cohomology(_args, report):
            dims = [s.chain_dim for s in report.by_degree.values()]
            add("dga.slice_dim_total", sum(dims))
            self._max("dga.slice_dim_max", max(dims, default=0))
        self._function(dga.cohomology, "dga.cohomology", after_cohomology)

        self._function(
            linalg.kernel_from_columns, "linalg.kernel_from_columns",
            lambda args, _r: add("linalg.kernel_from_columns.nnz",
                                 sum(len(c) for c in args[0])))

        def after_echelon(_args, residual):
            if residual is not None:
                add("linalg.echelon_add.kept", 1)
                self._max("linalg.coeff_bits_max",
                          max(map(_bits, residual.values())))
        self._method(linalg.Echelon, "add", "linalg.echelon_add",
                     after_echelon)

        def after_integer(args, kept):
            if kept:
                add("linalg.integer_add.kept", 1)
                # pivots only ever gain keys, so the newest row is last
                row = next(reversed(args[0].pivots.values()))
                self._max("linalg.coeff_bits_max",
                          max(abs(v).bit_length() for v in row.values()))
        self._method(linalg.IntegerEliminator, "add", "linalg.integer_add",
                     after_integer)

        self._function(weil.weil_complex, "weil.weil_complex")
        self._patch(weil.VeyIndex, "__post_init__", self.counted(
            "weil.vey_index.constructed", weil.VeyIndex.__post_init__))

        self._function(models.whitney_sum, "models.whitney_sum")

        self._function(frames.build_frame_model, "frames.build_frame_model")
        self._method(frames.CharacteristicMap, "__init__",
                     "frames.characteristic_map")
        self._method(frames.CharacteristicMap, "__call__",
                     "frames.characteristic_map")
        self._function(frames.certify_projective_family, "frames.certify",
                       lambda _a, r: self._max("frames.model_dimension",
                                               r.model_dimension))

        self._function(reporting.render, "reporting.render")
        self.main = self.spanned("cli.main", cli.main)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _add(self, name: str, n: int):
        self.counts[name] += n

    def _max(self, name: str, value: int):
        if value > self.counts[name]:
            self.counts[name] = value

    def _function(self, fn, name: str, after=None):
        self._rebind(fn, self.spanned(name, fn, after))

    def _method(self, cls, attr: str, name: str, after=None):
        # Patched on the class, so every caller's lookup reaches it.
        self._patch(cls, attr, self.spanned(name, getattr(cls, attr), after))

    def cache_counts(self) -> dict[str, int]:
        info = self._basis_of_degree.cache_info()
        return {"algebra.basis_of_degree.hits": info.hits,
                "algebra.basis_of_degree.misses": info.misses}


# -- analysis, run in the benchmark process ------------------------------------

def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent's interval, and overlapping
    children are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, job in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent, job) in enumerate(spans):
        covered = 0.0
        reach = start
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append((end - start) - covered)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(report: dict) -> dict[str, float]:
    """Per-layer metrics from one traced job's report (see ``main``).

    ``trace.overhead_ratio`` needs the untraced timing and is filled in by
    the caller; a ratio whose base is zero (the layer did not run) is 0.
    """
    spans = report["spans"]
    counts = defaultdict(int, report["counts"])
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for span, t in zip(spans, self_times(spans)):
        calls[span[0]] += 1
        self_s[span[0]] += t
    derived = {
        "algebra.basis_of_degree.hit_ratio": _ratio(
            counts["algebra.basis_of_degree.hits"],
            counts["algebra.basis_of_degree.hits"]
            + counts["algebra.basis_of_degree.misses"]),
        "algebra.mono_mul.null_ratio": _ratio(
            counts["algebra.mono_mul.nulls"], counts["algebra.mono_mul.calls"]),
        "linalg.echelon_add.kept_ratio": _ratio(
            counts["linalg.echelon_add.kept"], calls["linalg.echelon_add"]),
        "linalg.integer_add.kept_ratio": _ratio(
            counts["linalg.integer_add.kept"], calls["linalg.integer_add"]),
        "proc.import_s": report["import_s"],
        "proc.tracemalloc_peak_mb": report["tracemalloc_peak_mb"],
        "reporting.output_bytes": report["output_bytes"],
        "trace.overhead_ratio": 0.0,
    }
    out = {}
    for metric, _unit in LAYER_METRICS:
        base, _, field = metric.rpartition(".")
        if metric in derived:
            out[metric] = derived[metric]
        elif field == "calls" and base in calls:
            out[metric] = calls[base]
        elif field == "self_s":
            out[metric] = self_s[base]
        else:
            out[metric] = counts[metric]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="trace report path")
    parser.add_argument("--job", required=True, help="job id for the spans")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] \
        else args.cli_args

    t0 = time.perf_counter()
    import secclasses.cli
    import_s = time.perf_counter() - t0

    tracer = Tracer(args.job)
    tracer.install()
    captured = io.StringIO()
    tracemalloc.start()
    sys.stdout = captured
    try:
        code = tracer.main(cli_args)
    finally:
        sys.stdout = sys.__stdout__
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    output = captured.getvalue().encode()

    counts = {**tracer.counts, **tracer.cache_counts()}
    report = {
        "job": args.job,
        "exit_code": code,
        "import_s": import_s,
        "tracemalloc_peak_mb": peak / 2 ** 20,
        "output_bytes": len(output),
        "counts": counts,
        "spans": tracer.spans,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh)
    sys.stdout.buffer.write(output)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
