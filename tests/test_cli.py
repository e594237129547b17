"""CLI behavior: formats, exit codes, determinism, schema round-trip."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

import secclasses
from secclasses import acceptance, cli, frames, models, reporting, weil
from secclasses.algebra import GeneratorMismatch, InexactCoefficient, SecclassesError
from secclasses.cli import main
from secclasses.dga import DegreeMismatch, NotACocycle
from secclasses.weil import IndexOutOfRange, OddCodimension

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "schemas" / "report.v1.json")
    .read_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return code, payload, err


def test_vey_q1(capsys):
    code, out, _ = run(capsys, "vey", "--q", "1")
    assert code == 0
    assert "y1*c1" in out and "3" in out


def test_vey_rigid_only_includes_degree_11_class(capsys):
    code, payload, _ = run_json(capsys, "vey", "--q", "4", "--rigid-only")
    assert code == 0
    classes = {c["class"]: c for c in payload["results"]["classes"]}
    assert "y2*c2^2" in classes
    assert classes["y2*c2^2"]["degree"] == 11
    assert all(c["rigid"] for c in classes.values())


def test_vey_rigid_only_decides_rigidity_once_per_class(capsys, monkeypatch):
    calls = []
    real = weil.VeyIndex.is_rigid

    def counted(self, q):
        calls.append(self)
        return real(self, q)

    monkeypatch.setattr(weil.VeyIndex, "is_rigid", counted)
    # the enumeration decides rigidity under --rigid-only, so no class
    # reaches is_rigid; without the flag each class reaches it once
    code, _, _ = run(capsys, "vey", "--q", "6", "--rigid-only")
    assert code == 0 and calls == []
    code, _, _ = run(capsys, "vey", "--q", "6")
    assert code == 0
    assert len(calls) == len(set(calls)) == len(weil.vey_basis(6))


def test_vey_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["vey", "--q", "0"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, argument", [
    ("vey --q 0", "--q"),
    ("vey --q 4 --max-degree -1", "--max-degree"),
    ("cohomology --q 2 --max-degree -3", "--max-degree"),
    ("pontrjagin --q 1", "--q"),
    ("frame --case 2k --k 1", "--k"),
    ("catalog --q 5 --dim 11", "--q"),
    ("catalog --q 6 --dim 0", "--dim"),
    ("cohomology --q two", "--q"),
    ("cohomology --q 2 --max-dim -1", "--max-dim"),
    ("frame --case 2k --k 3 --max-dim -5", "--max-dim"),
    ("catalog --q 6 --dim 15 --max-dim -1", "--max-dim"),
])
def test_usage_error_names_subcommand_and_argument(capsys, argv, argument):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    command = argv.split()[0]
    assert f"secclasses {command}: error: argument {argument}: " in \
        capsys.readouterr().err


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_cohomology_q1(capsys):
    code, payload, _ = run_json(capsys, "cohomology", "--q", "1")
    assert code == 0
    assert payload["results"]["dims"] == {"0": 1, "3": 1}


def test_cohomology_framed_matches_vey_counts(capsys):
    code, payload, _ = run_json(capsys, "cohomology", "--q", "2", "--framed")
    assert code == 0
    assert payload["results"]["dims"] == {"0": 1, "5": 2, "7": 1, "8": 2}


def test_cohomology_budget_exit_3(capsys):
    code, out, err = run(capsys, "cohomology", "--q", "12")
    assert code == 3
    assert "budget" in err


def test_cohomology_negative_max_degree_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["cohomology", "--q", "2", "--max-degree", "-3"])
    assert exc.value.code == 2


def test_cohomology_huge_max_degree_exit_3(capsys):
    # the report's rows count against --max-dim before any degree is built;
    # the small cases come first, so a missing guard fails before the
    # huge report would be built
    code, _, err = run(capsys, "cohomology", "--q", "1", "--max-degree", "9",
                       "--max-dim", "9")
    assert code == 3 and "10 rows" in err
    code, _, _ = run(capsys, "cohomology", "--q", "1", "--max-degree", "8",
                     "--max-dim", "9")
    assert code == 0
    start = time.perf_counter()
    code, out, err = run(capsys, "cohomology", "--q", "1",
                         "--max-degree", "100000000")
    assert time.perf_counter() - start < 1
    assert code == 3
    assert out == ""
    assert "100000001 rows" in err and "budget" in err


@pytest.mark.parametrize("value", [True, False, 0.5, "1"])
def test_rat_rejects_what_is_not_an_int_or_a_fraction(value):
    # a bool is an int subclass, but no rational, as in require_int
    with pytest.raises(TypeError, match="not a rational"):
        reporting.rat(value)


PACKAGE_EXCEPTIONS = [DegreeMismatch, GeneratorMismatch, IndexOutOfRange,
                      InexactCoefficient, NotACocycle, OddCodimension]


def _exit_of(capsys, monkeypatch, error):
    """The exit code and stderr of a ``vey`` run whose command raises ``error``."""
    def raise_error(args):
        raise error("an invariant failed")

    monkeypatch.setattr(cli, "cmd_vey", raise_error)
    code, out, err = run(capsys, "vey", "--q", "1")
    assert out == ""
    return code, err


@pytest.mark.parametrize("error", PACKAGE_EXCEPTIONS,
                         ids=[e.__name__ for e in PACKAGE_EXCEPTIONS])
def test_each_package_exception_exits_4(capsys, monkeypatch, error):
    code, err = _exit_of(capsys, monkeypatch, error)
    assert code == 4
    assert f"internal error: {error.__name__}: an invariant failed" in err
    # each keeps its builtin base, so callers catching ValueError/TypeError still do
    assert issubclass(error, SecclassesError)
    assert issubclass(error, TypeError if error is InexactCoefficient else ValueError)


def test_package_exceptions_exit_4(capsys, monkeypatch):
    # the CLI catches the base class, so a new package exception needs no list entry
    class NewInvariant(SecclassesError, ValueError):
        pass

    code, err = _exit_of(capsys, monkeypatch, NewInvariant)
    assert code == 4
    assert "NewInvariant" in err


def test_index_out_of_range_is_one_class_re_exported_from_frames():
    assert frames.IndexOutOfRange is weil.IndexOutOfRange
    assert secclasses.IndexOutOfRange is weil.IndexOutOfRange
    assert issubclass(weil.IndexOutOfRange, secclasses.SecclassesError)


def _fresh_interpreter(code: str) -> str:
    """The stdout of ``code`` run in a fresh interpreter."""
    src = Path(secclasses.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def _modules_loaded_by(*argv) -> set[str]:
    """The modules a fresh interpreter holds after one CLI run; this one has
    imported every module."""
    return set(json.loads(_fresh_interpreter(
        "import io, json, sys\n"
        "from secclasses.cli import main\n"
        "stdout, sys.stdout = sys.stdout, io.StringIO()\n"
        f"assert main({list(argv)!r}) == 0\n"
        "stdout.write(json.dumps(list(sys.modules)))\n")))


def _package_modules(loaded: set[str]) -> set[str]:
    return {m for m in loaded if m == "secclasses" or m.startswith("secclasses.")}


BASE_MODULES = {"secclasses", "secclasses.algebra", "secclasses.cli", "secclasses.dga",
                "secclasses.linalg", "secclasses.reporting", "secclasses.weil"}


@pytest.mark.parametrize("argv, expected", [
    (("cohomology", "--q", "8", "--format", "json"), BASE_MODULES),
    (("frame", "--case", "2k", "--k", "6", "--format", "json"),
     BASE_MODULES | {"secclasses.frames", "secclasses.models"}),
], ids=["cohomology-q8", "frame-2k-k6"])
def test_benchmark_jobs_load_exactly_their_modules(argv, expected):
    assert _package_modules(_modules_loaded_by(*argv)) == expected


def test_importing_the_package_loads_no_submodule():
    out = _fresh_interpreter("import json, sys, secclasses\n"
                             "print(json.dumps(list(sys.modules)))\n")
    assert _package_modules(set(json.loads(out))) == {"secclasses"}


def test_table_modules_resolve_as_package_attributes():
    out = _fresh_interpreter("import secclasses\n"
                             "print(secclasses.dga.cohomology.__module__)\n"
                             "print(secclasses.frames.FrameModel.__module__)\n")
    assert out.split() == ["secclasses.dga", "secclasses.frames"]


def test_cohomology_loads_no_frames_models_or_acceptance():
    loaded = _modules_loaded_by("cohomology", "--q", "2")
    assert "secclasses.dga" in loaded
    assert not loaded & {"secclasses.frames", "secclasses.models",
                         "secclasses.acceptance"}


@pytest.mark.parametrize("argv, absent", [
    (("cohomology", "--q", "2", "--format", "json"), {"dataclasses", "inspect", "csv"}),
    (("frame", "--case", "2k", "--k", "2", "--format", "json"), {"dataclasses", "inspect"}),
], ids=["cohomology", "frame"])
def test_json_reports_load_no_dataclasses_inspect_or_csv(argv, absent):
    loaded = _modules_loaded_by(*argv)
    assert "secclasses.reporting" in loaded
    assert not loaded & absent


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from secclasses import *", namespace)
    missing = [n for n in secclasses.__all__ if n not in namespace]
    assert not missing
    assert namespace["CharacteristicMap"] is frames.CharacteristicMap
    assert namespace["independence_certificate"] is models.independence_certificate
    with pytest.raises(AttributeError):
        secclasses.no_such_name
    assert set(secclasses._LAZY) <= set(secclasses.__all__)
    assert len(set(secclasses.__all__)) == len(secclasses.__all__)
    assert set(secclasses.__all__) <= set(dir(secclasses))
    for removed in ("is_rigid", "whitney_pullback", "x_model", "rigid_count_table",
                    "godbillon_vey", "pullback", "evaluate_on_cycle"):
        with pytest.raises(AttributeError):
            getattr(secclasses, removed)


def test_other_exceptions_propagate_as_bugs(monkeypatch):
    def raise_key_error(args):
        raise KeyError("a bug")

    monkeypatch.setattr(cli, "cmd_vey", raise_key_error)
    with pytest.raises(KeyError, match="a bug"):
        main(["vey", "--q", "1"])


def test_vey_negative_max_degree_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["vey", "--q", "4", "--max-degree", "-3"])
    assert exc.value.code == 2


def test_cohomology_representatives(capsys):
    code, payload, _ = run_json(capsys, "cohomology", "--q", "1",
                                "--representatives")
    deg3 = [row for row in payload["results"]["by_degree"] if row["degree"] == 3]
    assert deg3[0]["representatives"] == ["y1*c1"]


def test_pontrjagin_q6_block(capsys):
    code, payload, _ = run_json(capsys, "pontrjagin", "--q", "6")
    assert code == 0
    results = payload["results"]
    assert results["passed"] is True
    block8 = next(b for b in results["blocks"] if b["degree"] == 8)
    assert block8["matrix"] == [["2", "0"], ["1", "1"]]
    assert block8["rank"] == 2
    assert "normaliz" in results["normalization"]


def test_pontrjagin_q2(capsys):
    code, payload, _ = run_json(capsys, "pontrjagin", "--q", "2")
    assert code == 0
    assert payload["results"]["blocks"][0]["matrix"] == [["1"]]


def test_pontrjagin_q10_passes(capsys):
    code, payload, _ = run_json(capsys, "pontrjagin", "--q", "10")
    assert code == 0
    assert payload["results"]["passed"] is True


def test_pontrjagin_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pontrjagin", "--q", "1"])
    assert exc.value.code == 2


def test_frame_2k(capsys):
    code, payload, _ = run_json(capsys, "frame", "--case", "2k", "--k", "2")
    assert code == 0
    results = payload["results"]
    assert results["passed"] is True
    assert len([c for c in results["classes"] if c["nonzero"]]) == 1


def test_frame_4k2(capsys):
    code, payload, _ = run_json(capsys, "frame", "--case", "4k2", "--k", "2")
    assert code == 0
    results = payload["results"]
    assert results["passed"] is True
    names = {c["class"]: c for c in results["classes"]}
    assert names["y4*c4"]["nonzero"] is True
    assert names["y2*c2^3"]["expected_zero"] is True
    assert names["y2*c2^3"]["nonzero"] is False


def test_frame_guard_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frame", "--case", "2k", "--k", "1"])
    assert exc.value.code == 2


def test_frame_budget_exit_3(capsys):
    # the budget counts the reduced model: 2^2 * 4 monomials at k = 3
    code, out, err = run(capsys, "frame", "--case", "2k", "--k", "3",
                         "--max-dim", "10")
    assert code == 3
    assert "16 monomials" in err and "budget" in err


def test_frame_2k_k9_answers_at_the_default_budget(capsys):
    # the full model has 2^8 * 3^9 monomials, over the default budget; the
    # reduced model the certificate is computed in has 2^8 * 10
    assert frames.projective_base_model(9).dimension() > cli.DEFAULT_MAX_DIM
    code, payload, _ = run_json(capsys, "frame", "--case", "2k", "--k", "9")
    assert code == 0
    assert payload["results"]["passed"] is True
    assert payload["results"]["model_dimension"] == 2 ** 8 * 3 ** 9


def test_catalog_q4_dim11(capsys):
    code, payload, _ = run_json(capsys, "catalog", "--q", "4", "--dim", "11")
    assert code == 0
    results = payload["results"]
    assert [c["class"] for c in results["classes"]] == ["y2*c2^2"]
    assert results["family_rank"] == 1


def test_catalog_q6_dim15_two_classes(capsys):
    code, payload, _ = run_json(capsys, "catalog", "--q", "6", "--dim", "15")
    assert code == 0
    results = payload["results"]
    assert results["family_rank"] == 2
    assert sorted(c["class"] for c in results["classes"]) == \
        ["y2*c2^3", "y4*c4"]


def test_catalog_empty(capsys):
    code, payload, _ = run_json(capsys, "catalog", "--q", "6", "--dim", "14")
    assert code == 0
    assert payload["results"]["classes"] == []
    assert payload["results"]["family_rank"] == 0


def test_catalog_budget_exit_3(capsys):
    # the family is counted before it is listed; the small budgets come
    # first, so a missing guard fails before the huge family would be built
    code, _, err = run(capsys, "catalog", "--q", "14", "--dim", "51",
                       "--max-dim", "8")
    assert code == 3 and "9 classes" in err
    code, _, _ = run(capsys, "catalog", "--q", "14", "--dim", "51",
                     "--max-dim", "9")
    assert code == 0
    start = time.perf_counter()
    code, out, err = run(capsys, "catalog", "--q", "200", "--dim", "11")
    assert time.perf_counter() - start < 1
    assert code == 3
    assert out == ""
    assert f"{2 ** 49} classes" in err and "budget" in err


@pytest.mark.parametrize("argv, limit, message", [
    # the reduced model is counted from its generators alone, before its
    # differential, with its 1/i! for each i < k, or the full model is built
    ("frame --case 2k --k 1000", 1, "at least 2^1008 monomials"),
    ("frame --case 2k --k 6000", 1, "at least 2^6011 monomials"),
    # 2^1500 exterior subsets are over the budget before the exact count
    ("cohomology --q 1500", 1.5, "at least 2^1500 monomials"),
    # the exterior subsets are counted from q alone, before W_q is built:
    # building it takes time faster than linear in q, since each of the q
    # images of the c_i is a word of O(q) bits
    ("cohomology --q 4000", 0.5, "at least 2^4000 monomials"),
    ("cohomology --q 100000", 1, "at least 2^100000 monomials"),
    ("cohomology --q 100000 --no-framed", 1, "at least 2^50000 monomials"),
    # 2^14999 classes, a count whose decimal form Python refuses to print
    ("catalog --q 60000 --dim 5", 1, "at least 2^14999 classes"),
], ids=["frame-2k-k1000", "frame-2k-k6000", "cohomology-q1500", "cohomology-q4000",
        "cohomology-q100000", "cohomology-q100000-unframed", "catalog-q60000"])
def test_huge_sizes_exit_3_quickly(capsys, argv, limit, message):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv.split())
    assert time.perf_counter() - start < limit
    assert code == 3
    assert out == ""
    assert message in err and "budget" in err


@pytest.mark.parametrize("framed", [True, False], ids=["framed", "unframed"])
def test_cohomology_lower_bound_counts_the_exterior_generators_of_w_q(capsys, framed):
    # the bound is taken from q before W_q is built; it must count the
    # exterior generators weil_complex builds
    for q in range(1, 13):
        gens, _ = weil.weil_complex(q, framed)
        argv = ["cohomology", "--q", str(q), "--max-dim", "0"]
        code, out, err = run(capsys, *argv, *([] if framed else ["--no-framed"]))
        assert code == 3 and out == ""
        assert f"at least {2 ** len(gens.exterior)} monomials" in err, q


def test_catalog_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["catalog", "--q", "5", "--dim", "11"])
    assert exc.value.code == 2


def test_determinism_byte_identical(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run(capsys, "pontrjagin", "--q", "6", "--format", "json")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    for _ in range(2):
        code, out, _ = run(capsys, "vey", "--q", "3")
        outputs.append(out)
    assert outputs[2] == outputs[3]


def test_csv_output_parses(capsys):
    code, out, _ = run(capsys, "vey", "--q", "2", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["class"] for r in rows] == \
        ["y1*c1^2", "y1*c2", "y1*y2*c1^2", "y1*y2*c2", "y2*c2"]


def test_no_floats_in_json(capsys):
    code, out, _ = run(capsys, "pontrjagin", "--q", "8", "--format", "json")

    def walk(node):
        if isinstance(node, float):
            raise AssertionError("float in report")
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        if isinstance(node, list):
            for v in node:
                walk(v)

    walk(json.loads(out))


def test_selftest_csv_lists_every_criterion(capsys):
    code, out, _ = run(capsys, "selftest", "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 10
    assert list(rows[0]) == ["name", "passed", "detail"]
    assert [r["name"].split("-")[0] for r in rows] == [str(i) for i in range(1, 11)]
    assert (code == 0) == all(r["passed"] == "True" for r in rows)


def test_selftest_contract(capsys):
    # exit 0 iff all acceptance criteria pass; failing criteria are named
    code, out, _ = run(capsys, "selftest")
    results = acceptance.run_all()
    all_pass = all(ok for _, ok, _ in results)
    assert (code == 0) == all_pass
    for name, ok, _ in results:
        marker = "PASS" if ok else "FAIL"
        assert f"{marker}  {name}" in out


@pytest.mark.parametrize("argv, digest", [
    ("vey --q 9 --format csv",
     "4e8514a3cf455d10398f979f6719c074f945883e74fdd1121eef552557775fdf"),
    ("cohomology --q 2 --max-degree 100 --format csv",
     "b7f82961d5dfd2f651c71fb54c86dde09f8c1a42e1b65faf51636d82e42f3362"),
    ("cohomology --q 3 --max-degree 30 --representatives --format csv",
     "5e3a9c344c4a45509268ff50447eb4c6f329a30ea26bc54a29305d51ebdc54ce"),
    ("cohomology --q 5 --representatives --format json",
     "910a60f2257e313e7ae5ba38afac94bf8a2ab3809386cc3cc9747b717f03de1a"),
    ("cohomology --q 6 --no-framed --representatives --format json",
     "2667d8ccf4485ad73d0fc1aad1f69f82a5499fe8f31fd3283f775b6e8c09750f"),
    ("cohomology --q 6 --max-degree 20",
     "ec50ca2187fe93672f5b17388b056c483a18dbc940c387637759632a58f76af6"),
    ("cohomology --q 6 --representatives --format json",
     "cd79c8fb612864237b158e2c453c8bd0fcea0a6185827ad294a89f065be438f7"),
    ("cohomology --q 7 --representatives --format csv",
     "68e11da0acdc7fb863f5c4921819ba864eda143c4e28812769e3655fcee9f3ed"),
    ("cohomology --q 7 --no-framed --format csv",
     "1e80981d2455735fdc593f9b9e646acb2b59eef1746319dbe6f786e377096932"),
    ("cohomology --q 8 --no-framed --representatives --format json",
     "c3c1a94b252cd12f25e8613ae0e87a9c5700ebb4970c78403d8534aeb9b3c0b2"),
    ("cohomology --q 8 --representatives --format json",
     "b9ba325b9e5641774ca126692ea2f6ed4f44c325521a8756cf78ca6170177cd9"),
    ("cohomology --q 9 --format json",
     "8da722c93932f13afeb3269571c5b57bac41f4e7389327fcf9b00f8eb12ef3f9"),
    ("cohomology --q 9 --no-framed --format json",
     "f367a1f15b96d517d8a05aab4688c99a862a24809d687033d234b10ca24e8ad3"),
    ("pontrjagin --q 14 --format json",
     "417a1ac9957c01ff0a71ef08419a458d04c3b35e04dfe3aa76dec0d3e3ba66a2"),
    ("frame --case 2k --k 5 --format json",
     "9c5d8772402ff057fb525ae06a7962387c40415f99d08894e1b60090a79abb4c"),
    ("frame --case 2k --k 6 --format json",
     "644a8518127000df049aa2a8f7f54fc67674c72b21abdf733982c6a8500e2ad9"),
    ("frame --case 4k2 --k 3 --format json",
     "5530aac3710ceaa4cefb6423546bf1d116e6f7aea6f64ef6c23d49804c52c1a5"),
    ("frame --case 4k2 --k 5 --format json",
     "ec1a565517610d11df1ab03fb680e3751e517f11204466fec27fe9fbb32fc45d"),
    # recorded on the full-model route, which took 4 to 44 s on each
    ("frame --case 2k --k 8",
     "d6942379a418c738c423a9bc93aaa660b14b8a703403c38c936758621120aa24"),
    ("frame --case 2k --k 8 --format json",
     "cbb1516ab822281e77d7fdf49b299d659e032114050c9bfbde8421b597ccf915"),
    ("frame --case 2k --k 9 --max-dim 100000000 --format json",
     "12f10ac5a6680dbed5f471ff0ad8fe3e75cdfec7ff18fb6b3c62d12672db844a"),
    # the smallest projective S in which some columns of d_{n-1} lie outside
    # the block the classes touch
    ("frame --case 2k --k 11 --format json",
     "345aea88a5bf27a0d9178e4aff054ecd38e23dfca4a792ccf287882165cc8432"),
    ("frame --case 4k2 --k 8 --max-dim 100000000 --format json",
     "74d9fd8a837d14968652e212680b38ed4527a0503f47712b0b00cb03785f28ba"),
    ("frame --case 4k2 --k 9 --max-dim 100000000 --format json",
     "97af8677b45a25d90b6fd1ee222fa95e60848e2a8bf19b7a1a68016c99aab3c4"),
    # recorded before basis_of_degree read the shared exterior-subset
    # table; its per-degree walk over all 2^11 subsets dominated this job
    ("frame --case 4k2 --k 12 --format json",
     "77c54361fe059ec326ab2aa75b2f00aee8ae47571f68f4a8c6c4b74efeda8701"),
    ("catalog --q 14 --dim 51 --format json",
     "11d4da103954f75db5a92964c3b10a18ef7a4d25cf54f2a99de66db2573a9154"),
    # table and CSV bytes: the expected-zero row of this frame report has
    # no degree, an empty cell in both
    ("frame --case 4k2 --k 3",
     "7300039f344d9ccdc743a97e5bd8dbd68831e967345bbe4a678f26e50fc907e6"),
    ("frame --case 4k2 --k 3 --format csv",
     "a714dd9eab978ddb9e8ab747e531677221cec89c7e563fc4d19d2e3eda4a0fb9"),
    ("pontrjagin --q 6",
     "d05787759441e3b594d05e8de2387ce48ac3f52dfb5d93be20785c4901e63569"),
    ("pontrjagin --q 10 --format csv",
     "d7a8a9d503967bd6581e0667c3db458d0de814fa1a02f91fe7bead53f55ae3e3"),
    ("vey --q 4 --rigid-only",
     "74e8fee7ba15c68b789d8e7b20edebe7ae9896ee96460b2076050c513531f70b"),
    # rigid-only reports, recorded when they filtered the whole basis
    ("vey --q 10 --rigid-only --format csv",
     "5d409299119eb2974bc0a1b128302c338d0932beeb5440c533a8231cfc48aee5"),
    ("vey --q 10 --rigid-only --format json",
     "03fb0dd0ea0e79e417293ae5f76c77fb1e4f045a1b6540f58b5822c582317d3a"),
    ("vey --q 8 --rigid-only --min-degree 40 --max-degree 60",
     "ceef6eb8927460591017440c3a2b49cef5554ec0d843d31da03a8535f3cf506b"),
    ("catalog --q 14 --dim 51",
     "030b0c91fbf6a8181144fb48888d91c629960e2e432711baf99268d3a1448a00"),
    ("cohomology --q 3 --representatives",
     "10cf27cf349aed5ec05b38cea129f3e93a3c6996312bc5136f6964e5b814e6bd"),
    # the empty degrees above the top, which the CLI writes itself, in JSON
    # and table form with representatives and in JSON without them
    ("cohomology --q 3 --max-degree 40 --representatives --format json",
     "1f41cdb23f09512dacbd732107b4c1921c7bd3bd57a23f398eeb4c268170ade2"),
    ("cohomology --q 3 --max-degree 40 --representatives",
     "84f67edcbe3d51ca51b5a751c9aa93509ecd6cd2f0575b55779ea830b73c6cda"),
    ("cohomology --q 2 --no-framed --max-degree 40 --format json",
     "a8381ba3b71e438770462c1ee45486236e1524bf823cf449c0ec6f00e0fd1b4d"),
    # pin the counted pairings and the representatives at sizes beyond the
    # smallest reports
    ("pontrjagin --q 18 --format json",
     "5f78008fc7dd795ee0ba2da72559b745f4ed22faef52885fd832415261d948c2"),
    # the rank route through the layout at a size where it does real work
    ("cohomology --q 10 --format json",
     "4054a60772d94ba7e81b69dc40e556584065de050245eb564d64a83064193318"),
    ("cohomology --q 10 --no-framed --format json",
     "7bbc7935f954eab072f8fb4260add722a8476596d8c22a431a1d670d194e392e"),
    # the trusted integer rank route, and the representatives above q = 8
    ("cohomology --q 11 --format json",
     "73e77ddbcfd419fb27d48f24e0cfafb351cdf55c88877a2ff5c0736b34f7f140"),
    ("cohomology --q 9 --representatives --format json",
     "d46e2caf2983a6b1543d9ea0adff82ba1f0f34b44a36bf059597a161d787e6b7"),
    ("cohomology --q 10 --representatives --format json",
     "091fcb9f5456f785aaa5442c9575a0566d68db058861d661bf9293f998bdf085"),
    # pairings beyond the range of the ring oracle (q <= 22), recorded on the
    # ring route, and a frame certificate at a size where the Element
    # arithmetic dominates
    ("pontrjagin --q 24 --format json",
     "7fa7dbf5949c604e289b017ce28c068920bbfa3a34538c7a185bb9d905380823"),
    ("pontrjagin --q 26 --format json",
     "f8e37186750935d3b690fe04be9e5c97865ea0a072727d89bd61d7ae6ad97d8d"),
    ("frame --case 2k --k 12 --format json",
     "a2fdcc0b8f1512ae30c26ed8c598e7a6957b629001f838395bf30ef757c42d12"),
])
def test_golden_output_sha256(capsys, argv, digest):
    # pins the enumeration order of every family behind these reports
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
