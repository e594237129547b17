"""A property test of the CLI contract the README states.

Argv is drawn from ``build_parser()``'s own subcommands and options, with
small, huge, negative, odd and non-integer values, and runs in process
through ``cli.main``.  For every argv:

* the exit code is 0, 2 (a usage error, raised by argparse as
  ``SystemExit``) or 3 (over a budget): never 4, and never a traceback;
* on exit 0 a second run prints the same bytes, and JSON output is valid
  against ``schemas/report.v1.json``;
* on any other exit stdout is empty, and no heavy entry point ran: the
  budget is checked before the work it bounds, by structure, not by a
  clock.
"""

import argparse
import contextlib
import io
import json
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from secclasses import cli, frames, models

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "schemas" / "report.v1.json")
    .read_text())

PARSER = cli.build_parser()
SUBCOMMANDS = next(a for a in PARSER._actions
                   if isinstance(a, argparse._SubParsersAction)).choices

# the entry points that do a command's work; each is recorded under the
# name through which ``cli`` reaches it
HEAVY = ((cli, "cohomology"), (cli, "vey_basis"),
         (frames, "certify_projective_family"), (frames, "certify_sphere_family"),
         (models, "independence_certificate"))

SMALL = [str(n) for n in range(7)]
HUGE = ["1000", "1000000"]
BAD = ["-1", "-4", "2.5", "1e3", "0x10", "x", ""]
SMALL_MAX_DIM = ["0", "1", "7", "50", "64"]

# ``vey`` and ``pontrjagin`` have no budget, so their q is drawn up to this
# bound, at which each runs in about 0.1 s
VEY_PONTRJAGIN_MAX_Q = 8
# ``frame`` counts its budget from the reduced model's generators, which it
# builds first: k generators, so a k of 10^6 takes seconds and hundreds of
# MB before exit 3.  Its huge k is drawn up to this bound
FRAME_MAX_HUGE_K = 1000
# ``selftest`` runs the fixed acceptance suite (about 0.6 s) and takes only
# --format; test_cli.py::test_selftest_contract checks its exit code
DRAWN = sorted(set(SUBCOMMANDS) - {"selftest"})


def _values(command: str, dest: str) -> list[str]:
    """The well-formed values drawn for an option."""
    if dest == "max_dim":
        return SMALL_MAX_DIM
    if command in ("vey", "pontrjagin") and dest == "q":
        return [str(n) for n in range(VEY_PONTRJAGIN_MAX_Q + 1)]
    if command == "frame" and dest == "k":
        return SMALL + [str(FRAME_MAX_HUGE_K)]
    return SMALL + HUGE


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(DRAWN))
    argv = [command]
    for action in SUBCOMMANDS[command]._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        # a required option is left out now and then, for argparse to reject
        if not draw(st.integers(0, 19) if action.required else st.booleans()):
            continue
        option = draw(st.sampled_from(action.option_strings))
        if action.nargs == 0:
            argv.append(option)
            continue
        good = action.choices or _values(command, action.dest)
        # one value in six is malformed: not an int, not a choice, or too low
        bad = draw(st.integers(0, 5)) == 0
        argv += [option, draw(st.sampled_from(BAD + ["bogus"] if bad else list(good)))]
    return argv


def _run(argv):
    """``(exit code, stdout, names of the heavy entry points called)``."""
    calls = []

    def recorded(name, real):
        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return call

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        for module, name in HEAVY:
            patch.setattr(module, name, recorded(name, getattr(module, name)))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    return code, out.getvalue(), calls


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(argvs())
def test_every_argv_exits_0_2_or_3_and_stops_at_its_budget(argv):
    code, out, calls = _run(argv)
    assert code in (0, 2, 3)
    if code == 0:
        assert _run(argv)[1] == out
        if "--format" in argv and argv[argv.index("--format") + 1] == "json":
            jsonschema.validate(json.loads(out), SCHEMA)
    else:
        assert out == ""
        assert calls == []


@pytest.mark.parametrize("argv, name", [
    ("cohomology --q 1", "cohomology"),
    ("vey --q 1", "vey_basis"),
    ("frame --case 2k --k 2", "certify_projective_family"),
    ("frame --case 4k2 --k 2", "certify_sphere_family"),
    ("pontrjagin --q 2", "independence_certificate"),
])
def test_the_recorder_sees_each_heavy_entry_point(argv, name):
    # so an empty record on exit 3 means the command stopped before its work
    code, out, calls = _run(argv.split())
    assert code == 0 and out and calls == [name]
