"""Property-based fuzzing of the CLI's exit-code contract.

Each example runs one request in-process through cli.main: a generated argv,
with or without --cache-dir, whose directory is missing, a regular file or a
directory holding a stale file.  The retired ``cache`` subcommand is among
the generated usage errors.  Whatever the input:

- the exit code is 0, 1 or 2;
- stderr never holds a traceback;
- exit 1 comes only with a FAIL line on stdout.

A second property: ``compute ... --cache-dir D`` exits with the code and
prints the stdout of the same request without the flag, whatever D is, and
leaves D as it was.  No request passes --force, and every generated size is
small, so no example runs long.  The default run is derandomized;
``pytest -m slow`` runs many more random examples.
"""

import contextlib
import io
import tempfile
import traceback
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from jackpoly import cli

numbers = st.integers(-1, 4).map(str) | st.sampled_from(["", "x", "1.5", " 2"])
parts = st.lists(st.integers(0, 2), min_size=1, max_size=4).map(
    lambda parts: ",".join(map(str, parts)))
lambdas = parts | st.sampled_from(["", "1,,0", "-1", "a", "1.0"])


@st.composite
def compute_argvs(draw, wellformed=False):
    """A compute argv; a wellformed one has a valid kind, --lambda and --n,
    and fails at most on how they combine."""
    if wellformed:
        argv = ["compute", draw(st.sampled_from(["F", "E", "J", "P"])), "--lambda",
                draw(parts), "--n", str(draw(st.integers(1, 4)))]
    else:
        argv = ["compute", draw(st.sampled_from(["F", "E", "J", "P", "Q"])), "--lambda",
                draw(lambdas), "--n", draw(numbers)]
    if draw(st.booleans()):
        argv += ["--basis", draw(st.sampled_from(["monomial-of-x", "m", "m-tilde", "z"]))]
    return argv + ["--format", draw(st.sampled_from(["text", "json", "latex"]))]


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["compute", "verify", "cache", "bogus"]))
    if command == "compute":
        return draw(compute_argvs())
    argv = [command]
    if command == "verify":
        argv += [draw(st.sampled_from(cli.CHECK_NAMES + ["bogus"])),
                 "--n-max", draw(st.integers(-1, 3).map(str)),
                 "--deg-max", draw(st.integers(-1, 3).map(str)),
                 "--format", draw(st.sampled_from(["text", "json", "latex"]))]
        if draw(st.booleans()):
            argv += ["--k-list", draw(st.sampled_from(["1", "2,1", "0", "x", ""]))]
    elif command == "cache":
        argv += [draw(st.sampled_from(["stats", "clear", "export", "import", "bogus"]))]
        if draw(st.booleans()):
            argv += ["--path", draw(st.sampled_from(["doc", "missing", "nodir/out"]))]
        if draw(st.booleans()):
            argv += ["--n", draw(numbers)]
    return argv


dir_states = st.sampled_from(["missing", "file", "directory"])


def _make_dir(root: Path, state: str) -> Path:
    cache_dir = root / "cache"
    if state == "file":
        cache_dir.write_text("x")
    elif state == "directory":
        cache_dir.mkdir()
        (cache_dir / "recursion-cache-n2.json").write_text("{not json")
    return cache_dir


def _snapshot(path: Path):
    if not path.exists():
        return None
    if path.is_dir():
        return {child.name: _snapshot(child) for child in path.iterdir()}
    return path.read_bytes(), path.stat().st_mtime_ns


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            # what the interpreter would print, and its exit status
            err.write(traceback.format_exc())
            code = 1
    return code, out.getvalue(), err.getvalue()


def _check_contract(argv, dir_flag, state):
    with tempfile.TemporaryDirectory() as tmp:
        if dir_flag:
            argv = argv + ["--cache-dir", str(_make_dir(Path(tmp), state))]
        code, out, err = _run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code == 1:
        assert any(line.startswith("FAIL") for line in out.splitlines()), out


def _check_cache_dir_is_inert(argv, state):
    with tempfile.TemporaryDirectory() as tmp:
        cache_dir = _make_dir(Path(tmp), state)
        before = _snapshot(cache_dir)
        plain = _run(argv)
        flagged = _run(argv + ["--cache-dir", str(cache_dir)])
        assert flagged[:2] == plain[:2], argv
        assert _snapshot(cache_dir) == before, argv


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argvs(), st.booleans(), dir_states)
def test_exit_codes_keep_the_contract(argv, dir_flag, state):
    _check_contract(argv, dir_flag, state)


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(compute_argvs(wellformed=True) | compute_argvs(), dir_states)
def test_cache_dir_leaves_compute_unchanged(argv, state):
    _check_cache_dir_is_inert(argv, state)


@pytest.mark.slow
@settings(max_examples=3000, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argvs(), st.booleans(), dir_states)
def test_exit_codes_keep_the_contract_random(argv, dir_flag, state):
    _check_contract(argv, dir_flag, state)


@pytest.mark.slow
@settings(max_examples=1000, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(compute_argvs(wellformed=True) | compute_argvs(), dir_states)
def test_cache_dir_leaves_compute_unchanged_random(argv, state):
    _check_cache_dir_is_inert(argv, state)
