"""Property-based fuzzing of the CLI's exit-code contract.

Each example runs one request in-process through cli.main: a generated argv,
the JACKPOLY_CACHE_DIR variable set or not, and a cache directory that is
missing, a regular file, or holds a cache document mutated from one that
jackpoly wrote (including the four hand edits of a lying cache: a wrong lead
coefficient, a missing term, no terms and a negative exponent).  Whatever
the input:

- the exit code is 0, 1, 2 or 3;
- stderr never holds a traceback;
- exit 1 comes only with a FAIL line on stdout.

Each mutated document also meets every request that reads it.  No request
passes --force, and every generated size is small, so no example runs long.
The default run is derandomized; ``pytest -m slow`` runs many more random
examples.
"""

import contextlib
import io
import json
import os
import tempfile
import traceback
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from jackpoly import cli

# the document that `compute F --lambda 2,0 --n 2` writes: entries (1,0) and (2,0)
with tempfile.TemporaryDirectory() as _d, contextlib.redirect_stdout(io.StringIO()):
    cli.main(["compute", "F", "--lambda", "2,0", "--n", "2", "--cache-dir", _d])
    BASE_DOC = json.loads((Path(_d) / "recursion-cache-n2.json").read_text())


def _entry(doc, lam):
    return next(e for e in doc["entries"] if e["lambda"] == lam)


def _lead_seven(doc):
    next(t for t in _entry(doc, [1, 0])["poly"] if t["exp"] == [1, 0])["coef"] = ["7"]


def _drop_x2(doc):
    entry = _entry(doc, [1, 0])
    entry["poly"] = [t for t in entry["poly"] if t["exp"] != [0, 1]]


def _no_terms(doc):
    _entry(doc, [1, 0])["poly"] = []


def _negative_exponent(doc):
    _entry(doc, [1, 0])["poly"][0]["exp"] = [5, -1]


HAND_EDITS = [_lead_seven, _drop_x2, _no_terms, _negative_exponent]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.floats(allow_nan=False)
    | st.sampled_from(["", "7", "-1", "x", "1.5"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["lambda", "poly", "exp", "coef", "n", "version", "entries"]),
        inner, max_size=3),
    max_leaves=6)


def _slots(node, path=()):
    """Every (container path, key or index) of a JSON document."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path, key
        yield from _slots(child, path + (key,))


@st.composite
def cache_texts(draw):
    """The text of a cache file: the base document under a hand edit, a
    replaced or deleted node, or a damaged serialisation."""
    doc = json.loads(json.dumps(BASE_DOC))
    kind = draw(st.sampled_from(["clean", "hand", "replace", "delete", "truncate", "bytes"]))
    if kind == "hand":
        draw(st.sampled_from(HAND_EDITS))(doc)
    elif kind in ("replace", "delete"):
        path, key = draw(st.sampled_from(list(_slots(doc))))
        parent = doc
        for step in path:
            parent = parent[step]
        if kind == "replace":
            parent[key] = draw(json_values)
        else:
            del parent[key]
    text = json.dumps(doc).encode()
    if kind == "truncate":
        text = text[:draw(st.integers(0, len(text) - 1))]
    elif kind == "bytes":
        text = draw(st.binary(max_size=40))
    return text


numbers = st.integers(-1, 4).map(str) | st.sampled_from(["", "x", "1.5", " 2"])
lambdas = st.lists(st.integers(0, 2), min_size=1, max_size=4).map(
    lambda parts: ",".join(map(str, parts))) | st.sampled_from(["", "1,,0", "-1", "a", "1.0"])


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["compute", "verify", "cache", "bogus"]))
    argv = [command]
    if command == "compute":
        argv += [draw(st.sampled_from(["F", "E", "J", "P", "Q"])), "--lambda", draw(lambdas),
                 "--n", draw(numbers)]
        if draw(st.booleans()):
            argv += ["--basis", draw(st.sampled_from(["monomial-of-x", "m", "m-tilde", "z"]))]
        argv += ["--format", draw(st.sampled_from(["text", "json", "latex"]))]
    elif command == "verify":
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


@st.composite
def requests(draw):
    return {
        "argv": draw(argvs()),
        "dir_flag": draw(st.booleans()),
        "dir_env": draw(st.booleans()),
        "dir_state": draw(st.sampled_from(["missing", "file", "cache", "misnamed"])),
        "cache_text": draw(cache_texts()),
    }


def _run(request, root: Path) -> tuple[int, str, str]:
    cache_dir = root / "cache"
    state = request["dir_state"]
    if state == "file":
        cache_dir.write_text("x")
    elif state != "missing":
        cache_dir.mkdir()
        name = "recursion-cache-n3.json" if state == "misnamed" else "recursion-cache-n2.json"
        (cache_dir / name).write_bytes(request["cache_text"])
    (root / "doc").write_bytes(request["cache_text"])
    argv = [str(root / a) if a in ("doc", "missing", "nodir/out") else a
            for a in request["argv"]]
    if request["dir_flag"]:
        argv += ["--cache-dir", str(cache_dir)]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        os.environ.pop(cli.ENV_CACHE_DIR, None)
        if request["dir_env"]:
            os.environ[cli.ENV_CACHE_DIR] = str(cache_dir)
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            # what the interpreter would print, and its exit status
            err.write(traceback.format_exc())
            code = 1
    return code, out.getvalue(), err.getvalue()


def _check_contract(request):
    with tempfile.TemporaryDirectory() as tmp:
        code, out, err = _run(request, Path(tmp))
    assert code in (0, 1, 2, 3), (request["argv"], code, err)
    assert "Traceback" not in err, (request["argv"], err)
    if code == 1:
        assert any(line.startswith("FAIL") for line in out.splitlines()), out


# every request that reads the cache file of n = 2, by compute or by cache
CACHE_PROBES = [["compute", kind, "--lambda", lam, "--n", "2"]
                for kind in ("F", "E") for lam in ("1,0", "2,0", "0,2")] + [
    ["cache", "stats"], ["cache", "export", "--path", "nodir/out"],
    ["cache", "import", "--path", "doc"]]


def _check_cache_document(text: bytes, dir_env: bool):
    for argv in CACHE_PROBES:
        _check_contract({"argv": argv, "dir_flag": not dir_env, "dir_env": dir_env,
                         "dir_state": "cache", "cache_text": text})


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(requests())
def test_exit_codes_keep_the_contract(request):
    _check_contract(request)


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cache_texts(), st.booleans())
def test_cache_documents_keep_the_contract(text, dir_env):
    _check_cache_document(text, dir_env)


def test_hand_edits_keep_the_contract():
    for edit in HAND_EDITS:
        doc = json.loads(json.dumps(BASE_DOC))
        edit(doc)
        _check_cache_document(json.dumps(doc).encode(), False)


@pytest.mark.slow
@settings(max_examples=3000, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(requests())
def test_exit_codes_keep_the_contract_random(request):
    _check_contract(request)


@pytest.mark.slow
@settings(max_examples=1000, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cache_texts(), st.booleans())
def test_cache_documents_keep_the_contract_random(text, dir_env):
    _check_cache_document(text, dir_env)
