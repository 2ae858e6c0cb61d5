"""Replay the benchmark's recorded references in-process.

perfbench/pool.json holds the stdout digest, exit code and verify cases of
every request the benchmark can send.  These tests run the requests through
cli.main and compare, so an output change shows here before a benchmark run.
pool.json is only read.  The default run replays the cache-dir workload,
each request with an empty --cache-dir that must stay empty; ``pytest -m
slow`` replays every reference.
"""

import contextlib
import hashlib
import importlib.util
import io
from pathlib import Path

import pytest

from jackpoly import cli

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("workloads",
                                               ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

POOL = workloads.load_pool()
REFS = POOL["refs"]


def _mismatch(argv, ref):
    """Why a request's output differs from its reference, or None."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    out = buf.getvalue().encode()
    if code != ref["exit"]:
        return f"exit code {code}, reference {ref['exit']}"
    if hashlib.sha256(out).hexdigest() != ref["sha256"]:
        return "stdout differs from the reference"
    if argv[0] == "verify":
        verdicts = workloads.verify_verdicts(out)
        if not all(passed for passed, _ in verdicts) \
                or [cases for _, cases in verdicts] != ref["cases"]:
            return f"verify verdicts {verdicts}, reference cases {ref['cases']}"
    return None


def test_cache_dir_requests_match_their_references(tmp_path, capsys):
    slots = {"workloads": {"cache-dir": POOL["workloads"]["cache-dir"]}}
    requests = workloads.all_requests(slots)
    assert len(requests) == 8
    mismatches = {}
    for argv in requests:
        why = _mismatch(argv + ["--cache-dir", str(tmp_path)], REFS[workloads.ref_key(argv)])
        if why:
            mismatches[" ".join(argv)] = why
    capsys.readouterr()
    assert mismatches == {}
    assert list(tmp_path.iterdir()) == []


@pytest.mark.slow
def test_every_pool_reference_matches(capsys):
    # every request any seed can generate has a reference
    assert {workloads.ref_key(argv) for argv in workloads.all_requests(POOL)} <= set(REFS)
    mismatches = {}
    for key, ref in REFS.items():
        why = _mismatch(key.split(), ref)
        if why:
            mismatches[key] = why
        capsys.readouterr()
    assert len(REFS) == 672
    assert mismatches == {}
