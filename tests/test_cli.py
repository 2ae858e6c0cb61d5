import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from jackpoly import cli, verify
from jackpoly.verify import Verdict


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_f_text(capsys):
    code, out, _ = run(capsys, "compute", "F", "--lambda", "1,0", "--n", "2",
                       "--format", "text")
    assert code == 0
    assert out == "(a+1)*x1 + x2\n"


def test_compute_j_basis_m(capsys):
    code, out, _ = run(capsys, "compute", "J", "--lambda", "2,1", "--n", "3",
                       "--basis", "m", "--format", "text")
    assert code == 0
    assert out == "(a+2) m[2,1] + 6 m[1,1,1]\n"


def test_compute_p_default(capsys):
    code, out, _ = run(capsys, "compute", "P", "--lambda", "1,1", "--n", "2",
                       "--format", "text")
    assert code == 0
    assert out == "m[1,1]\n"


def test_compute_e_text(capsys):
    code, out, _ = run(capsys, "compute", "E", "--lambda", "1,0", "--n", "2")
    assert code == 0
    assert out == "x1 + (1/(a+1))*x2\n"


def test_compute_pads_lambda(capsys):
    code, out, _ = run(capsys, "compute", "F", "--lambda", "1", "--n", "2")
    assert code == 0
    assert out == "(a+1)*x1 + x2\n"


def test_compute_json_schema(capsys):
    code, out, _ = run(capsys, "compute", "F", "--lambda", "1,0", "--n", "2",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "polynomial"
    assert doc["terms"] == [
        {"exp": [1, 0], "coef": ["1", "1"]},
        {"exp": [0, 1], "coef": ["1"]},
    ]


def test_compute_expansion_json(capsys):
    code, out, _ = run(capsys, "compute", "J", "--lambda", "2,1", "--n", "3",
                       "--basis", "m-tilde", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["basis"] == "m-tilde"
    assert doc["lambda"] == [2, 1]
    assert {"mu": [1, 1, 1], "coef": ["1"]} in doc["entries"]


def test_compute_json_streamed_in_batches_matches_dumps(capsys):
    # 246 terms: the encoder yields several batches of chunks
    code, out, _ = run(capsys, "compute", "J", "--lambda", "4,1", "--n", "6",
                       "--basis", "monomial-of-x", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["terms"]) == 246
    assert out == json.dumps(doc, sort_keys=True, indent=1) + "\n"


def test_compute_e_json_fraction_coefs(capsys):
    code, out, _ = run(capsys, "compute", "E", "--lambda", "1,0", "--n", "2",
                       "--format", "json")
    doc = json.loads(out)
    assert {"exp": [0, 1], "coef": {"num": ["1"], "den": ["1", "1"]}} in doc["terms"]


def test_determinism(capsys):
    _, out1, _ = run(capsys, "compute", "J", "--lambda", "2,2", "--n", "4",
                     "--format", "json")
    _, out2, _ = run(capsys, "compute", "J", "--lambda", "2,2", "--n", "4",
                     "--format", "json")
    assert out1 == out2


def test_malformed_lambda_exits_2(capsys):
    code, _, err = run(capsys, "compute", "F", "--lambda", "1,x", "--n", "2")
    assert code == 2
    assert "--lambda" in err


def test_negative_lambda_exits_2(capsys):
    code, _, err = run(capsys, "compute", "F", "--lambda", "1,-1", "--n", "2")
    assert code == 2
    assert "--lambda" in err


def test_j_requires_partition(capsys):
    code, _, err = run(capsys, "compute", "J", "--lambda", "1,2", "--n", "3")
    assert code == 2
    assert "partition" in err


def test_basis_requires_symmetric_kind(capsys):
    code, _, err = run(capsys, "compute", "F", "--lambda", "1,0", "--n", "2",
                       "--basis", "m")
    assert code == 2
    assert "basis" in err


def test_lambda_longer_than_n(capsys):
    code, _, err = run(capsys, "compute", "F", "--lambda", "1,0,0", "--n", "2")
    assert code == 2


def test_guardrail_requires_force(capsys):
    code, _, err = run(capsys, "compute", "F", "--lambda", "9", "--n", "9")
    assert code == 2
    assert "--force" in err
    # --force lifts it (kept tiny by using a degree-0 shape)
    code, out, _ = run(capsys, "compute", "F", "--lambda", "0", "--n", "9", "--force")
    assert code == 0


def test_unknown_check_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "no-such-check"])
    assert info.value.code == 2
    capsys.readouterr()


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "cyclic", "--n-max", "2", "--deg-max", "2")
    assert code == 0
    assert out.startswith("PASS cyclic [cyclic-creation-identity] cases=")


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "hecke", "--n-max", "2", "--deg-max", "2",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "verdict-list"
    verdict = doc["verdicts"][0]
    assert verdict["pass"] is True
    assert verdict["check"] == "hecke"
    assert verdict["theorem"]
    assert verdict["counterexample"] is None


def test_verify_failure_exits_1(capsys, monkeypatch):
    failing = Verdict("cyclic", "cyclic-creation-identity", {}, False, 3,
                      {"lambda": [1, 1]})
    monkeypatch.setattr("jackpoly.verify.cyclic_consistency",
                        lambda *a, **k: failing)
    code, out, _ = run(capsys, "verify", "cyclic")
    assert code == 1
    assert "FAIL" in out and "counterexample" in out


def test_threads_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "cyclic", "--threads", "2"])
    assert info.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv,message", [
    (["verify", "cyclic", "--n-max", "2", "--deg-max", "2", "--cache-dir", "unused"],
     "unrecognized arguments: --cache-dir"),
    # the cache subcommand is retired, so argparse stops at its name
    (["cache", "stats", "--cache-dir", "unused", "--force"], "invalid choice: 'cache'"),
], ids=["verify-cache-dir", "cache-force"])
def test_flags_exist_only_where_they_act(capsys, argv, message):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("check,n_max,line", [
    ("positivity", "5", "positivity: partially-symmetric-positivity verdict clamped to n_max=4\n"),
    ("sym-routes", "7", "sym-routes: symmetrization-routes verdict clamped to n_max=6\n"),
], ids=["positivity", "sym-routes"])
def test_verify_reports_clamp_on_stderr(capsys, check, n_max, line):
    code, _, err = run(capsys, "verify", check, "--n-max", n_max, "--deg-max", "2")
    assert code == 0
    assert err == line


@pytest.mark.parametrize("check,n_max", [("positivity", "4"), ("sym-routes", "6")])
def test_verify_reports_no_clamp_at_or_below_it(capsys, check, n_max):
    code, _, err = run(capsys, "verify", check, "--n-max", n_max, "--deg-max", "2")
    assert code == 0
    assert err == ""


def test_verify_guardrail(capsys):
    code, _, err = run(capsys, "verify", "cyclic", "--n-max", "9")
    assert code == 2
    assert "--force" in err


@pytest.mark.parametrize("bounds", [["--n-max", "-3"], ["--n-max", "0"],
                                    ["--n-max", "2", "--deg-max", "-1"]])
def test_verify_refuses_vacuous_bounds(capsys, bounds):
    code, out, err = run(capsys, "verify", "eigen", *bounds)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "must be" in err


@pytest.mark.parametrize("argv", [["hecke", "--n-max", "1", "--deg-max", "2"],
                                  ["swap", "--n-max", "1", "--deg-max", "2"],
                                  ["stability", "--n-max", "1", "--deg-max", "2"],
                                  ["coeff-identities", "--deg-max", "0"]],
                         ids=["hecke", "swap", "stability", "coeff-identities"])
def test_verify_refuses_zero_cases(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "no cases" in err


def _snapshot(path: Path):
    """What a path holds: None if missing, a file's bytes and mtime, or the
    snapshots of a directory's entries."""
    if not path.exists():
        return None
    if path.is_dir():
        return {child.name: _snapshot(child) for child in path.iterdir()}
    return path.read_bytes(), path.stat().st_mtime_ns


@pytest.mark.parametrize("state", ["missing", "file", "directory"])
def test_compute_ignores_cache_dir(tmp_path, capsys, state):
    cache_dir = tmp_path / "cache"
    if state == "file":
        cache_dir.write_text("x")
    elif state == "directory":
        cache_dir.mkdir()
        # a file an earlier version wrote is neither read nor rewritten
        (cache_dir / "recursion-cache-n3.json").write_text("{not json")
    before = _snapshot(cache_dir)
    for argv in (["F", "--lambda", "2,0,1", "--n", "3"], ["E", "--lambda", "1,0,0", "--n", "3"],
                 ["J", "--lambda", "2,1", "--n", "3"],
                 ["P", "--lambda", "2,1", "--n", "3", "--basis", "monomial-of-x"]):
        plain = run(capsys, "compute", *argv)
        code, out, err = run(capsys, "compute", *argv, "--cache-dir", str(cache_dir))
        assert (code, out) == plain[:2] and code == 0
        assert err.count("\n") == 1 and "--cache-dir is ignored" in err
        assert _snapshot(cache_dir) == before
    with pytest.raises(SystemExit):
        cli.main(["compute", "--help"])
    help_text = capsys.readouterr().out
    assert "--lambda" in help_text and "--cache-dir" not in help_text


@pytest.mark.parametrize("action", ["stats", "clear", "export", "import"])
def test_cache_subcommand_is_a_usage_error(tmp_path, capsys, action):
    with pytest.raises(SystemExit) as info:
        cli.main(["cache", action, "--cache-dir", str(tmp_path)])
    assert info.value.code == 2
    assert "invalid choice: 'cache'" in capsys.readouterr().err


def test_cache_dir_environment_is_not_read(tmp_path, capsys, monkeypatch):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    monkeypatch.setenv("JACKPOLY_CACHE_DIR", str(not_a_dir))
    assert run(capsys, "compute", "F", "--lambda", "1,0", "--n", "2") == \
        (0, "(a+1)*x1 + x2\n", "")
    code, out, _ = run(capsys, "verify", "cyclic", "--n-max", "2", "--deg-max", "2")
    assert code == 0 and out.startswith("PASS cyclic")
    assert not_a_dir.read_text() == ""


# the file that compute F --lambda 1,0 --n 2 --cache-dir wrote before the disk
# cache was retired; a directory may still hold such files, edited or not
OLD_CACHE_FILE = {"entries": [{"lambda": [1, 0], "poly": [
    {"coef": ["1", "1"], "exp": [1, 0]}, {"coef": ["1"], "exp": [0, 1]}]}],
    "n": 2, "version": 1}


def _old_cache_dir(tmp_path, edit=None):
    """A directory holding OLD_CACHE_FILE as recursion-cache-n2.json, its
    (1,0) entry changed by edit."""
    doc = json.loads(json.dumps(OLD_CACHE_FILE))
    if edit is not None:
        edit(doc["entries"][0])
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    (cache_dir / "recursion-cache-n2.json").write_text(json.dumps(doc))
    return cache_dir


def _assert_answer_ignores(capsys, cache_dir, *argv):
    """compute with --cache-dir gives the exit code and stdout of the same
    request without it, and leaves the directory as it was."""
    before = _snapshot(cache_dir)
    plain = run(capsys, "compute", *argv)
    code, out, err = run(capsys, "compute", *argv, "--cache-dir", str(cache_dir))
    assert (code, out) == plain[:2] and code == 0 and out
    assert err.count("\n") == 1 and "--cache-dir is ignored" in err
    assert _snapshot(cache_dir) == before


def _edit_first_term(field, value):
    def edit(entry):
        if field == "lambda":
            entry["lambda"] = value
        else:
            entry["poly"][0][field] = value
    return edit


@pytest.mark.parametrize("edit", [
    _edit_first_term("lambda", [1.5, 0]),
    _edit_first_term("lambda", [True, 0]),
    _edit_first_term("exp", [1.0, 0]),
    _edit_first_term("coef", ["-7"]),
    _edit_first_term("coef", [-7]),
    _edit_first_term("coef", [7.0]),
    _edit_first_term("coef", "17"),
], ids=["float-lambda", "bool-lambda", "float-exp", "negative-coef-string",
        "negative-coef-int", "float-coef", "coef-not-a-list"])
def test_compute_rejects_untrustworthy_cache_entry(tmp_path, capsys, edit):
    # no cache file is read: an edited entry never reaches the answer
    cache_dir = _old_cache_dir(tmp_path, edit)
    _assert_answer_ignores(capsys, cache_dir, "F", "--lambda", "1,0", "--n", "2")
    assert run(capsys, "compute", "F", "--lambda", "1,0", "--n", "2")[1] == \
        "(a+1)*x1 + x2\n"


def _set_x1_coefficient(entry):
    next(t for t in entry["poly"] if t["exp"] == [1, 0])["coef"] = ["7"]


def _empty_poly(entry):
    entry["poly"] = []


def _negative_exponent(entry):
    entry["poly"][0]["exp"] = [5, -1]


def _wrong_degree(entry):
    entry["poly"][1]["exp"] = [0, 2]


@pytest.mark.parametrize("edit,argv", [
    (_set_x1_coefficient, ["F", "--lambda", "1,0"]),
    (_empty_poly, ["F", "--lambda", "2,0"]),
    (_empty_poly, ["E", "--lambda", "1,0"]),
    (_negative_exponent, ["F", "--lambda", "2,0"]),
    (_wrong_degree, ["F", "--lambda", "2,0"]),
], ids=["x1-coefficient", "empty-poly-F", "empty-poly-E", "negative-exponent",
        "wrong-degree"])
def test_compute_rejects_cache_entry_with_wrong_format_or_lead(tmp_path, capsys, edit, argv):
    cache_dir = _old_cache_dir(tmp_path, edit)
    _assert_answer_ignores(capsys, cache_dir, *argv, "--n", "2")


def test_compute_rewrites_only_files_that_gained_entries(tmp_path, capsys):
    # no file gains an entry any more, so none is rewritten or added
    cache_dir = _old_cache_dir(tmp_path)
    n2 = cache_dir / "recursion-cache-n2.json"
    os.utime(n2, ns=(10**9, 10**9))
    for argv in (["F", "--lambda", "1,0", "--n", "2"], ["E", "--lambda", "1,1,0", "--n", "3"],
                 ["F", "--lambda", "1,1,0", "--n", "3"]):
        _assert_answer_ignores(capsys, cache_dir, *argv)
    assert n2.stat().st_mtime_ns == 10**9
    assert [p.name for p in cache_dir.iterdir()] == [n2.name]


@pytest.mark.parametrize("lam,n", [("2,0,1", "3"), ("0,2,1,0", "4")])
def test_compute_e_writes_only_f_entries(tmp_path, capsys, lam, n):
    # neither E nor F writes an entry: the directory stays empty
    for kind in ("E", "F"):
        cache_dir = tmp_path / kind
        cache_dir.mkdir()
        _assert_answer_ignores(capsys, cache_dir, kind, "--lambda", lam, "--n", n)
        assert list(cache_dir.iterdir()) == []


def test_symmetric_kinds_write_no_cache_files(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    for kind in ("J", "P"):
        for basis in ("m", "monomial-of-x"):
            _assert_answer_ignores(capsys, cache_dir, kind, "--lambda", "2,1", "--n", "3",
                                   "--basis", basis)
    assert not cache_dir.exists()


def _modules_after(argv):
    """The sorted names in sys.modules after an in-process CLI request, run
    in a fresh interpreter."""
    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        "import sys\n"
        "import jackpoly.cli\n"
        f"assert jackpoly.cli.main({argv!r}) == 0\n"
        "print(sorted(sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_compute_f_imports_no_sweep_modules():
    loaded = _modules_after(["compute", "F", "--lambda", "2,1,0", "--n", "3"])
    for name in ("jackpoly.verify", "jackpoly.tableaux", "jackpoly.cherednik"):
        assert repr(name) not in loaded


def test_verify_imports_no_thread_pool():
    loaded = _modules_after(["verify", "eigen", "--n-max", "2", "--deg-max", "2"])
    assert "'jackpoly.verify'" in loaded
    assert "'concurrent.futures'" not in loaded


def test_star_import_exposes_every_public_name():
    namespace = {}
    exec("import jackpoly.verify\nfrom jackpoly import *", namespace)
    import jackpoly
    for name in jackpoly.__all__:
        assert name in namespace, name
    # public functions that share a submodule's name stay functions
    assert callable(namespace["tableaux"]) and callable(namespace["compositions"])


def test_compute_latex(capsys):
    code, out, _ = run(capsys, "compute", "E", "--lambda", "1,0", "--n", "2",
                       "--format", "latex")
    assert code == 0
    assert "\\alpha" in out and "x_{1}" in out


@pytest.mark.parametrize("argv,message", [
    (["verify", "cyclic", "--n-max", "2", "--deg-max", "2"], "invalid choice: 'latex'"),
    (["cache", "stats", "--cache-dir", "unused"], "invalid choice: 'cache'"),
], ids=["verify", "cache"])
def test_latex_format_is_only_for_compute(capsys, argv, message):
    with pytest.raises(SystemExit) as info:
        cli.main(argv + ["--format", "latex"])
    assert info.value.code == 2
    assert message in capsys.readouterr().err


def test_public_verify_functions_are_the_sweeps_of_checks():
    # perfbench/tracer.py adds the cases of every public function of
    # jackpoly.verify, so each must be a sweep that one check runs
    public = {name for name, value in vars(verify).items()
              if inspect.isfunction(value) and value.__module__ == verify.__name__
              and not name.startswith("_")}
    swept = {function for sweeps in cli.CHECKS.values() for function, _, _ in sweeps}
    assert public == swept
    for name in swept:
        assert inspect.isfunction(getattr(verify, name)), name


def test_k_list_only_for_orthogonality(capsys):
    code, out, err = run(capsys, "verify", "cyclic", "--n-max", "2", "--deg-max", "2",
                         "--k-list", "3")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "--k-list" in err and "Traceback" not in err
    code, out, _ = run(capsys, "verify", "orthogonality", "--n-max", "2", "--deg-max", "2",
                       "--k-list", "3")
    assert code == 0 and out.startswith("PASS orthogonality")
    # without --k-list the pairing runs at the documented default
    code, out, _ = run(capsys, "verify", "orthogonality", "--n-max", "2", "--deg-max", "2",
                       "--format", "json")
    assert json.loads(out)["verdicts"][0]["params"]["k_list"] == [1, 2]


def test_requests_do_not_import_dataclasses_or_inspect():
    # both cost several ms of start-up per request; -S keeps site packages'
    # own imports out of the count
    script = (
        "import runpy, sys\n"
        "for argv in (['compute', 'F', '--lambda', '1,0', '--n', '2'],\n"
        "             ['verify', 'eigen', '--n-max', '2', '--deg-max', '2']):\n"
        "    sys.argv = ['jackpoly', *argv]\n"
        "    try:\n"
        "        runpy.run_module('jackpoly.cli', run_name='__main__')\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0, exc.code\n"
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
