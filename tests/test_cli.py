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


def test_cache_round_trip(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    # cold compute populates the store
    code, cold, _ = run(capsys, "compute", "F", "--lambda", "2,1", "--n", "2",
                        "--cache-dir", str(cache_dir), "--format", "json")
    assert code == 0
    files = list(cache_dir.glob("recursion-cache-n*.json"))
    assert len(files) == 1
    code, out, _ = run(capsys, "cache", "stats", "--cache-dir", str(cache_dir))
    assert code == 0
    stats_before = out
    assert "entries=" in out

    # export, clear, import restores identical stats
    exported = tmp_path / "dump.json"
    code, _, _ = run(capsys, "cache", "export", "--path", str(exported),
                     "--cache-dir", str(cache_dir))
    assert code == 0
    code, _, _ = run(capsys, "cache", "clear", "--cache-dir", str(cache_dir))
    assert code == 0
    code, out, _ = run(capsys, "cache", "stats", "--cache-dir", str(cache_dir))
    assert "total entries=0" in out
    code, _, _ = run(capsys, "cache", "import", "--path", str(exported),
                     "--cache-dir", str(cache_dir))
    assert code == 0
    code, out, _ = run(capsys, "cache", "stats", "--cache-dir", str(cache_dir))
    assert out == stats_before

    # warm compute is byte-identical to cold
    code, warm, _ = run(capsys, "compute", "F", "--lambda", "2,1", "--n", "2",
                        "--cache-dir", str(cache_dir), "--format", "json")
    assert code == 0
    assert warm == cold


def test_cache_import_version_gate(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"version": 99, "n": 2, "entries": []}))
    code, _, err = run(capsys, "cache", "import", "--path", str(bad),
                       "--cache-dir", str(tmp_path / "c"))
    assert code == 3
    assert "version" in err


def test_cache_import_corrupt_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "cache", "import", "--path", str(bad),
                       "--cache-dir", str(tmp_path / "c"))
    assert code == 3


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
    cache_dir = tmp_path / "cache"
    code, clean, _ = run(capsys, "compute", "F", "--lambda", "1,0", "--n", "2",
                         "--cache-dir", str(cache_dir))
    assert code == 0 and clean == "(a+1)*x1 + x2\n"
    path = cache_dir / "recursion-cache-n2.json"
    doc = json.loads(path.read_text())
    entry = next(e for e in doc["entries"] if e["lambda"] == [1, 0])
    edit(entry)
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "compute", "F", "--lambda", "1,0", "--n", "2",
                         "--cache-dir", str(cache_dir))
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and "cannot load cache file" in err


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


def test_compute_rewrites_only_files_that_gained_entries(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    run(capsys, "compute", "F", "--lambda", "1,0", "--n", "2", "--cache-dir", str(cache_dir))
    n2 = cache_dir / "recursion-cache-n2.json"
    os.utime(n2, ns=(10**9, 10**9))
    code, out, _ = run(capsys, "compute", "E", "--lambda", "1,1,0", "--n", "3",
                       "--cache-dir", str(cache_dir))
    assert code == 0
    assert n2.stat().st_mtime_ns == 10**9
    n3 = cache_dir / "recursion-cache-n3.json"
    os.utime(n3, ns=(10**9, 10**9))
    # a warm request adds nothing, so it writes nothing
    code, warm, _ = run(capsys, "compute", "F", "--lambda", "1,1,0", "--n", "3",
                        "--cache-dir", str(cache_dir))
    assert code == 0 and warm
    assert n3.stat().st_mtime_ns == 10**9
    assert sorted(p.name for p in cache_dir.iterdir()) == [n2.name, n3.name]


def test_symmetric_kinds_write_no_cache_files(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    for kind in ("J", "P"):
        for basis in ("m", "monomial-of-x"):
            code, _, _ = run(capsys, "compute", kind, "--lambda", "2,1", "--n", "3",
                             "--basis", basis, "--cache-dir", str(cache_dir))
            assert code == 0
    code, out, _ = run(capsys, "cache", "stats", "--cache-dir", str(cache_dir))
    assert code == 0 and out == "total entries=0 terms=0\n"


def test_cache_dir_that_is_a_file_exits_3(tmp_path, capsys):
    not_a_dir = tmp_path / "cache"
    not_a_dir.write_text("x")
    for argv in (["compute", "F", "--lambda", "1,0", "--n", "2"], ["cache", "stats"]):
        code, out, err = run(capsys, *argv, "--cache-dir", str(not_a_dir))
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "not a directory" in err


def test_cache_stats_on_a_directory_named_like_a_cache_file_exits_3(tmp_path, capsys):
    (tmp_path / "recursion-cache-n3.json").mkdir()
    code, out, err = run(capsys, "cache", "stats", "--cache-dir", str(tmp_path))
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and "cannot load cache file" in err


def test_non_utf8_cache_file_exits_3(tmp_path, capsys):
    (tmp_path / "recursion-cache-n2.json").write_bytes(b'{"version": 1, "n": 2, "\xff": []}')
    for argv in (["compute", "F", "--lambda", "1,0", "--n", "2"], ["cache", "stats"]):
        code, out, err = run(capsys, *argv, "--cache-dir", str(tmp_path))
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "cannot load cache file" in err


def test_cache_export_into_missing_directory_exits_3(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    run(capsys, "compute", "F", "--lambda", "1,0", "--n", "2", "--cache-dir", str(cache_dir))
    code, out, err = run(capsys, "cache", "export", "--cache-dir", str(cache_dir),
                         "--path", str(tmp_path / "missing" / "dump.json"))
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and "cannot write" in err


def test_file_whose_n_differs_from_its_name_exits_3(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    run(capsys, "compute", "F", "--lambda", "1,1,0", "--n", "3", "--cache-dir", str(cache_dir))
    # the n=3 document under the name of n=2
    data = (cache_dir / "recursion-cache-n3.json").read_bytes()
    (cache_dir / "recursion-cache-n3.json").rename(cache_dir / "recursion-cache-n2.json")
    for argv in (["compute", "F", "--lambda", "1,0", "--n", "2"], ["cache", "stats"]):
        code, out, err = run(capsys, *argv, "--cache-dir", str(cache_dir))
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "holds n=3" in err
    # the n=3 entries were not overwritten by a rewrite under the n=2 name
    assert (cache_dir / "recursion-cache-n2.json").read_bytes() == data


def test_compute_reads_only_the_file_of_its_n(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    (cache_dir / "recursion-cache-n3.json").write_text("{not json")
    code, out, err = run(capsys, "compute", "F", "--lambda", "1,0", "--n", "2",
                         "--cache-dir", str(cache_dir))
    assert (code, out, err) == (0, "(a+1)*x1 + x2\n", "")
    code, out, err = run(capsys, "compute", "J", "--lambda", "2,1", "--n", "3",
                         "--cache-dir", str(cache_dir))
    assert (code, out, err) == (0, "(a+2) m[2,1] + 6 m[1,1,1]\n", "")
    # the file of the request's own n is still read, and cache stats reads all
    code, _, err = run(capsys, "compute", "E", "--lambda", "1,0,0", "--n", "3",
                       "--cache-dir", str(cache_dir))
    assert code == 3 and "cannot load cache file" in err
    code, _, err = run(capsys, "cache", "stats", "--cache-dir", str(cache_dir))
    assert code == 3 and "cannot load cache file" in err


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


def test_cache_requires_directory(capsys, monkeypatch):
    monkeypatch.delenv(cli.ENV_CACHE_DIR, raising=False)
    code, _, err = run(capsys, "cache", "stats")
    assert code == 2
    assert "--cache-dir" in err


def test_cache_export_needs_path(tmp_path, capsys):
    code, _, err = run(capsys, "cache", "export", "--cache-dir", str(tmp_path))
    assert code == 2
    assert "--path" in err


def test_cache_dir_from_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_CACHE_DIR, str(tmp_path / "envcache"))
    code, _, _ = run(capsys, "compute", "F", "--lambda", "1,1", "--n", "2")
    assert code == 0
    assert list((tmp_path / "envcache").glob("*.json"))


def test_compute_latex(capsys):
    code, out, _ = run(capsys, "compute", "E", "--lambda", "1,0", "--n", "2",
                       "--format", "latex")
    assert code == 0
    assert "\\alpha" in out and "x_{1}" in out


@pytest.mark.parametrize("argv", [
    ["verify", "cyclic", "--n-max", "2", "--deg-max", "2"],
    ["cache", "stats", "--cache-dir", "unused"],
], ids=["verify", "cache"])
def test_latex_format_is_only_for_compute(capsys, argv):
    with pytest.raises(SystemExit) as info:
        cli.main(argv + ["--format", "latex"])
    assert info.value.code == 2
    assert "invalid choice: 'latex'" in capsys.readouterr().err


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
