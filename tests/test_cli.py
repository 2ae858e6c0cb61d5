import json

import pytest

from jackpoly import cli
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
    monkeypatch.setattr(cli.sweeps, "cyclic_consistency",
                        lambda *a, **k: failing)
    code, out, _ = run(capsys, "verify", "cyclic")
    assert code == 1
    assert "FAIL" in out and "counterexample" in out


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


def test_threads_flag_and_env(capsys, monkeypatch):
    code, out, _ = run(capsys, "verify", "oracle-equivalence", "--n-max", "2",
                       "--deg-max", "2", "--threads", "2")
    assert code == 0
    monkeypatch.setenv(cli.ENV_THREADS, "2")
    code, out2, _ = run(capsys, "verify", "oracle-equivalence", "--n-max", "2",
                        "--deg-max", "2")
    assert code == 0
    assert out == out2


def test_compute_latex(capsys):
    code, out, _ = run(capsys, "compute", "E", "--lambda", "1,0", "--n", "2",
                       "--format", "latex")
    assert code == 0
    assert "\\alpha" in out and "x_{1}" in out
