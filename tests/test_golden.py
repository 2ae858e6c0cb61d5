"""The golden rendering corpus: CLI stdout and renderer output must match
the digests in tests/data/golden.json, which tools/record_golden.py
recorded.  Re-record only for an intended output change, and name that
change in CHANGES.md."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "tests" / "data" / "golden.json").read_text())

_spec = importlib.util.spec_from_file_location("record_golden",
                                               ROOT / "tools" / "record_golden.py")
record_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_golden)


def test_corpus_covers_every_request():
    assert sorted(GOLDEN["requests"]) == sorted(" ".join(a) for a in record_golden.requests())
    assert sorted(GOLDEN["renders"]) == sorted(record_golden.renderings())


def test_cli_requests_match_golden_digests(capsys):
    mismatches = []
    for key, ref in GOLDEN["requests"].items():
        code, out = record_golden.run(key.split())
        if code != ref["exit"] or record_golden.digest(out) != ref["sha256"]:
            mismatches.append(key)
    capsys.readouterr()
    assert mismatches == []


def test_renderings_match_golden_digests():
    mismatches = [name for name, text in record_golden.renderings().items()
                  if record_golden.digest(text) != GOLDEN["renders"][name]]
    assert mismatches == []
