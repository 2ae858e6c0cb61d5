"""Record tests/data/golden.json: the SHA-256 digest of the stdout and the
exit code of a fixed set of CLI requests (keyed by their argv joined with
spaces), run in-process, and of the text and LaTeX renderings of a few
hand-made polynomials and expansions whose coefficients no engine produces
(negative ones among them).

    PYTHONPATH=src python3 tools/record_golden.py

tests/test_golden.py re-runs every request and rendering and compares.
Re-record only for an intended output change, and name that change in
CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_FILE = ROOT / "tests" / "data" / "golden.json"

COMPUTE_FORMATS = ("text", "json", "latex")
VERIFY_FORMATS = ("text", "json")

# F/E: degree 0, padding, zero parts in every position, non-dominant orders.
COMPOSITIONS = (
    ("0", 1), ("0,0", 2), ("1,0", 2), ("0,1", 2), ("1", 3), ("2,0,1", 3),
    ("1,2,0", 3), ("0,2,1,1", 4), ("3,0,2", 3), ("2,1,0,0,1", 5),
)
# J/P: the empty partition, one part, padding far past the length.
PARTITIONS = (
    ("0", 2), ("1", 3), ("1,1", 2), ("2,1", 3), ("3,1", 4), ("2,2,1", 4),
    ("3,2,1", 4), ("2", 5),
)
BASES = ("m", "m-tilde", "monomial-of-x")
# (check, n_max, deg_max): small bounds that leave every check some cases,
# plus the two clamped checks above their clamps.
CHECKS = (
    ("oracle-equivalence", 3, 3), ("eigen", 2, 3), ("hecke", 2, 3),
    ("orthogonality", 2, 3), ("positivity", 3, 3), ("positivity", 5, 2),
    ("coeff-identities", 2, 3), ("stability", 2, 3), ("sym-routes", 3, 3),
    ("sym-routes", 7, 2), ("swap", 2, 3), ("cyclic", 2, 3), ("l2l3", 2, 3),
    ("specializations", 2, 3),
)


def requests() -> list[list[str]]:
    out = []
    for kind in ("F", "E"):
        for lam, n in COMPOSITIONS:
            for fmt in COMPUTE_FORMATS:
                out.append(["compute", kind, "--lambda", lam, "--n", str(n), "--format", fmt])
    for kind in ("J", "P"):
        for lam, n in PARTITIONS:
            for basis in BASES:
                for fmt in COMPUTE_FORMATS:
                    out.append(["compute", kind, "--lambda", lam, "--n", str(n),
                                "--basis", basis, "--format", fmt])
    for check, n_max, deg_max in CHECKS:
        for fmt in VERIFY_FORMATS:
            out.append(["verify", check, "--n-max", str(n_max), "--deg-max", str(deg_max),
                        "--format", fmt])
    return out


def render_cases() -> dict:
    """Hand-made inputs for the renderers: name -> (polynomial, entries)."""
    from jackpoly.alphapoly import AlphaFrac, AlphaPoly
    from jackpoly.mpoly import MPoly

    a = AlphaPoly.ALPHA
    coefs = {
        "one": 1, "minus-one": -1, "minus-three": -3, "minus-a-minus-1": -a - 1,
        "minus-2a": AlphaPoly((0, -2)), "a-squared-minus-1": a * a - 1,
        "frac": AlphaFrac(a + 2, a * a + 1), "minus-frac": AlphaFrac(-1, a + 1),
        "frac-const-den": AlphaFrac(a * a + 1, 2), "frac-integral": AlphaFrac(2 * a + 2, a + 1),
        "frac-minus-one": AlphaFrac(-1),
    }
    exps = [(2, 0, 1), (1, 1, 1), (0, 3, 0), (1, 0, 1), (0, 1, 1), (0, 0, 1), (0, 0, 0)]
    cases = {"zero": (MPoly(3), {})}
    for name, c in coefs.items():
        cases[f"lead-{name}"] = (MPoly(3, {(1, 2, 0): c, (0, 1, 0): 2}),
                                 {(2, 1): c, (1, 1, 1): 2})
        cases[f"tail-{name}"] = (MPoly(3, {(2, 1, 0): 1, (0, 1, 0): c}),
                                 {(2, 1): 1, (1, 1, 1): c})
        cases[f"const-{name}"] = (MPoly(3, {(0, 0, 0): c}), {(): c})
    values = list(coefs.values())
    cases["mixed"] = (MPoly(3, dict(zip(exps, values))),
                      {(k, 1): c for k, c in enumerate(values, start=1)})
    return cases


def renderings() -> dict:
    """name -> rendered string, for every render case, style and basis."""
    from jackpoly import render

    out = {}
    for name, (poly, entries) in render_cases().items():
        for style in ("text", "latex"):
            out[f"{name} poly {style}"] = render.format_poly(poly, style)
        out[f"{name} poly json"] = json.dumps(render.poly_json(poly), sort_keys=True)
        for basis in ("m", "m-tilde", "e"):
            for style in ("text", "latex"):
                out[f"{name} {basis} {style}"] = render.format_expansion(basis, entries, style)
            out[f"{name} {basis} json"] = json.dumps(
                render.expansion_json((2, 1), basis, entries), sort_keys=True)
    return out


def run(argv: list[str]) -> tuple[int, str]:
    """(exit code, stdout) of one in-process CLI request."""
    from jackpoly import cli

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(list(argv))
    return code, buffer.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main() -> int:
    refs = {}
    for argv in requests():
        code, out = run(argv)
        refs[" ".join(argv)] = {"exit": code, "sha256": digest(out)}
    renders = {name: digest(text) for name, text in renderings().items()}
    GOLDEN_FILE.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_FILE.write_text(json.dumps({"requests": refs, "renders": renders}, indent=1) + "\n")
    print(f"recorded {len(refs)} requests and {len(renders)} renderings to {GOLDEN_FILE}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
