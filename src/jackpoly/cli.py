"""Command-line interface: compute polynomials and run verification sweeps.

Output is deterministic: fixed term order, sorted JSON keys, no timestamps.
Exit codes: 0 success, 1 a verification found a counterexample, 2 bad
usage or malformed input (including verify bounds that leave no case).
"""

from __future__ import annotations

import argparse
import json
import sys

from .alphapoly import AlphaFrac
from .compositions import degree, is_partition, length, lower_hooks
from .recursion import RecursionCache, e_poly, f_poly
from .render import expansion_json, format_expansion, format_poly, poly_json

DESK_LIMIT = 8
DEFAULT_K_LIST = "1,2"


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _parse_lambda(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise CliError(2, f"--lambda must be comma-separated integers, got {text!r}")
    if not parts or any(x < 0 for x in parts):
        raise CliError(2, f"--lambda must be non-negative integers, got {text!r}")
    return parts


def _parse_k_list(text: str) -> list[int]:
    try:
        ks = [int(x) for x in text.split(",")]
    except ValueError:
        raise CliError(2, f"--k-list must be comma-separated integers, got {text!r}")
    if not ks or any(k < 1 for k in ks):
        raise CliError(2, "--k-list entries must be positive integers")
    return ks


def _guard_desk_scale(force: bool, **bounds: int) -> None:
    for name, value in bounds.items():
        if value > DESK_LIMIT and not force:
            raise CliError(
                2, f"{name}={value} exceeds the desk-scale limit {DESK_LIMIT}; "
                   f"pass --force to override")


def _emit_json(doc) -> None:
    """Print doc as sorted, indented JSON, written in batches of encoder
    chunks.  With an indent json encodes in pure Python, one small string
    per token; json.dumps would hold all of them at once, several times the
    size of the output for a polynomial with thousands of terms."""
    from itertools import islice

    chunks = json.JSONEncoder(sort_keys=True, indent=1).iterencode(doc)
    for batch in iter(lambda: "".join(islice(chunks, 4096)), ""):
        sys.stdout.write(batch)
    sys.stdout.write("\n")


# -- compute -----------------------------------------------------------------


def _cmd_compute(args) -> int:
    if args.cache_dir is not None:
        # computing F is faster than reading it back, so nothing is kept on
        # disk; the directory is neither read nor created
        print("jackpoly: note: --cache-dir is ignored; jackpoly keeps no cache on disk",
              file=sys.stderr)
    lam = _parse_lambda(args.lam)
    n = args.n
    if n < 1:
        raise CliError(2, "--n must be a positive integer")
    _guard_desk_scale(args.force, n=n, degree=degree(lam))

    kind = args.kind
    basis = args.basis
    expansion = None
    if kind in ("J", "P"):
        if basis is None:
            basis = "m"
        if not is_partition(lam):
            raise CliError(2, f"--lambda must be a partition for kind {kind}, got {lam}")
        if length(lam) > n:
            raise CliError(2, f"--n must be at least the partition length {length(lam)}")
        from . import symmetric
        if basis == "monomial-of-x":
            poly = symmetric.j_poly(lam, n) if kind == "J" else symmetric.p_poly(lam, n)
        else:
            expansion = symmetric.j_expansion(lam, n)
            if kind == "P":
                hooks = lower_hooks(lam[:length(lam)])
                expansion = symmetric.MonomialExpansion(
                    n, {mu: AlphaFrac(c, hooks) for mu, c in expansion.entries.items()})
    else:
        if basis is None:
            basis = "monomial-of-x"
        if basis != "monomial-of-x":
            raise CliError(2, f"--basis {basis} requires kind J or P")
        if len(lam) > n:
            raise CliError(2, f"--lambda has {len(lam)} parts but --n is {n}")
        padded = lam + (0,) * (n - len(lam))
        # a memo for one request: perfbench/tracer.py counts the steps as its puts
        cache = RecursionCache()
        poly = f_poly(padded, cache) if kind == "F" else e_poly(padded, cache)

    if expansion is None:
        if args.format == "json":
            doc = poly_json(poly)
            doc["polynomial"] = kind
            doc["lambda"] = list(lam)
            _emit_json(doc)
        else:
            print(format_poly(poly, args.format))
        return 0

    entries = expansion.entries if basis == "m" else expansion.augmented()
    if args.format == "json":
        _emit_json(expansion_json(lam, basis, entries))
    else:
        print(format_expansion(basis, entries, args.format))
    return 0


# -- verify ------------------------------------------------------------------


def _n_deg(n_max, deg_max, ks):
    return n_max, deg_max


# check name -> the sweeps it runs, each as (function of jackpoly.verify,
# its arguments from (n_max, deg_max, ks), the largest n_max it runs at)
CHECKS = {
    "oracle-equivalence": [("engine_equivalence", _n_deg, None)],
    "eigen": [("eigenfunctions", _n_deg, None)],
    "hecke": [("hecke", _n_deg, None)],
    "orthogonality": [("orthogonality", lambda n, d, ks: (n, d, ks), None)],
    "positivity": [("j_positivity", _n_deg, None), ("f_positivity", _n_deg, 4)],
    "coeff-identities": [("coeff_identities", lambda n, d, ks: (d, d), None)],
    "stability": [("stability_symmetry", _n_deg, None)],
    "sym-routes": [("sym_routes", _n_deg, 6)],
    "swap": [("swap_consistency", _n_deg, None)],
    "cyclic": [("cyclic_consistency", _n_deg, None)],
    "l2l3": [("l2l3", _n_deg, None)],
    "specializations": [("specializations", _n_deg, None)],
}
CHECK_NAMES = list(CHECKS)


def _run_check(name: str, args) -> list:
    from . import verify as sweeps

    ks = _parse_k_list(DEFAULT_K_LIST if args.k_list is None else args.k_list)
    verdicts = []
    for function, arguments, clamp in CHECKS[name]:
        n_max = args.n_max if clamp is None else min(args.n_max, clamp)
        # looked up at call time, so that a replaced sweep takes effect
        verdict = getattr(sweeps, function)(*arguments(n_max, args.deg_max, ks))
        if n_max < args.n_max:
            print(f"{name}: {verdict.theorem} verdict clamped to n_max={n_max}",
                  file=sys.stderr)
        verdicts.append(verdict)
    return verdicts


def _cmd_verify(args) -> int:
    if args.n_max < 1:
        raise CliError(2, f"--n-max must be a positive integer, got {args.n_max}")
    if args.deg_max < 0:
        raise CliError(2, f"--deg-max must be a non-negative integer, got {args.deg_max}")
    if args.k_list is not None and args.check != "orthogonality":
        raise CliError(2, f"--k-list applies only to the orthogonality check, not {args.check}")
    _guard_desk_scale(args.force, n_max=args.n_max, deg_max=args.deg_max)
    verdicts = _run_check(args.check, args)
    if any(v.cases == 0 for v in verdicts):
        raise CliError(2, f"{args.check} has no cases at --n-max {args.n_max} "
                          f"--deg-max {args.deg_max}; widen the bounds")
    if args.format == "json":
        doc = {"kind": "verdict-list", "verdicts": [v.to_json() for v in verdicts]}
        _emit_json(doc)
    else:
        for v in verdicts:
            line = f"{'PASS' if v.passed else 'FAIL'} {v.check} [{v.theorem}] cases={v.cases}"
            if v.counterexample is not None:
                line += " counterexample=" + json.dumps(v.counterexample, sort_keys=True)
            print(line)
    return 0 if all(v.passed for v in verdicts) else 1


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    # each flag only on the subcommands that read it
    force = argparse.ArgumentParser(add_help=False)
    force.add_argument("--force", action="store_true",
                       help="override the desk-scale guardrails")

    parser = argparse.ArgumentParser(
        prog="jackpoly",
        description="Exact Jack polynomials: two independent engines plus "
                    "verification sweeps for their defining identities.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", parents=[force],
                               help="compute one polynomial or expansion")
    # accepted and ignored (see _cmd_compute), so that scripts passing it still run
    p_compute.add_argument("--cache-dir", default=None, help=argparse.SUPPRESS)
    p_compute.add_argument("kind", choices=["F", "E", "J", "P"])
    p_compute.add_argument("--format", choices=["json", "text", "latex"], default="text")
    p_compute.add_argument("--lambda", dest="lam", required=True,
                           help="comma-separated parts, e.g. 2,1,0")
    p_compute.add_argument("--n", type=int, required=True, help="number of variables")
    p_compute.add_argument("--basis", choices=["monomial-of-x", "m", "m-tilde"],
                           default=None,
                           help="defaults to monomial-of-x for F/E and m for J/P")

    p_verify = sub.add_parser("verify", parents=[force],
                              help="run one verification sweep")
    p_verify.add_argument("check", choices=CHECK_NAMES)
    p_verify.add_argument("--format", choices=["json", "text"], default="text")
    p_verify.add_argument("--n-max", type=int, default=3)
    p_verify.add_argument("--deg-max", type=int, default=4)
    p_verify.add_argument("--k-list", default=None,
                          help="reciprocal alpha values for the pairing, orthogonality "
                               f"only (default {DEFAULT_K_LIST})")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "compute":
            return _cmd_compute(args)
        return _cmd_verify(args)
    except CliError as exc:
        print(f"jackpoly: error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
