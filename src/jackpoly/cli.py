"""Command-line interface: compute polynomials, run verification sweeps,
and manage the on-disk recursion cache.

Output is deterministic: fixed term order, sorted JSON keys, no timestamps.
Exit codes: 0 success, 1 a verification found a counterexample, 2 bad
usage or malformed input, 3 a cache file was rejected.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import verify as sweeps
from .compositions import degree, is_partition, length
from .recursion import (
    CacheFormatError,
    RecursionCache,
    cache_document,
    e_poly,
    f_poly,
    load_cache_document,
)
from .render import (
    expansion_json,
    expansion_latex,
    expansion_text,
    poly_json,
    poly_latex,
    poly_text,
)
from .symmetric import expand_monomial, j_poly, p_poly

DESK_LIMIT = 8
CACHE_FILE_PATTERN = "recursion-cache-n{n}.json"
ENV_THREADS = "JACKPOLY_THREADS"
ENV_CACHE_DIR = "JACKPOLY_CACHE_DIR"


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


def _thread_count(args) -> int:
    if args.threads is not None:
        return max(1, args.threads)
    env = os.environ.get(ENV_THREADS)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise CliError(2, f"{ENV_THREADS} must be an integer, got {env!r}")
    return 1


def _cache_dir(args) -> Path | None:
    raw = args.cache_dir or os.environ.get(ENV_CACHE_DIR)
    return Path(raw) if raw else None


def _load_dir_into_cache(directory: Path, cache: RecursionCache) -> None:
    if not directory.is_dir():
        return
    for path in sorted(directory.glob(CACHE_FILE_PATTERN.format(n="*"))):
        try:
            doc = json.loads(path.read_text())
            load_cache_document(doc, cache)
        except (CacheFormatError, json.JSONDecodeError, OSError) as exc:
            raise CliError(3, f"cannot load cache file {path}: {exc}")


def _save_cache_to_dir(directory: Path, cache: RecursionCache) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for n in cache.variable_counts():
        doc = cache_document(cache, n)
        path = directory / CACHE_FILE_PATTERN.format(n=n)
        path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def _emit(args, text: str) -> None:
    print(text)


# -- compute -----------------------------------------------------------------


def _cmd_compute(args) -> int:
    lam = _parse_lambda(args.lam)
    n = args.n
    if n < 1:
        raise CliError(2, "--n must be a positive integer")
    _guard_desk_scale(args.force, n=n, degree=degree(lam))

    cache = RecursionCache()
    directory = _cache_dir(args)
    if directory is not None:
        _load_dir_into_cache(directory, cache)

    kind = args.kind
    basis = args.basis
    if kind in ("J", "P"):
        if basis is None:
            basis = "m"
        if not is_partition(lam):
            raise CliError(2, f"--lambda must be a partition for kind {kind}, got {lam}")
        if length(lam) > n:
            raise CliError(2, f"--n must be at least the partition length {length(lam)}")
        poly = j_poly(lam, n, cache) if kind == "J" else p_poly(lam, n, cache)
    else:
        if basis is None:
            basis = "monomial-of-x"
        if basis != "monomial-of-x":
            raise CliError(2, f"--basis {basis} requires kind J or P")
        if len(lam) > n:
            raise CliError(2, f"--lambda has {len(lam)} parts but --n is {n}")
        padded = lam + (0,) * (n - len(lam))
        poly = f_poly(padded, cache) if kind == "F" else e_poly(padded, cache)

    if directory is not None:
        _save_cache_to_dir(directory, cache)

    if basis == "monomial-of-x":
        if args.format == "json":
            doc = poly_json(poly)
            doc["polynomial"] = kind
            doc["lambda"] = list(lam)
            _emit(args, json.dumps(doc, sort_keys=True, indent=1))
        elif args.format == "latex":
            _emit(args, poly_latex(poly))
        else:
            _emit(args, poly_text(poly))
        return 0

    expansion = expand_monomial(poly)
    entries = expansion.entries if basis == "m" else expansion.augmented()
    if args.format == "json":
        _emit(args, json.dumps(expansion_json(lam, basis, entries),
                               sort_keys=True, indent=1))
    elif args.format == "latex":
        _emit(args, expansion_latex(basis, entries))
    else:
        _emit(args, expansion_text(basis, entries))
    return 0


# -- verify ------------------------------------------------------------------


def _run_check(name: str, args, threads: int) -> list:
    n_max = args.n_max
    deg_max = args.deg_max
    ks = _parse_k_list(args.k_list)
    if name == "oracle-equivalence":
        return [sweeps.engine_equivalence(n_max, deg_max, threads=threads)]
    if name == "eigen":
        return [sweeps.eigenfunctions(n_max, deg_max)]
    if name == "hecke":
        return [sweeps.hecke(n_max, deg_max)]
    if name == "orthogonality":
        return [sweeps.orthogonality(n_max, deg_max, ks)]
    if name == "positivity":
        cache = RecursionCache()
        return [sweeps.j_positivity(n_max, deg_max, cache),
                sweeps.f_positivity(min(n_max, 4), deg_max, cache)]
    if name == "coeff-identities":
        return [sweeps.coeff_identities(deg_max, deg_max)]
    if name == "stability":
        return [sweeps.stability_symmetry(n_max, deg_max)]
    if name == "sym-routes":
        return [sweeps.sym_routes(min(n_max, 6), deg_max)]
    if name == "swap":
        return [sweeps.swap_consistency(n_max, deg_max)]
    if name == "cyclic":
        return [sweeps.cyclic_consistency(n_max, deg_max)]
    if name == "l2l3":
        return [sweeps.l2l3(n_max, deg_max)]
    if name == "specializations":
        return [sweeps.specializations(n_max, deg_max)]
    raise CliError(2, f"unknown check {name!r}")


def _cmd_verify(args) -> int:
    if args.n_max < 1:
        raise CliError(2, f"--n-max must be a positive integer, got {args.n_max}")
    if args.deg_max < 0:
        raise CliError(2, f"--deg-max must be a non-negative integer, got {args.deg_max}")
    _guard_desk_scale(args.force, n_max=args.n_max, deg_max=args.deg_max)
    threads = _thread_count(args)
    verdicts = _run_check(args.check, args, threads)
    if args.format == "json":
        doc = {"kind": "verdict-list", "verdicts": [v.to_json() for v in verdicts]}
        _emit(args, json.dumps(doc, sort_keys=True, indent=1))
    else:
        for v in verdicts:
            line = f"{'PASS' if v.passed else 'FAIL'} {v.check} [{v.theorem}] cases={v.cases}"
            if v.counterexample is not None:
                line += " counterexample=" + json.dumps(v.counterexample, sort_keys=True)
            _emit(args, line)
    return 0 if all(v.passed for v in verdicts) else 1


# -- cache -------------------------------------------------------------------


def _require_cache_dir(args) -> Path:
    directory = _cache_dir(args)
    if directory is None:
        raise CliError(2, "a cache directory is required: pass --cache-dir "
                          f"or set {ENV_CACHE_DIR}")
    return directory


def _cache_stats(directory: Path) -> dict:
    files = []
    total_entries = 0
    total_terms = 0
    if directory.is_dir():
        for path in sorted(directory.glob(CACHE_FILE_PATTERN.format(n="*"))):
            cache = RecursionCache()
            try:
                doc = json.loads(path.read_text())
                n = load_cache_document(doc, cache)
            except (CacheFormatError, json.JSONDecodeError) as exc:
                raise CliError(3, f"cannot read cache file {path}: {exc}")
            entries = len(cache)
            terms = cache.total_terms()
            files.append({"n": n, "entries": entries, "terms": terms})
            total_entries += entries
            total_terms += terms
    return {"kind": "cache-stats", "files": files,
            "entries": total_entries, "terms": total_terms}


def _cmd_cache(args) -> int:
    directory = _require_cache_dir(args)
    action = args.action
    if action == "stats":
        doc = _cache_stats(directory)
        if args.format == "json":
            _emit(args, json.dumps(doc, sort_keys=True, indent=1))
        else:
            for item in doc["files"]:
                _emit(args, f"n={item['n']} entries={item['entries']} terms={item['terms']}")
            _emit(args, f"total entries={doc['entries']} terms={doc['terms']}")
        return 0
    if action == "clear":
        removed = 0
        if directory.is_dir():
            for path in sorted(directory.glob(CACHE_FILE_PATTERN.format(n="*"))):
                path.unlink()
                removed += 1
        _emit(args, f"removed {removed} cache file(s)")
        return 0
    if action == "export":
        if not args.path:
            raise CliError(2, "cache export requires --path")
        cache = RecursionCache()
        _load_dir_into_cache(directory, cache)
        counts = cache.variable_counts()
        if not counts:
            raise CliError(2, f"no cache files in {directory}")
        if args.n is not None:
            if args.n not in counts:
                raise CliError(2, f"no cache entries for n={args.n}")
            n = args.n
        elif len(counts) == 1:
            n = counts[0]
        else:
            raise CliError(2, f"cache holds several variable counts {counts}; pass --n")
        Path(args.path).write_text(
            json.dumps(cache_document(cache, n), sort_keys=True, indent=1) + "\n")
        _emit(args, f"exported n={n} to {args.path}")
        return 0
    if action == "import":
        if not args.path:
            raise CliError(2, "cache import requires --path")
        cache = RecursionCache()
        _load_dir_into_cache(directory, cache)
        try:
            doc = json.loads(Path(args.path).read_text())
        except (json.JSONDecodeError, OSError) as exc:
            raise CliError(3, f"cannot read {args.path}: {exc}")
        try:
            n = load_cache_document(doc, cache)
        except CacheFormatError as exc:
            raise CliError(3, str(exc))
        _save_cache_to_dir(directory, cache)
        _emit(args, f"imported n={n} from {args.path}")
        return 0
    raise CliError(2, f"unknown cache action {action!r}")


# -- parser -------------------------------------------------------------------


CHECK_NAMES = [
    "oracle-equivalence", "eigen", "hecke", "orthogonality", "positivity",
    "coeff-identities", "stability", "sym-routes", "swap", "cyclic", "l2l3",
    "specializations",
]


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["json", "text", "latex"], default="text")
    common.add_argument("--threads", type=int, default=None,
                        help=f"worker threads for tableau sums (or {ENV_THREADS})")
    common.add_argument("--cache-dir", default=None,
                        help=f"directory for recursion cache files (or {ENV_CACHE_DIR})")
    common.add_argument("--force", action="store_true",
                        help="override the desk-scale guardrails")

    parser = argparse.ArgumentParser(
        prog="jackpoly",
        description="Exact Jack polynomials: two independent engines plus "
                    "verification sweeps for their defining identities.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", parents=[common],
                               help="compute one polynomial or expansion")
    p_compute.add_argument("kind", choices=["F", "E", "J", "P"])
    p_compute.add_argument("--lambda", dest="lam", required=True,
                           help="comma-separated parts, e.g. 2,1,0")
    p_compute.add_argument("--n", type=int, required=True, help="number of variables")
    p_compute.add_argument("--basis", choices=["monomial-of-x", "m", "m-tilde"],
                           default=None,
                           help="defaults to monomial-of-x for F/E and m for J/P")

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run one verification sweep")
    p_verify.add_argument("check", choices=CHECK_NAMES)
    p_verify.add_argument("--n-max", type=int, default=3)
    p_verify.add_argument("--deg-max", type=int, default=4)
    p_verify.add_argument("--k-list", default="1,2",
                          help="reciprocal alpha values for the pairing")

    p_cache = sub.add_parser("cache", parents=[common],
                             help="inspect or move the recursion cache")
    p_cache.add_argument("action", choices=["stats", "clear", "export", "import"])
    p_cache.add_argument("--path", default=None, help="file for export/import")
    p_cache.add_argument("--n", type=int, default=None,
                         help="variable count to export when several are cached")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "compute":
            return _cmd_compute(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_cache(args)
    except CliError as exc:
        print(f"jackpoly: error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
