"""Command-line interface: compute polynomials, run verification sweeps,
and manage the on-disk recursion cache.

Output is deterministic: fixed term order, sorted JSON keys, no timestamps.
Exit codes: 0 success, 1 a verification found a counterexample, 2 bad
usage or malformed input (including verify bounds that leave no case), 3 a
cache file or directory could not be read, written or trusted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .alphapoly import AlphaFrac
from .compositions import degree, is_partition, length, lower_hook_product
from .recursion import (
    CacheFormatError,
    RecursionCache,
    cache_document,
    e_poly,
    f_poly,
    load_cache_document,
)
from .render import expansion_json, format_expansion, format_poly, poly_json

DESK_LIMIT = 8
CACHE_FILE_PATTERN = "recursion-cache-n{n}.json"
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


def _cache_dir(args) -> Path | None:
    raw = args.cache_dir or os.environ.get(ENV_CACHE_DIR)
    return Path(raw) if raw else None


def _cache_files(directory: Path, variable_counts=None) -> list[Path]:
    """The cache files in a cache directory, or only those of the given
    variable counts; none if the directory does not exist yet."""
    if not directory.exists():
        return []
    if not directory.is_dir():
        raise CliError(3, f"cache directory {directory} is not a directory")
    if variable_counts is None:
        return sorted(directory.glob(CACHE_FILE_PATTERN.format(n="*")))
    paths = (directory / CACHE_FILE_PATTERN.format(n=n) for n in variable_counts)
    return [path for path in paths if path.exists()]


def _read_cache_file(path: Path, cache: RecursionCache) -> int:
    try:
        n = load_cache_document(json.loads(path.read_text(encoding="utf-8")), cache)
    except (ValueError, OSError) as exc:
        # ValueError covers CacheFormatError, malformed JSON and text that
        # is not UTF-8
        raise CliError(3, f"cannot load cache file {path}: {exc}")
    if path.name != CACHE_FILE_PATTERN.format(n=n):
        # a rewrite of this file would keep only the entries of its name's n
        raise CliError(3, f"cannot load cache file {path}: it holds n={n}")
    return n


def _load_dir_into_cache(directory: Path, cache: RecursionCache,
                         variable_counts=None) -> list[int]:
    """Load the cache files of a directory, or only those of the given
    variable counts; return the variable count of each file, in file order."""
    return [_read_cache_file(path, cache) for path in _cache_files(directory, variable_counts)]


def _save_cache_to_dir(directory: Path, cache: RecursionCache, variable_counts) -> None:
    """Write the cache files of the given variable counts, each atomically:
    a reader sees the old file or the new one, never a partial write.  The
    files are written compactly, which lets json use its C encoder."""
    for n in variable_counts:
        path = directory / CACHE_FILE_PATTERN.format(n=n)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            directory.mkdir(parents=True, exist_ok=True)
            tmp.write_text(json.dumps(cache_document(cache, n), sort_keys=True) + "\n",
                           encoding="utf-8")
            os.replace(tmp, path)
        except OSError as exc:
            tmp.unlink(missing_ok=True)
            raise CliError(3, f"cannot write cache file {path}: {exc}")


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
    lam = _parse_lambda(args.lam)
    n = args.n
    if n < 1:
        raise CliError(2, "--n must be a positive integer")
    _guard_desk_scale(args.force, n=n, degree=degree(lam))

    kind = args.kind
    cache = RecursionCache()
    directory = _cache_dir(args)
    if directory is not None:
        # only F and E use the cache, and only the file of their n
        _load_dir_into_cache(directory, cache, [n] if kind in ("F", "E") else [])
        loaded = cache.entry_counts()

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
                hooks = lower_hook_product(lam[:length(lam)])
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
        poly = f_poly(padded, cache) if kind == "F" else e_poly(padded, cache)

    if directory is not None:
        grown = [v for v, count in cache.entry_counts().items() if count > loaded.get(v, 0)]
        _save_cache_to_dir(directory, cache, grown)

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

    ks = _parse_k_list(args.k_list)
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


# -- cache -------------------------------------------------------------------


def _require_cache_dir(args) -> Path:
    directory = _cache_dir(args)
    if directory is None:
        raise CliError(2, "a cache directory is required: pass --cache-dir "
                          f"or set {ENV_CACHE_DIR}")
    return directory


def _cache_stats(directory: Path) -> dict:
    cache = RecursionCache()
    files = []
    # every file holds the n of its name, so each n is one file
    for n in _load_dir_into_cache(directory, cache):
        entries = cache.entries(n)
        files.append({"n": n, "entries": len(entries),
                      "terms": sum(len(f.terms) for _, f in entries)})
    return {"kind": "cache-stats", "files": files,
            "entries": sum(f["entries"] for f in files),
            "terms": sum(f["terms"] for f in files)}


def _cmd_cache(args) -> int:
    directory = _require_cache_dir(args)
    action = args.action
    if action == "stats":
        doc = _cache_stats(directory)
        if args.format == "json":
            _emit_json(doc)
        else:
            for item in doc["files"]:
                print(f"n={item['n']} entries={item['entries']} terms={item['terms']}")
            print(f"total entries={doc['entries']} terms={doc['terms']}")
        return 0
    if action == "clear":
        removed = 0
        for path in _cache_files(directory):
            try:
                path.unlink()
            except OSError as exc:
                raise CliError(3, f"cannot remove cache file {path}: {exc}")
            removed += 1
        print(f"removed {removed} cache file(s)")
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
        try:
            Path(args.path).write_text(
                json.dumps(cache_document(cache, n), sort_keys=True, indent=1) + "\n")
        except OSError as exc:
            raise CliError(3, f"cannot write {args.path}: {exc}")
        print(f"exported n={n} to {args.path}")
        return 0
    if action == "import":
        if not args.path:
            raise CliError(2, "cache import requires --path")
        cache = RecursionCache()
        _load_dir_into_cache(directory, cache)
        try:
            doc = json.loads(Path(args.path).read_text(encoding="utf-8"))
        except (ValueError, OSError) as exc:
            raise CliError(3, f"cannot read {args.path}: {exc}")
        try:
            n = load_cache_document(doc, cache)
        except CacheFormatError as exc:
            raise CliError(3, str(exc))
        _save_cache_to_dir(directory, cache, cache.variable_counts())
        print(f"imported n={n} from {args.path}")
        return 0
    raise CliError(2, f"unknown cache action {action!r}")


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
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
    p_compute.add_argument("--format", choices=["json", "text", "latex"], default="text")
    p_compute.add_argument("--lambda", dest="lam", required=True,
                           help="comma-separated parts, e.g. 2,1,0")
    p_compute.add_argument("--n", type=int, required=True, help="number of variables")
    p_compute.add_argument("--basis", choices=["monomial-of-x", "m", "m-tilde"],
                           default=None,
                           help="defaults to monomial-of-x for F/E and m for J/P")

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run one verification sweep")
    p_verify.add_argument("check", choices=CHECK_NAMES)
    p_verify.add_argument("--format", choices=["json", "text"], default="text")
    p_verify.add_argument("--n-max", type=int, default=3)
    p_verify.add_argument("--deg-max", type=int, default=4)
    p_verify.add_argument("--k-list", default="1,2",
                          help="reciprocal alpha values for the pairing")

    p_cache = sub.add_parser("cache", parents=[common],
                             help="inspect or move the recursion cache")
    p_cache.add_argument("action", choices=["stats", "clear", "export", "import"])
    p_cache.add_argument("--format", choices=["json", "text"], default="text")
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
