"""Write pool.json: the candidate requests of every workload slot and the
reference output of every request a seed can generate.

Run from the repository root, at the commit whose outputs are the reference:

    python3 perfbench/record.py

References are taken by calling ``jackpoly.cli.main`` in-process with stdout
captured; the benchmark then checks every request it sends to the real CLI
against them, so a mismatch between the two shows as failed requests.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from jackpoly.cli import main as cli_main  # noqa: E402
from jackpoly.compositions import compositions, partitions, star_shape  # noqa: E402
from jackpoly.recursion import RecursionCache, f_poly  # noqa: E402

import workloads as wl  # noqa: E402

# Compositions sampled per (n, degree), and the quantile of their F term
# counts that compute-nonsym targets.
NONSYM_SAMPLE = 120
NONSYM_QUANTILE = 0.75


def _csv(parts) -> str:
    return ",".join(str(x) for x in parts)


def _compute(kind: str, lam, n: int) -> list[str]:
    return ["compute", kind, "--lambda", _csv(lam), "--n", str(n)]


def _quantile_compositions(n: int, degree: int, q: float,
                           keep: int) -> list[tuple[int, ...]]:
    """The ``keep`` compositions of a fixed sample whose F term counts are
    nearest the sample's q-quantile (ties broken by the composition itself)."""
    comps = list(compositions(n, degree))
    rng = random.Random(f"{n}:{degree}")
    sample = rng.sample(comps, min(NONSYM_SAMPLE, len(comps)))
    sized = sorted((len(f_poly(c, RecursionCache()).terms), c) for c in sample)
    target = sized[int(q * (len(sized) - 1))][0]
    sized.sort(key=lambda t: (abs(t[0] - target), t[1]))
    return [c for _, c in sized[:keep]]


def _star(lam: tuple[int, ...], times: int) -> tuple[int, ...]:
    for _ in range(times):
        lam = star_shape(lam)
    return lam


def _sym_partitions(degree: int, length: int, n: int) -> list[tuple[int, ...]]:
    """Partitions of a compute-sym slot: those whose F, padded as the J/P
    route pads it, has a term count near the median of the slot."""
    sized = [(len(f_poly(lam + (0,) * n, RecursionCache()).terms), lam)
             for lam in partitions(degree) if len(lam) == length]
    median = sorted(t for t, _ in sized)[len(sized) // 2]
    return [lam for t, lam in sized if abs(t - median) <= wl.SYM_TERMS_TOLERANCE * median]


def build_slots() -> dict:
    sym = []
    for kind, degree, length, n, bases, *fixed in wl.SYM_SLOTS:
        lams = fixed[0] if fixed else _sym_partitions(degree, length, n)
        sym.append({
            "requests": [_compute(kind, lam, n) for lam in lams],
            "bases": list(bases),
            "formats": list(wl.COMPUTE_FORMATS),
        })
    nonsym = []
    for kind, n, degree, *opts in wl.NONSYM_SLOTS:
        keep = opts[0] if opts else wl.NONSYM_CANDIDATES
        nonsym.append({
            "requests": [_compute(kind, c, n)
                         for c in _quantile_compositions(n, degree, NONSYM_QUANTILE, keep)],
            "formats": list(opts[1] if len(opts) > 1 else wl.COMPUTE_FORMATS),
        })
    verify = [{
        "requests": [["verify", check, "--n-max", str(n), "--deg-max", str(d)]],
        "formats": list(wl.VERIFY_FORMATS),
    } for check, n, d in wl.VERIFY_BATTERY]
    cache = []
    for group in wl.CACHE_GROUPS:
        choices = []
        if group[0] == "nonsym":
            _, n, degree, write, reads, *keep = group
            for c in _quantile_compositions(n, degree, 0.5, *keep or [wl.NONSYM_CANDIDATES]):
                read_argv = [_compute(k.rstrip("*"), _star(c, k.count("*")), n) for k in reads]
                choices.append({"write": _compute(write, c, n), "reads": read_argv})
        elif group[0] == "sym":
            _, degree, length, n, write, reads, *fixed = group
            for lam in fixed[0] if fixed else _sym_partitions(degree, length, n):
                choices.append({
                    "write": _compute(write, lam, n) + ["--basis", "m"],
                    "reads": [_compute(k, lam, n) + ["--basis", "m" if k != write else "m-tilde"]
                              for k in reads],
                })
        else:
            _, repeats = group
            setup = list(wl.SETUP_ARGV)
            choices.append({"write": setup, "reads": [setup] * (repeats - 1)})
        cache.append(choices)
    return {"compute-sym": sym, "compute-nonsym": nonsym,
            "verify-sweeps": verify, "cache-dir": cache}


def reference(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli_main(argv)
    out = buf.getvalue().encode()
    ref = {"sha256": hashlib.sha256(out).hexdigest(), "exit": rc, "bytes": len(out)}
    if argv[0] == "verify":
        ref["cases"] = [cases for _, cases in wl.verify_verdicts(out)]
    return ref


def _commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    pool = {"recorded_at": _commit(), "workloads": build_slots(), "refs": {}}
    requests = wl.all_requests(pool) + [list(wl.SETUP_ARGV)]
    for i, argv in enumerate(requests):
        key = wl.ref_key(argv)
        if key not in pool["refs"]:
            pool["refs"][key] = reference(argv)
        if i % 100 == 0:
            print(f"{i}/{len(requests)} {key}", file=sys.stderr, flush=True)
    wl.POOL_FILE.write_text(json.dumps(pool, indent=1, sort_keys=True) + "\n")
    print(f"wrote {wl.POOL_FILE} with {len(pool['refs'])} references", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
