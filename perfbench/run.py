"""The jackpoly benchmark: drive the real CLI, one child process per request.

    python3 perfbench/run.py --workload compute-sym --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each request is a fresh ``python -m
jackpoly.cli`` child with ``src`` on PYTHONPATH, sent one at a time from this
process (a closed loop with one client), so every request pays interpreter
start-up and a cold in-process memo, as a CLI user does.  Every output is
checked against the references in ``pool.json``.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes one
untraced pass and then traced passes (``tracer.py`` in each child) and
reports the per-layer metrics.  ``--workload all`` runs the four workloads in
turn and prints one table.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import workloads as wl
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# No-work requests timed for setup_s: before the first pass, and after each.
SETUP_BEFORE = 3
SETUP_AFTER_PASS = 2
MIN_TRACED_PASSES = 2
# Counts that must repeat exactly between two traced passes of one request list.
EXACT_COUNTS = (
    "recursion.steps", "recursion.terms_out", "alphapoly.poly_ops",
    "alphapoly.frac_new", "alphapoly.gcd_calls", "alphapoly.exact_div_calls",
    "tableaux.enumerated", "verify.cases", "cli.cache.entries_loaded",
)
POLY_OPS = tuple(f"alphapoly.AlphaPoly.{op}" for op in
                 ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"))


class Request:
    __slots__ = ("argv", "wall", "cpu", "rss_kb", "rc", "stdout_bytes", "error")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("JACKPOLY_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_request(argv, env, errfile, trace_file=None) -> tuple[Request, bytes]:
    """Run one child to completion: its wall time, its own rusage and its
    stdout.  (On Linux a child's ru_maxrss also covers this parent's peak
    RSS at fork time, so this process keeps no outputs.)"""
    if trace_file is None:
        cmd = [sys.executable, "-m", "jackpoly.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "tracer.py"), str(trace_file), *argv]
    errfile.seek(0)
    errfile.truncate()
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=errfile, env=env, cwd=ROOT)
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    req = Request()
    req.wall = perf_counter() - t0
    proc.returncode = req.rc = os.waitstatus_to_exitcode(status)
    req.argv = argv
    req.cpu = usage.ru_utime + usage.ru_stime
    req.rss_kb = usage.ru_maxrss
    req.stdout_bytes = len(out)
    req.error = None
    return req, out


def check(req: Request, out: bytes, refs: dict) -> None:
    """Set req.error when the output differs from the recorded reference."""
    ref = refs.get(wl.ref_key(req.argv))
    if ref is None:
        req.error = "no reference recorded for this request"
    elif req.rc != ref["exit"]:
        req.error = f"exit code {req.rc}, reference {ref['exit']}"
    elif hashlib.sha256(out).hexdigest() != ref["sha256"]:
        req.error = "stdout differs from the reference"
    elif req.argv[0] == "verify":
        verdicts = wl.verify_verdicts(out)
        if not all(passed for passed, _ in verdicts):
            req.error = "verify did not report PASS"
        elif [cases for _, cases in verdicts] != ref["cases"]:
            req.error = f"verify cases {verdicts}, reference {ref['cases']}"


class Runner:
    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seconds = seconds
        pool = wl.load_pool()
        self.refs = pool["refs"]
        self.requests = wl.generate(pool, workload, seed)
        self.env = child_env()
        self.done: list[Request] = []
        self.setup_times: list[float] = []
        OUT.mkdir(exist_ok=True)
        self.scratch = tempfile.mkdtemp(prefix="run-", dir=OUT)
        self.errfile = tempfile.TemporaryFile(dir=self.scratch)

    def close(self) -> None:
        self.errfile.close()
        shutil.rmtree(self.scratch)

    def request(self, argv, trace_file=None) -> Request:
        req, out = run_request(argv, self.env, self.errfile, trace_file)
        check(req, out, self.refs)
        if req.error:
            self.errfile.seek(0)
            tail = self.errfile.read()[-400:].decode(errors="replace").strip()
            print(f"FAILED {' '.join(argv)}: {req.error} {tail}", file=sys.stderr)
        return req

    def warm_up(self) -> None:
        """One no-work request, untimed: lets the interpreter write its
        bytecode cache before anything is timed."""
        self.done.append(self.request(list(wl.SETUP_ARGV)))

    def sample_setup(self, repeats: int) -> None:
        for _ in range(repeats):
            req = self.request(list(wl.SETUP_ARGV))
            self.done.append(req)
            self.setup_times.append(req.wall)

    def one_pass(self, trace_dir: Path | None = None) -> tuple[float, list[Request]]:
        """One closed-loop pass and its wall time: the sum of its requests'
        wall times.  cache-dir gets a fresh cache directory for each pass;
        all of them are removed when the run ends."""
        argvs = self.requests
        if self.workload == "cache-dir":
            cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.scratch)
            argvs = [argv + ["--cache-dir", cache_dir] for argv in argvs]
        reqs = []
        for i, argv in enumerate(argvs):
            trace_file = None if trace_dir is None else trace_dir / f"r{i:03d}.json"
            reqs.append(self.request(argv, trace_file))
        self.done += reqs
        return sum(r.wall for r in reqs), reqs

    def passes(self) -> list:
        """Passes until --seconds is used up, and at least MIN_PASSES.  The
        no-work requests for setup_s are spread over the run, before the
        first pass and after each one, so that they see the same machine."""
        out = []
        self.sample_setup(SETUP_BEFORE)
        start = perf_counter()
        while len(out) < wl.MIN_PASSES or (
                perf_counter() - start + statistics.median(w for w, _ in out) <= self.seconds):
            out.append(self.one_pass())
            self.sample_setup(SETUP_AFTER_PASS)
        return out


# -- end-to-end metrics ----------------------------------------------------------


def end_to_end(runner: Runner, passes) -> tuple[dict, list[str]]:
    walls = [r.wall for _, reqs in passes for r in reqs]
    pct = wl.tail_percentile(len(runner.requests))
    tail = statistics.quantiles(walls, n=100, method="inclusive")[pct - 1]
    metrics = {
        "setup_s": (statistics.median(runner.setup_times), "s"),
        "wall_s": (statistics.median(w for w, _ in passes), "s"),
        "cpu_s": (statistics.median(sum(r.cpu for r in reqs) for _, reqs in passes), "s"),
        "request_s.p50": (statistics.median(walls), "s"),
        "request_s.tail": (tail, "s"),
        "peak_rss_mb": (statistics.median(max(r.rss_kb for r in reqs) for _, reqs in passes)
                        / 1024, "MB"),
    }
    above = sum(1 for w in walls if w > tail)
    parent_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    notes = [f"request_s.tail is p{pct} of {len(walls)} requests "
             f"({above} above it), {len(passes)} passes of {len(runner.requests)}",
             f"setup_s is the median of {len(runner.setup_times)} no-work requests",
             f"peak RSS of this parent {parent_kb / 1024:.1f} MB (a floor under peak_rss_mb)"]
    return metrics, notes


# -- per-layer metrics ------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traces: list[dict], stdout_bytes: int) -> dict:
    """Per-layer metrics of one traced pass, from its request traces."""
    busy = {layer: 0.0 for layer in LAYERS}
    calls, stats, incl = {}, {}, {}
    sym_f_terms = 0
    for doc in traces:
        for layer, s in doc["busy"].items():
            busy[layer] += s
        for src, dst in ((doc["calls"], calls), (doc["stats"], stats), (doc["inclusive"], incl)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
        if doc["stats"].get("sym_coeffs"):
            sym_f_terms += doc["stats"].get("sym_f_terms", 0)
    c = lambda k: calls.get(k, 0)  # noqa: E731
    st = lambda k: stats.get(k, 0)  # noqa: E731
    sweep_s = sum(v for k, v in incl.items() if k.startswith("verify."))
    hits, misses = st("cache_hits"), st("cache_misses")
    m = {f"{layer}.busy_s": (busy[layer], "s") for layer in LAYERS}
    m.update({
        "recursion.steps": (st("steps"), "count"),
        "recursion.terms_out": (st("terms_out"), "count"),
        "recursion.cache.hits": (hits, "count"),
        "recursion.cache.misses": (misses, "count"),
        "recursion.cache.hit_ratio": (_ratio(hits, hits + misses), "ratio"),
        "alphapoly.poly_ops": (sum(c(k) for k in POLY_OPS), "count"),
        "alphapoly.frac_new": (c("alphapoly.AlphaFrac.__init__"), "count"),
        "alphapoly.gcd_calls": (c("alphapoly.poly_gcd"), "count"),
        "alphapoly.exact_div_calls": (c("alphapoly.exact_poly_div"), "count"),
        "mpoly.divided_transposition.calls": (c("mpoly.divided_transposition"), "count"),
        "mpoly.act.calls": (c("mpoly.MPoly.act"), "count"),
        "symmetric.expand_s": (incl.get("symmetric.expand_monomial", 0.0), "s"),
        "symmetric.useful_ratio": (_ratio(st("sym_coeffs"), sym_f_terms), "ratio"),
        "tableaux.enumerated": (st("tableaux_items"), "count"),
        "cherednik.xi_apply.calls": (c("cherednik.xi_apply"), "count"),
        "cherednik.pairings": (c("cherednik.scalar_product") + c("cherednik.monomial_pairing"),
                               "count"),
        "verify.cases": (st("verify_cases"), "count"),
        "verify.cases_per_s": (_ratio(st("verify_cases"), sweep_s), "1/s"),
        "render.bytes_out": (stdout_bytes, "B"),
        "cli.cache.load_s": (incl.get("cli._load_dir_into_cache", 0.0), "s"),
        "cli.cache.save_s": (incl.get("cli._save_cache_to_dir", 0.0), "s"),
        "cli.cache.bytes_read": (st("cache_bytes_read"), "B"),
        "cli.cache.bytes_written": (st("cache_bytes_written"), "B"),
        "cli.cache.entries_loaded": (st("entries_loaded"), "count"),
        "cli.cache.useful_ratio": (_ratio(hits, st("entries_loaded")), "ratio"),
    })
    return m


def traced(runner: Runner) -> tuple[dict, list[str], bool]:
    """One untraced pass for the overhead, then traced passes."""
    untraced_wall, _ = runner.one_pass()
    trace_dir = OUT / "trace" / runner.workload
    trace_dir.mkdir(parents=True, exist_ok=True)
    per_pass = []
    ok = True
    notes = []
    start = perf_counter()
    while len(per_pass) < MIN_TRACED_PASSES or (
            perf_counter() - start + per_pass[-1][0] <= runner.seconds):
        for stale in trace_dir.glob("r*.json"):
            stale.unlink()
        wall, reqs = runner.one_pass(trace_dir)
        traces = []
        for i, req in enumerate(reqs):
            path = trace_dir / f"r{i:03d}.json"
            if not path.is_file():
                req.error = req.error or "the tracer wrote no trace"
                continue
            doc = json.loads(path.read_text())
            gap = abs(sum(doc["busy"].values()) - doc["root_s"])
            if gap > 1e-6 * max(1.0, doc["root_s"]):
                ok = False
                notes.append(f"busy times of request {i} miss its root span by {gap:.3g} s")
            traces.append(doc)
        per_pass.append((wall, layer_metrics(traces, sum(r.stdout_bytes for r in reqs))))
    first = per_pass[0][1]
    for _, m in per_pass[1:]:
        for name in EXACT_COUNTS:
            if m[name][0] != first[name][0]:
                ok = False
                notes.append(f"{name} differs between traced passes: "
                             f"{first[name][0]} vs {m[name][0]}")
    metrics = {}
    for name, (_, unit) in first.items():
        values = [m[name][0] for _, m in per_pass]
        same = all(v == values[0] for v in values)
        metrics[name] = (values[0] if same else statistics.median(values), unit)
    traced_wall = statistics.median(w for w, _ in per_pass)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    notes.append(f"tracing overhead: traced pass {traced_wall:.3f} s - untraced pass "
                 f"{untraced_wall:.3f} s = {traced_wall - untraced_wall:.3f} s "
                 f"({len(per_pass)} traced passes)")
    return metrics, notes, ok


# -- reporting --------------------------------------------------------------------


def environment(workload: str, seed: int, seconds: float, load_start: float) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "jackpoly").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "confirmation_seed": wl.CONFIRMATION_SEED,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "loadavg_1m_start": load_start, "loadavg_1m_end": os.getloadavg()[0],
        "commit": commit, "src_sha256": digest.hexdigest(),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    load_start = os.getloadavg()[0]
    runner = Runner(workload, seed, seconds)
    try:
        runner.warm_up()
        if trace:
            metrics, notes, ok = traced(runner)
        else:
            metrics, notes = end_to_end(runner, runner.passes())
            ok = True
    finally:
        runner.close()
    failed = sum(1 for r in runner.done if r.error)
    attempted = len(runner.done)
    notes.append(f"failed_frac {failed}/{attempted} = {failed / attempted:.4f}")
    result = {
        "env": environment(workload, seed, seconds, load_start),
        "correct": ok and failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
        "requests": [{"argv": r.argv, "wall": r.wall, "cpu": r.cpu, "rss_kb": r.rss_kb,
                      "rc": r.rc, "bytes": r.stdout_bytes, "error": r.error}
                     for r in runner.done],
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{workload}-seed{seed}-trace{int(trace)}.json"
    (results / name).write_text(json.dumps(result, indent=1) + "\n")
    return result


def print_table(result: dict) -> None:
    env = result["env"]
    print(f"# {env['workload']} seed={env['seed']} python={env['python']} "
          f"nproc={env['nproc']} load1m={env['loadavg_1m_start']:.2f}->"
          f"{env['loadavg_1m_end']:.2f} commit={env['commit'][:12]} "
          f"src={env['src_sha256'][:12]}")
    for name, m in result["metrics"].items():
        print(f"{env['workload']:16s} {name:36s} {m['value']:14.6g} {m['unit']}")
    for note in result["notes"]:
        print(f"{env['workload']:16s} # {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*wl.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=wl.DEVELOPMENT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "jackpoly" / "cli.py").is_file():
        print(f"perfbench: no jackpoly package under {SRC}; run from a repository "
              "checkout", file=sys.stderr)
        return 2
    if not wl.POOL_FILE.is_file():
        print(f"perfbench: missing {wl.POOL_FILE}; run perfbench/record.py", file=sys.stderr)
        return 2
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_table(result)
        results.append(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['env']['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
