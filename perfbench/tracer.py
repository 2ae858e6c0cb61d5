"""Run one jackpoly CLI request with per-layer tracing.

    python3 perfbench/tracer.py TRACE_OUT.json compute J --lambda 3,3,2 --n 8

The tracer wraps, from outside the package, the public functions and classes
of each layer module, rebinds every name that refers to an original
(including names imported with ``from .x import f``), then calls
``jackpoly.cli.main(argv)`` inside a root span.  Stdout and the exit code are
the CLI's own.  At exit it writes the trace to TRACE_OUT.json.

A span is opened only where a call crosses from one layer into another; a
call inside the same layer only counts.  Calls into ``alphapoly`` (the leaf
layer, up to a few 10^5 calls per request) are rolled up per parent span as
``{name: [calls, seconds]}`` instead of being stored one by one.  A layer's
busy time is its self time: span time minus the time of its child spans, so
the busy times of one request add up to the root span exactly.  Equality,
hashing and truth tests of coefficients are not wrapped and count as time of
their caller, as does the resumption of a wrapped generator.  The helper
modules ``compositions`` and ``permutations`` are not wrapped either: their
time counts toward the layer that calls them.  Requests run single-threaded
(no ``--threads``), which the one tracing stack assumes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

LAYERS = ("alphapoly", "mpoly", "recursion", "tableaux", "symmetric",
          "cherednik", "verify", "render", "cli")
LEAF_LAYER = "alphapoly"
ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__neg__", "__pow__")
# Constructors and comparisons that do real work (normalisation, cleaning).
EXTRA_METHODS = {"AlphaFrac": ("__init__",), "MPoly": ("__init__", "__eq__")}
# Cache file IO lives in recursion.py and cli.py; it is the cli layer's work.
LAYER_OF = {"recursion.load_cache_document": "cli", "recursion.cache_document": "cli"}


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.stats: Counter = Counter()
        self.inclusive: Counter = Counter()
        self.busy = {layer: 0.0 for layer in LAYERS}
        # frame: [layer, child seconds, span index, rollup dict or None]
        self.root = ["cli", 0.0, 0, None]
        self.stack = [self.root]
        self.spans: list = [None]
        self.loading = 0
        self.restricting = 0
        self._put_len = 0

    # -- wrapping ---------------------------------------------------------

    def wrap(self, fn, name, layer, before=None, after=None, timed=False):
        calls, stack, spans, busy = self.calls, self.stack, self.spans, self.busy
        inclusive = self.inclusive
        leaf = layer == LEAF_LAYER
        plain = before is None and after is None and not timed

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            parent = stack[-1]
            same = parent[0] == layer
            if same and plain:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            if same:
                t0 = perf_counter()
                result = fn(*args, **kwargs)
                t1 = perf_counter()
            else:
                frame = [layer, 0.0, len(spans), None]
                if not leaf:
                    spans.append(None)
                stack.append(frame)
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = perf_counter()
                    stack.pop()
                    dur = t1 - t0
                    busy[layer] += dur - frame[1]
                    parent[1] += dur
                    if leaf:
                        rollup = parent[3]
                        if rollup is None:
                            rollup = parent[3] = {}
                        entry = rollup.get(name)
                        if entry is None:
                            rollup[name] = [1, dur]
                        else:
                            entry[0] += 1
                            entry[1] += dur
                    else:
                        spans[frame[2]] = (name, t0, t1, parent[2], frame[3])
            if timed:
                inclusive[name] += t1 - t0
            if after is not None:
                after(result, args)
            return result

        return traced

    def wrap_generator(self, fn, name, stat):
        calls, stats = self.calls, self.stats

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            for item in fn(*args, **kwargs):
                stats[stat] += 1
                yield item

        return traced

    # -- hooks for the derived counters -------------------------------------

    def _get_after(self, result, args):
        self.stats["cache_hits" if result is not None else "cache_misses"] += 1

    def _put_before(self, args):
        self._put_len = len(args[0])

    def _put_after(self, result, args):
        if len(args[0]) == self._put_len:
            return
        if self.loading:
            self.stats["entries_loaded"] += 1
        else:
            self.stats["steps"] += 1
            self.stats["terms_out"] += len(args[2].terms)

    def _f_poly_after(self, result, args):
        if self.restricting:
            self.stats["sym_f_terms"] += len(result.terms)

    def _restrict_before(self, args):
        self.restricting += 1

    def _restrict_after(self, result, args):
        self.restricting -= 1

    def _expand_after(self, result, args):
        self.stats["sym_coeffs"] += len(result.entries)

    def _sweep_after(self, result, args):
        self.stats["verify_cases"] += getattr(result, "cases", 0)

    def _load_before(self, args):
        self.loading += 1

    def _load_after(self, result, args):
        self.loading -= 1

    def _read_after(self, result, args):
        if self.loading:
            self.stats["cache_bytes_read"] += len(result)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"jackpoly.{layer}") for layer in LAYERS}
        hooks = {
            "recursion.RecursionCache.get": {"after": self._get_after},
            "recursion.RecursionCache.put": {"before": self._put_before,
                                             "after": self._put_after},
            "recursion.f_poly": {"after": self._f_poly_after},
            "symmetric.j_via_restriction": {"before": self._restrict_before,
                                            "after": self._restrict_after},
            "symmetric.expand_monomial": {"after": self._expand_after, "timed": True},
        }
        for name in dir(modules["verify"]):
            fn = getattr(modules["verify"], name)
            if inspect.isfunction(fn) and fn.__module__ == "jackpoly.verify" \
                    and not name.startswith("_"):
                hooks[f"verify.{name}"] = {"after": self._sweep_after, "timed": True}
        hooks["cli._load_dir_into_cache"] = {"before": self._load_before,
                                             "after": self._load_after, "timed": True}
        hooks["cli._save_cache_to_dir"] = {"timed": True}

        replaced = {}
        for layer, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                key = f"{layer}.{attr}"
                if inspect.isfunction(value) and value.__module__ == mod.__name__ \
                        and (not attr.startswith("_") or key in hooks):
                    if inspect.isgeneratorfunction(value):
                        wrapped = self.wrap_generator(value, key, f"{attr}_items")
                    else:
                        wrapped = self.wrap(value, key, LAYER_OF.get(key, layer),
                                            **hooks.get(key, {}))
                    replaced[id(value)] = (value, wrapped)
                elif inspect.isclass(value) and value.__module__ == mod.__name__ \
                        and not issubclass(value, BaseException):
                    self._wrap_class(value, layer, hooks)
        # Rebind every alias of a wrapped function across the package.
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "jackpoly" and not mod_name.startswith("jackpoly."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

        read_text = Path.read_text
        Path.read_text = self.wrap(read_text, "cli.cache.read_text", "cli",
                                   after=self._read_after)

    def _wrap_class(self, cls, layer, hooks) -> None:
        extra = EXTRA_METHODS.get(cls.__name__, ())
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ARITHMETIC and attr not in extra:
                continue
            key = f"{layer}.{cls.__name__}.{attr}"
            opts = hooks.get(key, {})
            if isinstance(value, classmethod):
                setattr(cls, attr, classmethod(self.wrap(value.__func__, key, layer, **opts)))
            elif isinstance(value, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(value.__func__, key, layer, **opts)))
            elif inspect.isfunction(value):
                setattr(cls, attr, self.wrap(value, key, layer, **opts))

    # -- the request --------------------------------------------------------

    def run(self, argv: list[str]) -> int:
        from jackpoly import cli

        t0 = perf_counter()
        try:
            rc = cli.main(argv)
        finally:
            t1 = perf_counter()
            self.busy["cli"] += (t1 - t0) - self.root[1]
            self.spans[0] = ("cli.main", t0, t1, -1, self.root[3])
            self.root_s = t1 - t0
            self.t0 = t0
        return rc

    def document(self, argv, rc, written: int) -> dict:
        t0 = self.t0
        spans = [[name, round(s - t0, 7), round(e - t0, 7), parent, rollup]
                 for name, s, e, parent, rollup in self.spans]
        stats = dict(self.stats)
        stats["cache_bytes_written"] = written
        return {
            "argv": argv, "rc": rc, "root_s": self.root_s, "busy": self.busy,
            "calls": dict(self.calls), "stats": stats,
            "inclusive": dict(self.inclusive), "spans": spans,
        }


def _cache_dir(argv: list[str]) -> Path | None:
    if "--cache-dir" in argv:
        return Path(argv[argv.index("--cache-dir") + 1])
    return None


def _snapshot(directory: Path | None) -> dict:
    if directory is None or not directory.is_dir():
        return {}
    out = {}
    for path in directory.iterdir():
        st = path.stat()
        out[path.name] = (st.st_size, st.st_mtime_ns, st.st_ino)
    return out


def main() -> int:
    out_path = Path(sys.argv[1])
    argv = sys.argv[2:]
    directory = _cache_dir(argv)
    before = _snapshot(directory)
    tracer = Tracer()
    tracer.install()
    rc = tracer.run(argv)
    sys.stdout.flush()
    after = _snapshot(directory)
    written = sum(st[0] for name, st in after.items() if before.get(name) != st)
    out_path.write_text(json.dumps(tracer.document(argv, rc, written), separators=(",", ":")))
    return rc


if __name__ == "__main__":
    sys.exit(main())
