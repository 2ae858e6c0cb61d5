"""Workload definitions and seeded request generation.

Each workload is a list of slots.  A slot holds interchangeable requests of
similar cost, so that every seed does about the same amount of work and the
spread between seeds stays small.  A seed picks one request per slot, an
output format and a J/P basis where the slot allows a choice, and the order
of the requests.  Every request a seed can produce has a reference
(stdout digest, exit code, verify cases) in ``pool.json``, which
``record.py`` writes from the program at the commit the benchmark was
defined on.  Generation reads only ``pool.json``; the program receives only
the generated argv.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

POOL_FILE = Path(__file__).resolve().parent / "pool.json"

WORKLOADS = ("compute-sym", "compute-nonsym", "verify-sweeps", "cache-dir")

COMPUTE_FORMATS = ("text", "json", "latex")
VERIFY_FORMATS = ("text", "json")
EXPANSION_BASES = ("m", "m-tilde")

# Seeds: tune and compare with DEVELOPMENT_SEED (and others) while a change
# is written; confirm a claimed gain on CONFIRMATION_SEED, which is kept out
# of all work on the change itself.
DEVELOPMENT_SEED = 1
CONFIRMATION_SEED = 7919

# The no-work request whose wall time is setup_s: interpreter start,
# ``import jackpoly`` and argument parsing.
SETUP_ARGV = ("compute", "F", "--lambda", "1,0", "--n", "2")

# compute-sym: (kind, degree, partition length, n, bases[, partitions]).
# The J/P route builds F in n + length variables and then restricts it, so
# cost is set mainly by (degree, length, n).  record.py keeps the partitions
# of a slot whose padded F has a term count near the slot's median, and the
# seed picks among them.  The three heaviest slots name one partition each:
# they set request_s.tail and peak_rss_mb, which must not depend on the seed.
SYM_SLOTS = (
    ("J", 5, 2, 4, EXPANSION_BASES),
    ("P", 5, 3, 5, EXPANSION_BASES),
    ("J", 5, 3, 8, EXPANSION_BASES),
    ("P", 5, 2, 8, ("monomial-of-x",)),
    ("J", 6, 2, 6, EXPANSION_BASES),
    ("P", 6, 3, 5, EXPANSION_BASES),
    ("J", 6, 3, 8, EXPANSION_BASES),
    ("P", 6, 4, 8, EXPANSION_BASES),
    ("J", 6, 2, 8, ("monomial-of-x",)),
    ("P", 6, 3, 6, ("monomial-of-x",)),
    ("J", 7, 2, 5, EXPANSION_BASES),
    ("P", 7, 3, 6, EXPANSION_BASES),
    ("J", 7, 3, 8, EXPANSION_BASES),
    ("P", 7, 4, 7, EXPANSION_BASES),
    ("J", 7, 2, 8, ("monomial-of-x",)),
    ("P", 7, 2, 7, EXPANSION_BASES),
    ("J", 8, 2, 6, EXPANSION_BASES),
    ("P", 8, 3, 5, EXPANSION_BASES),
    ("J", 8, 3, 8, EXPANSION_BASES, ((3, 3, 2),)),
    ("P", 8, 3, 7, EXPANSION_BASES, ((4, 3, 1),)),
    ("J", 8, 4, 6, EXPANSION_BASES),
    ("P", 8, 2, 8, EXPANSION_BASES, ((5, 3),)),
    ("J", 8, 2, 7, ("monomial-of-x",)),
    ("P", 8, 4, 5, EXPANSION_BASES),
)
# Share of the slot median by which a partition's padded-F term count may
# differ and still be a candidate.
SYM_TERMS_TOLERANCE = 0.25

# compute-nonsym: (kind, n, degree[, candidates[, formats]]).  Cost varies
# widely between the compositions of one (n, degree), so record.py keeps, per
# slot, the compositions whose F term count sits nearest the upper quartile
# of a fixed sample: large enough that computing and rendering, not start-up,
# is most of the request.  The three heaviest slots keep one composition
# each and always print JSON, so that request_s.tail does not depend on the
# seed; JSON also needs the most memory, so the heaviest of them sets
# peak_rss_mb for every seed.
NONSYM_SLOTS = (
    ("F", 4, 8), ("E", 4, 8), ("F", 5, 7), ("E", 5, 7),
    ("F", 5, 8), ("E", 5, 8), ("F", 6, 6), ("E", 6, 6),
    ("F", 6, 8), ("E", 6, 8), ("F", 7, 6), ("E", 7, 6),
    ("F", 7, 7), ("E", 7, 7), ("F", 7, 8), ("E", 7, 8, 1, ("json",)),
    ("F", 8, 5), ("E", 8, 5), ("F", 8, 6), ("E", 8, 6),
    ("F", 8, 7), ("E", 8, 7, 1, ("json",)), ("F", 8, 8), ("E", 8, 8, 1, ("json",)),
)
NONSYM_CANDIDATES = 5

# cache-dir: groups run in this fixed order and the computing groups use one
# shape each, so that the cache files, and with them peak_rss_mb, are the
# same for every seed.  The first request of a group writes the star chain of
# its shape; the others read it, in seeded order: a repeat, another kind over
# the same F, or a request on a shape further down the star chain ("E*" is E
# of the star shape, "E**" of its star shape), whose F is already cached.
# The last group is a no-work request that still loads and rewrites every
# cache file.  Every request rewrites every cache file, and on the machine
# the benchmark was defined on each rewrite waits ~60 ms for the disk, with a
# spread that drifts.  So the groups are few, and most requests are E/P
# requests whose normalisation is CPU work that the cache cannot save.
# Requests print text: the format would only move peak_rss_mb.
#   ("nonsym", n, degree, write kind, read kinds[, candidates])  or
#   ("sym", degree, length, n, write kind, read kinds[, partitions])  or
#   ("setup", repeats)
CACHE_GROUPS = (
    ("nonsym", 7, 8, "E", ("E", "E*", "E**"), 1),
    ("sym", 6, 3, 5, "P", ("P", "J"), ((3, 2, 1),)),
    ("setup", 1),
)
CACHE_FORMAT = "text"

# verify-sweeps: a fixed battery within the desk-scale guard.  It is the
# only workload that runs the tableau oracle, the Cherednik operators and
# divided differences.  The seed shuffles the order and picks the format.
VERIFY_BATTERY = (
    ("oracle-equivalence", 4, 6), ("oracle-equivalence", 4, 5),
    ("eigen", 4, 4), ("eigen", 3, 5),
    ("orthogonality", 4, 3), ("orthogonality", 3, 5),
    ("swap", 4, 5), ("swap", 5, 4),
    ("positivity", 5, 7), ("positivity", 7, 6),
    ("l2l3", 4, 5), ("l2l3", 3, 6),
)

# Every run makes at least this many passes, so that the tail percentile
# below is fixed per workload and does not move with the number of passes.
MIN_PASSES = 5


def tail_percentile(requests_per_pass: int) -> int:
    """The percentile reported as request_s.tail: the highest of 99, 95, 90,
    75, 50 that leaves at least ten requests above it in the shortest run."""
    samples = requests_per_pass * MIN_PASSES
    for p in (99, 95, 90, 75):
        if samples * (100 - p) / 100 >= 10:
            return p
    return 50


def ref_key(argv) -> str:
    """Reference key of a request: its argv without the per-pass cache dir."""
    argv = list(argv)
    if "--cache-dir" in argv:
        i = argv.index("--cache-dir")
        del argv[i:i + 2]
    return " ".join(argv)


def verify_verdicts(stdout: bytes) -> list[tuple[bool, int]]:
    """(passed, cases) of every verdict a verify request printed, in either
    output format."""
    text = stdout.decode()
    if text.lstrip().startswith("{"):
        return [(v["pass"], v["cases"]) for v in json.loads(text)["verdicts"]]
    out = []
    for line in text.splitlines():
        cases = [tok for tok in line.split() if tok.startswith("cases=")]
        out.append((line.startswith("PASS "), int(cases[0].split("=", 1)[1])))
    return out


def load_pool() -> dict:
    return json.loads(POOL_FILE.read_text())


def generate(pool: dict, workload: str, seed: int) -> list[list[str]]:
    """The request list (one pass) of a workload for a seed."""
    rng = random.Random(f"{workload}:{seed}")
    slots = pool["workloads"][workload]
    if workload == "cache-dir":
        requests = []
        for group in slots:
            choice = rng.choice(group)
            reads = list(choice["reads"])
            rng.shuffle(reads)
            for argv in [choice["write"]] + reads:
                requests.append(argv + ["--format", CACHE_FORMAT])
        return requests
    requests = []
    for slot in slots:
        argv = list(rng.choice(slot["requests"]))
        if slot.get("bases"):
            argv += ["--basis", rng.choice(slot["bases"])]
        argv += ["--format", rng.choice(slot["formats"])]
        requests.append(argv)
    rng.shuffle(requests)
    return requests


def all_requests(pool: dict) -> list[list[str]]:
    """Every request any seed can generate (cache dir omitted)."""
    out = []
    for workload, slots in pool["workloads"].items():
        if workload == "cache-dir":
            for group in slots:
                for choice in group:
                    for argv in [choice["write"]] + choice["reads"]:
                        out.append(argv + ["--format", CACHE_FORMAT])
            continue
        for slot in slots:
            for base in slot["requests"]:
                for basis in slot.get("bases") or [None]:
                    b = ["--basis", basis] if basis else []
                    out += [list(base) + b + ["--format", f] for f in slot["formats"]]
    return out
