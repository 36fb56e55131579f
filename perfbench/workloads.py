"""The benchmark's workloads: seeded inputs, one operation, and its correctness gate.

Each workload runs as a closed loop with one client: the runner issues the
next operation only after the previous one returns.  An operation calls
``hochlat``'s public functions, never the CLI, and returns the list of checks
it failed, so a wrong answer counts as a failed operation and does not show
up only as a slower one.

Constructing a workload performs the first ``import hochlat`` of the process,
so the runner times set-up from before that import until the inputs are
ready.  Functions under test are looked up on their module at call time, so
that a tracer's wrappers are the ones called; the references an operation
is checked against are bound at set-up, before any tracer is installed.
"""

from __future__ import annotations

import random
import sys

# The 14 bundles of ``hochlat.checks``; an operation of battery-n7 calls
# ``check_<bundle>`` for each, whatever bound the registry gives it.
BUNDLES = (
    "cardinality",
    "lattice_law",
    "structure",
    "doubling",
    "galois",
    "mo_reconstruction",
    "cjc",
    "sigma",
    "shuffle_stats",
    "m_triangle",
    "f_triangle",
    "h_triangle",
    "faces",
    "baselines",
)


def triword_total(n):
    """Closed element count of Hoch(n), n >= 2: 2^(n-2) (n+3)."""
    return 2 ** (n - 2) * (n + 3)


def cover_total(n):
    """Closed cover count of Hoch(n), n >= 3: 2^(n-3) n (n+3)."""
    return 2 ** (n - 3) * n * (n + 3)


def lru_caches():
    """Every ``functools.lru_cache`` function of the loaded hochlat modules."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name != "hochlat" and not name.startswith("hochlat."):
            continue
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)) and hasattr(value, "cache_info"):
                found[id(value)] = value
    return list(found.values())


class Workload:
    """One workload: ``__init__`` builds the inputs, ``operation`` runs one op."""

    name = ""

    def __init__(self, seed):
        import hochlat  # noqa: F401  (set-up is timed from before this import)

        self.seed = seed
        self.caches = lru_caches()

    def clear_caches(self):
        """Make the next operation do the cold work one ``hochlat`` invocation does."""
        for fn in self.caches:
            fn.cache_clear()

    def operation(self):
        """Run one operation; return the names of the checks it failed."""
        raise NotImplementedError


class Battery(Workload):
    name = "battery-n7"
    n = 7

    def __init__(self, seed):
        super().__init__(seed)
        from hochlat import checks

        self.checks = checks

    def operation(self):
        return [b for b in BUNDLES if getattr(self.checks, "check_" + b)(self.n) is not True]


class Build(Workload):
    name = "build-n10"
    n = 10
    pairs = 2000

    def __init__(self, seed):
        super().__init__(seed)
        from hochlat import hochschild

        self.hochschild = hochschild
        self.join_ref = hochschild.hoch_join
        self.meet_ref = hochschild.hoch_meet
        rng = random.Random(seed)
        m = triword_total(self.n)
        self.sample = [(rng.randrange(m), rng.randrange(m)) for _ in range(self.pairs)]

    def operation(self):
        h = self.hochschild.build_hoch(self.n)
        lat = h.lattice
        failures = []
        if lat.n != triword_total(self.n):
            failures.append(f"element count {lat.n}")
        if len(lat.covers) != cover_total(self.n):
            failures.append(f"cover count {len(lat.covers)}")
        if failures:
            return failures
        for a, b in self.sample:
            u, v = h.triword(a), h.triword(b)
            if h.triword(lat.join_of(a, b)) != self.join_ref(u, v):
                return [f"join of elements {a} and {b}"]
            if h.triword(lat.meet_of(a, b)) != self.meet_ref(u, v):
                return [f"meet of elements {a} and {b}"]
        return []


def _disagreeing(routes):
    """Names of the routes whose value differs from the last (closed) one."""
    want = list(routes.values())[-1]
    return [name for name, value in routes.items() if value != want]


class Words(Workload):
    name = "words-n10"
    n = 10

    def __init__(self, seed):
        super().__init__(seed)
        from hochlat import hochschild, shuffles, triangles

        self.hochschild = hochschild
        self.shuffles = shuffles
        self.triangles = triangles

    def operation(self):
        n, t, hs, sh = self.n, self.triangles, self.hochschild, self.shuffles
        failures = _disagreeing(
            {"f_from_m": t.f_from_m(n), "f_tilde": t.f_tilde(n), "f_closed": t.f_closed(n)}
        )
        failures += _disagreeing(
            {
                "h_from_m": t.h_from_m(n),
                "h_tilde": t.h_tilde(n),
                "h_from_antichains": t.h_from_antichains(n),
                "h_closed": t.h_closed(n),
            }
        )
        words = hs.enumerate_triwords(n)
        if len(set(words)) != triword_total(n) or len(words) != triword_total(n):
            return failures + [f"triword count {len(words)}"]
        for u in words:
            if sh.sigma_inverse(n, sh.sigma(u)) != u:
                return failures + [f"sigma round trip at {u}"]
            if hs.psi_inverse(n, hs.core_labels_formula(u)) != u:
                return failures + [f"psi round trip at {u}"]
        return failures


WORKLOADS = {w.name: w for w in (Battery, Build, Words)}
