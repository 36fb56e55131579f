"""Per-layer spans and counters for the traced run, recorded from outside hochlat.

The layers are hochlat's modules.  ``Tracer.install`` wraps each public
function named in ``GROUPS``: a module function is replaced in the module
that defines it and in every hochlat module that imports it by name (for
example ``checks.build_hoch`` and ``hochschild.as_lattice``); a method is
replaced on its class.  ``Tracer.remove`` puts every original back, so an
untraced operation runs the unmodified code.

Wrappers come in three kinds:

- ``span``: timed, and a span record ``(id, parent, op, name, start, end)``
  is kept in memory;
- ``timed``: timed the same way but no record is kept, for functions called
  thousands of times per operation (word join/meet, Mobius, sigma, formulas,
  polynomial evaluation);
- ``count``: a call counter and nothing else, for ``BiPoly`` arithmetic,
  called about 10^5 times per operation; its time falls to the caller.

A group's self time is the time spent in its functions minus the time spent
in timed functions they call, so the self times of all groups plus the
operation's own residual add up to the operation's wall time.  A target
that no longer exists is listed in ``Tracer.missing`` and its group reads 0.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

from workloads import BUNDLES


def _lattice_sizes(sizes, lat):
    """Elements and table bytes (leq + join + meet) of a lattice just built."""
    sizes["lattice.as_lattice.elements"] += lat.n
    sizes["lattice.table_bytes"] += sum(
        getattr(a, "nbytes", 0) for a in (lat.poset.leq, lat.join, lat.meet)
    )


@dataclass(frozen=True)
class Group:
    """One layer metric prefix and the functions ("module:qualname") it covers."""

    name: str
    kind: str
    targets: tuple
    observe: object = None


_BIPOLY_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__", "__pow__")

GROUPS = (
    Group("poset.closure", "span", ("poset:FinitePoset.closure",)),
    Group("poset.from_leq", "span", ("poset:FinitePoset.from_leq",)),
    Group("poset.are_isomorphic", "span", ("poset:are_isomorphic",)),
    Group("poset.doubling", "span", ("poset:doubling",)),
    Group("poset.zeta", "span", ("poset:FinitePoset.zeta",)),
    Group("poset.mobius", "timed", ("poset:FinitePoset.mobius",)),
    Group("lattice.as_lattice", "span", ("lattice:as_lattice",), _lattice_sizes),
    Group(
        "lattice.semidistributive",
        "span",
        ("lattice:is_join_semidistributive", "lattice:is_meet_semidistributive"),
    ),
    Group("lattice.jsd_labeling", "span", ("lattice:jsd_labeling",)),
    Group("lattice.psi_map", "span", ("lattice:psi_map",)),
    Group("lattice.intersection", "span", ("lattice:has_intersection_property",)),
    Group("lattice.spherical", "span", ("lattice:is_spherical",)),
    Group("hochschild.build_hoch", "span", ("hochschild:build_hoch",)),
    Group("hochschild.build_hoch_by_doubling", "span", ("hochschild:build_hoch_by_doubling",)),
    Group("hochschild.word_ops", "timed", ("hochschild:hoch_join", "hochschild:hoch_meet")),
    Group(
        "hochschild.formulas",
        "timed",
        tuple(
            "hochschild:" + f
            for f in (
                "triword_count",
                "canrep_formula",
                "nucleus_formula",
                "core_labels_formula",
                "cover_label_formula",
                "irreducible_of_triword",
                "psi_inverse",
            )
        ),
    ),
    Group("galois.max_ortho_pairs_lattice", "span", ("galois:max_ortho_pairs_lattice",)),
    Group("complexes.cjc", "span", ("complexes:cjc",)),
    Group("complexes.shedding_witness", "timed", ("complexes:shedding_witness",)),
    Group("shuffles.clo", "span", ("shuffles:clo",)),
    Group("shuffles.shuffle_lattice", "span", ("shuffles:shuffle_lattice",)),
    Group("shuffles.sigma", "timed", ("shuffles:sigma", "shuffles:sigma_inverse")),
    Group("triangles.m_triangle", "span", ("triangles:m_triangle",)),
    Group("triangles.transforms", "span", ("triangles:f_transform", "triangles:h_transform")),
    Group("triangles.word_stats", "span", ("triangles:f_tilde", "triangles:h_tilde")),
    Group(
        "polynomials.interpolate",
        "timed",
        ("polynomials:interpolate_univariate", "polynomials:interpolate_from_grid"),
    ),
    Group("polynomials.eval_at", "timed", ("polynomials:BiPoly.eval_at",)),
    Group("polynomials.bipoly_ops", "count", tuple("polynomials:BiPoly." + op for op in _BIPOLY_OPS)),
) + tuple(Group("checks." + b, "span", ("checks:check_" + b,)) for b in BUNDLES)

# Metrics that count work; two traced operations must give them equal values.
COUNT_SUFFIXES = (".calls", ".elements", "table_bytes", ".hit_ratio")

# Groups whose inclusive time is reported (as "<group>.s"); the bundles never recurse.
INCLUSIVE = tuple(g.name for g in GROUPS if g.name.startswith("checks."))


def _hochlat_modules():
    return [m for name, m in sys.modules.items() if name == "hochlat" or name.startswith("hochlat.")]


class Tracer:
    """Installs the wrappers and collects per-operation counters and spans."""

    def __init__(self):
        self.stats = {g.name: [0, 0.0, 0.0] for g in GROUPS}  # calls, self_s, inclusive_s
        self.sizes = {"lattice.as_lattice.elements": 0, "lattice.table_bytes": 0}
        self.spans = []
        self.missing = []
        self._installed = []
        self._stack = [[0, 0.0, 0.0]]  # frames: [span id, start, time in timed children]
        self._next_id = [1]
        self._op = [0]
        self._build_hoch = None

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, group, fn):
        stat = self.stats[group.name]
        if group.kind == "count":

            def counted(*args, **kwargs):
                stat[0] += 1
                return fn(*args, **kwargs)

            return counted

        stack, spans, next_id, op = self._stack, self.spans, self._next_id, self._op
        keep = group.kind == "span"
        observe = group.observe
        sizes = self.sizes
        name = group.name

        def timed(*args, **kwargs):
            parent = stack[-1]
            frame = [next_id[0], perf_counter(), 0.0]
            next_id[0] += 1
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(sizes, result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - frame[1]
                parent[2] += elapsed
                stat[0] += 1
                stat[1] += elapsed - frame[2]
                stat[2] += elapsed
                if keep:
                    spans.append((frame[0], parent[0], op[0], name, frame[1], end))

        timed.__name__ = getattr(fn, "__name__", name)
        timed.__qualname__ = getattr(fn, "__qualname__", name)
        timed.__doc__ = getattr(fn, "__doc__", None)
        return timed

    def install(self):
        self.missing = []
        modules = _hochlat_modules()
        for group in GROUPS:
            for target in group.targets:
                modname, qualname = target.split(":")
                owner_name, _, attr = qualname.rpartition(".")
                try:
                    module = importlib.import_module("hochlat." + modname)
                    owner = getattr(module, owner_name) if owner_name else module
                    raw = inspect.getattr_static(owner, attr)
                except (ImportError, AttributeError):
                    self.missing.append(target)
                    continue
                if owner_name:
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(group, raw.__func__))
                    else:
                        wrapped = self._wrap(group, raw)
                    self._installed.append((owner, attr, raw))
                    setattr(owner, attr, wrapped)
                    continue
                if target == "hochschild:build_hoch":
                    self._build_hoch = raw
                wrapped = self._wrap(group, raw)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is raw:
                            self._installed.append((mod, name, raw))
                            setattr(mod, name, wrapped)

    def remove(self):
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    # -- one operation ----------------------------------------------------------

    @contextmanager
    def operation(self, op_id):
        """Trace one operation, with every counter starting from zero."""
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0]
        for key in self.sizes:
            self.sizes[key] = 0
        self._op[0] = op_id
        self.install()
        root = [self._next_id[0], perf_counter(), 0.0]
        self._next_id[0] += 1
        self._stack.append(root)
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.remove()
            self.last_elapsed = end - root[1]
            self.last_children = root[2]
            self.spans.append((root[0], 0, op_id, "op", root[1], end))

    def metrics(self):
        """Per-layer numbers of the last traced operation."""
        out = dict(self.sizes)
        for name, (calls, self_s, inclusive_s) in self.stats.items():
            out[name + ".calls"] = calls
            out[name + ".self_s"] = self_s
            if name in INCLUSIVE:
                out[name + ".s"] = inclusive_s
        cache_info = getattr(self._build_hoch, "cache_info", None)
        info = cache_info() if cache_info else None
        lookups = info.hits + info.misses if info else 0
        out["hochschild.build_hoch.hit_ratio"] = info.hits / lookups if lookups else 0.0
        attributed = sum(stat[1] for stat in self.stats.values())
        out["trace.attributed_s"] = attributed
        out["trace.residual_s"] = self.last_elapsed - self.last_children
        out["trace.op_s"] = self.last_elapsed
        # Self times add up to the operation time when the wrappers nest properly.
        out["trace.self_sum_error_s"] = abs(attributed - self.last_children)
        return out
