import hashlib
import inspect
import itertools
import random
import textwrap
from types import SimpleNamespace

import numpy as np
import pytest

from hochlat import checks, triangles
from hochlat import lattice as lattice_module
from hochlat.errors import (
    InvariantViolated,
    NoUniqueMin,
    NotALattice,
    NotBounded,
    NotGraded,
    NotSemidistributive,
)
from hochlat.hochschild import build_hoch
from hochlat.lattice import (
    as_lattice,
    build_bool,
    canonical_joinrep,
    clo,
    has_intersection_property,
    is_extremal,
    is_join_semidistributive,
    is_meet_semidistributive,
    is_semidistributive,
    is_spherical,
    jsd_labeling,
    psi_map,
)
from hochlat.poset import FinitePoset, _reach, doubling
from hochlat.shuffles import shuffle_lattice
from oracles import (
    canonical_joinreps_by_covers,
    closed_under_intersection,
    core_label_set,
    dual,
    from_leq_by_product,
    heights_by_queue,
    masks_embed_order,
)


def chain_lattice(k):
    return as_lattice(FinitePoset.closure([(i, i + 1) for i in range(k - 1)], k))


def pentagon():
    # 0 < 1 < 2 < 4, 0 < 3 < 4
    return as_lattice(FinitePoset.closure([(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)], 5))


def diamond(k):
    """Bottom, k incomparable middles, top."""
    covers = [(0, i) for i in range(1, k + 1)] + [(i, k + 1) for i in range(1, k + 1)]
    return as_lattice(FinitePoset.closure(covers, k + 2))


def hexagon():
    # weak order shape: 0 < 1 < 3 < 5 and 0 < 2 < 4 < 5
    return as_lattice(FinitePoset.closure([(0, 1), (1, 3), (3, 5), (0, 2), (2, 4), (4, 5)], 6))


def nucleus_shortcut_breaker():
    """Semidistributive.  The top 6 has nucleus 3 and core labels {1, 4}, while M(6) - M(3) is
    {1, 2, 4}: the label of 3 < 5 is 1, not 2, as 2_* = 1 is not below 3."""
    covers = [(0, 1), (0, 3), (1, 2), (2, 5), (3, 4), (3, 5), (4, 6), (5, 6)]
    return as_lattice(FinitePoset.closure(covers, 7))


def brute_lub(p, a, b):
    ubs = [c for c in range(p.n) if p.leq[a, c] and p.leq[b, c]]
    least = [u for u in ubs if all(p.leq[u, v] for v in ubs)]
    return least[0] if len(least) == 1 else None


def brute_glb(p, a, b):
    lbs = [c for c in range(p.n) if p.leq[c, a] and p.leq[c, b]]
    greatest = [u for u in lbs if all(p.leq[v, u] for v in lbs)]
    return greatest[0] if len(greatest) == 1 else None


def test_tables_match_brute_force_bounds():
    for lat in (chain_lattice(5), pentagon(), diamond(3), hexagon(), build_bool(3)):
        p = lat.poset
        for a in range(lat.n):
            for b in range(lat.n):
                assert lat.join_of(a, b) == brute_lub(p, a, b)
                assert lat.meet_of(a, b) == brute_glb(p, a, b)


def test_boolean_tables_are_bit_operations():
    lat = build_bool(4)
    for a in range(16):
        for b in range(16):
            assert lat.join_of(a, b) == a | b
            assert lat.meet_of(a, b) == a & b


def test_as_lattice_rejects_non_lattices_with_witness():
    # two incomparable joins for (1, 2): both 3 and 4 are minimal upper bounds
    p = FinitePoset.closure([(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)], 6)
    with pytest.raises(NotALattice) as err:
        as_lattice(p)
    assert err.value.pair is not None
    # unbounded: two maximal elements
    with pytest.raises(NotALattice):
        as_lattice(FinitePoset.closure([(0, 1), (0, 2)], 3))


def test_irreducibles_boolean():
    lat = build_bool(3)
    assert lat.join_irreducibles() == [1, 2, 4]
    assert lat.meet_irreducibles() == [3, 5, 6]
    assert lat.atoms() == [1, 2, 4]
    for j in lat.join_irreducibles():
        assert lat.j_star(j) == 0
    for m in lat.meet_irreducibles():
        assert lat.poset.upper_covers(m) == [7]


def test_extremal():
    assert is_extremal(build_bool(2))
    assert is_extremal(build_bool(3))
    assert is_extremal(chain_lattice(4))
    assert not is_extremal(diamond(3))
    # pentagon: join-irreducibles {1, 2, 3}, meet-irreducibles {1, 2, 3}, length 3
    lat = pentagon()
    assert len(lat.join_irreducibles()) == lat.poset.length() == 3
    assert is_extremal(lat)


def test_semidistributivity():
    assert is_semidistributive(build_bool(3))
    assert is_semidistributive(chain_lattice(4))
    assert is_semidistributive(pentagon())
    assert is_semidistributive(hexagon())
    assert not is_join_semidistributive(diamond(3))
    assert not is_meet_semidistributive(diamond(3))


def brute_jsd(p):
    """a v b = a v c implies a v (b ^ c) = a v b, over all triples (b, c vectorized per a), on the
    definitional bound tables of the lattice order p."""
    join, meet = first_common_bound(p.leq, p._topo), first_common_bound(p.leq.T, p._topo[::-1])
    for a in range(p.n):
        row = join[a]
        same = row[:, None] == row[None, :]
        if np.any(same & (row[meet] != row[:, None])):
            return False
    return True


def per_cover_labels(leq, row_of, covers):
    """The per-cover labeling, one np.nonzero and np.ix_ per cover: the oracle of _cover_labels."""
    labels = {}
    for a, b in covers:
        cands = np.nonzero(row_of(a) == b)[0]
        least = np.nonzero(leq[np.ix_(cands, cands)].all(axis=1))[0]
        if len(least) != 1:
            return None, (a, b)
        labels[(a, b)] = int(cands[least[0]])
    return labels, None


def closure_system_lattice(rng, points=5):
    """Subsets of range(points) closed under intersection, ordered by inclusion."""
    full = (1 << points) - 1
    sets = {full} | {rng.randrange(full + 1) for _ in range(rng.randrange(2, 7))}
    while True:
        more = {x & y for x in sets for y in sets} - sets
        if not more:
            break
        sets |= more
    sets = sorted(sets)
    leq = [[x & y == x for y in sets] for x in sets]
    return as_lattice(FinitePoset.from_leq(leq))


def oracle_lattices():
    yield from (build_bool(k) for k in range(5))
    yield from (diamond(2), diamond(3), pentagon(), hexagon())
    yield from (chain_lattice(k) for k in range(1, 5))
    yield from (build_hoch(n).lattice for n in range(1, 6))
    yield from (shuffle_lattice(a, b).lattice for a in range(4) for b in range(3))
    rng = random.Random(1)
    yield from (closure_system_lattice(rng) for _ in range(50))


def seeded_lattices():
    """oracle_lattices() and 300 more closure systems on 5 points, seed 2."""
    rng = random.Random(2)
    return list(oracle_lattices()) + [closure_system_lattice(rng) for _ in range(300)]


def test_semidistributivity_matches_brute_force():
    failing = 0
    for lat in oracle_lattices():
        join_sd, meet_sd = is_join_semidistributive(lat), is_meet_semidistributive(lat)
        assert join_sd == brute_jsd(lat.poset)
        assert meet_sd == brute_jsd(dual(lat.poset))
        assert is_semidistributive(lat) == (join_sd and meet_sd)
        failing += not (join_sd and meet_sd)
    assert failing >= 10


def test_cover_labels_match_per_cover_oracle():
    lattices = list(oracle_lattices()) + [build_hoch(n).lattice for n in range(6, 9)]
    lattices += [chain_lattice(65), diamond(64), diamond(65)]  # Python-int masks from 64 irreducibles on
    assert len(lattices) == 86
    failing = 0
    for lat in lattices:
        leq = lat.poset.leq
        join_side = (leq, lat.join, lat._lower, lat.covers, lat.poset._ends)
        meet_side = (leq.T, lat.meet, lat._upper, [(b, a) for a, b in lat.covers], lat.poset._ends[::-1])
        for side_leq, row_of, side, covers, ends in (join_side, meet_side):
            labels, bad = lattice_module._cover_labels(side, *ends)
            got = None if labels is None else dict(zip(covers, labels))
            assert (got, bad) == per_cover_labels(side_leq, row_of, covers)
            failing += got is None
    assert failing >= 10


def test_each_side_is_computed_once(monkeypatch):
    calls = []
    real = lattice_module._cover_labels

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(lattice_module, "_cover_labels", counted)
    lat = hexagon()
    for _ in range(3):
        is_semidistributive(lat)
        jsd_labeling(lat)
    assert len(calls) == 2


def test_spherical():
    assert is_spherical(build_bool(3))
    assert is_spherical(pentagon())
    assert not is_spherical(chain_lattice(3))
    with pytest.raises(NotSemidistributive):
        is_spherical(diamond(3))


def test_jsd_labeling_boolean_labels_are_atoms():
    lat = build_bool(3)
    labels = jsd_labeling(lat)
    for s, t in lat.covers:
        assert labels[(s, t)] == s ^ t  # the added bit


def test_jsd_labeling_no_unique_min_on_diamond():
    for route in (jsd_labeling, psi_map):
        with pytest.raises(NoUniqueMin, match=r"cover \(1, 4\) has no unique minimal join complement"):
            route(diamond(3))


def test_mobius_disagreeing_with_atoms_raises(monkeypatch):
    monkeypatch.setattr(FinitePoset, "mobius", lambda self, a, b: 2)
    with pytest.raises(InvariantViolated):
        is_spherical(build_bool(3))


def test_jsd_labels_are_join_irreducible_and_perspective():
    for lat in (build_bool(3), pentagon(), hexagon()):
        irr = set(lat.join_irreducibles())
        for (a, b), j in jsd_labeling(lat).items():
            assert j in irr
            assert lat.join_of(a, j) == b
            # minimality: nothing strictly below j also joins a up to b
            for c in range(lat.n):
                if lat.join_of(a, c) == b:
                    assert lat.poset.leq[j, c]


def test_canonical_joinrep():
    lat = build_bool(3)
    for s in range(8):
        rep = canonical_joinrep(lat, s)
        assert rep == frozenset(1 << i for i in range(3) if s >> i & 1)
    # irredundance and minimality on small join-semidistributive lattices
    for lat in (pentagon(), hexagon(), build_bool(3)):
        for a in range(lat.n):
            rep = canonical_joinrep(lat, a)
            assert lat.join_all(rep) == a
            for j in rep:
                assert lat.join_all(rep - {j}) != a


def test_canonical_joinrep_refines_every_other_join_representation():
    # on lattices small enough to enumerate all join representations
    for lat in (pentagon(), hexagon(), build_bool(3)):
        for a in range(lat.n):
            rep = canonical_joinrep(lat, a)
            for r in range(lat.n + 1):
                for sub in itertools.combinations(range(lat.n), r):
                    if lat.join_all(sub) == a:
                        # every canonical part lies below some part of sub
                        for j in rep:
                            assert any(lat.poset.leq[j, s] for s in sub)


def mask_corpus():
    """Hoch(1..7), Bool(0..6), the semidistributive seeded_lattices() and chain_lattice(65), whose 64
    join-irreducibles make its masks Python ints: the lattices the mask routes meet their oracles on."""
    lattices = [build_hoch(n).lattice for n in range(1, 8)] + [build_bool(n) for n in range(7)]
    return lattices + [lat for lat in seeded_lattices() if is_semidistributive(lat)] + [chain_lattice(65)]


def test_canonical_join_masks_match_the_per_cover_oracle():
    """canonical_joinrep decodes one mask of a bitwise_or.at of the cover labels' bits; the oracle looks
    the label of each lower cover up in jsd_labeling."""
    lattices = mask_corpus()
    for lat in lattices:
        assert [canonical_joinrep(lat, a) for a in range(lat.n)] == canonical_joinreps_by_covers(lat)
    assert lattices[0]._canonical.dtype == np.int64 and lattices[-1]._canonical.dtype == object
    assert len(lattices) > 200


def test_core_label_set_boolean():
    lat = build_bool(3)
    for s in range(8):
        cls = core_label_set(lat, s)
        assert cls.nucleus == 0
        assert cls.labels == frozenset(1 << i for i in range(3) if s >> i & 1)


def test_core_label_set_hexagon():
    lat = hexagon()
    assert core_label_set(lat, 5).nucleus == 0
    assert core_label_set(lat, 3).nucleus == 1
    assert core_label_set(lat, 3).labels == frozenset({3})


def test_core_label_set_is_not_the_nucleus_mask_difference():
    lat = nucleus_shortcut_breaker()
    assert is_semidistributive(lat) and lat.join_irreducibles() == [1, 2, 3, 4]
    core = core_label_set(lat, 6)
    assert core.nucleus == 3 and core.labels == frozenset({1, 4})
    assert psi_map(lat)[6] == 0b1001


def core_label_lattices():
    yield from (build_hoch(n).lattice for n in range(1, 7))
    yield from (build_bool(n) for n in range(5))
    yield from (shuffle_lattice(3, 0).lattice, pentagon(), hexagon(), nucleus_shortcut_breaker())
    yield from (lat for lat in seeded_lattices() if is_join_semidistributive(lat))


def test_core_label_set_matches_all_covers_scan():
    for lat in core_label_lattices():
        labels = jsd_labeling(lat)
        leq = lat.poset.leq
        for a in range(lat.n):
            core = core_label_set(lat, a)
            scan = {labels[(b, c)] for b, c in lat.covers if leq[core.nucleus, b] and leq[c, a]}
            assert core.labels == scan


def test_psi_map_decodes_to_core_label_sets():
    for lat in core_label_lattices():
        irr = lat.join_irreducibles()
        psi = psi_map(lat)
        assert psi.dtype == np.int64 and psi.shape == (lat.n,)
        for a, mask in enumerate(psi.tolist()):
            decoded = frozenset(j for i, j in enumerate(irr) if mask >> i & 1)
            assert decoded == core_label_set(lat, a).labels
        assert psi_map(lat) is psi  # computed once per lattice


def brute_intersection_property(lat):
    """The frozenset pair loop over the definitional core label sets."""
    psi = [core_label_set(lat, a).labels for a in range(lat.n)]
    values = set(psi)
    return all(pa & pb in values for pa in psi for pb in psi)


def test_intersection_property():
    for lat in (build_bool(2), build_bool(3), chain_lattice(4), pentagon(), hexagon()):
        assert has_intersection_property(lat) == brute_intersection_property(lat)
        assert has_intersection_property(lat)


def test_intersection_property_matches_frozenset_oracle():
    checked = failing = 0
    for lat in seeded_lattices():
        if not is_semidistributive(lat):
            continue
        got = has_intersection_property(lat)
        assert got == brute_intersection_property(lat)
        checked += 1
        failing += not got
    assert checked >= 200 and failing >= 1


def intersection_lattices():
    """The semidistributive lattices of certification_corpus(): Hoch(1..8), Bool(0..8), those of
    seeded_lattices() and of the random bounded posets, and chain(65)."""
    lattices = []
    for p in certification_corpus():
        try:
            lattices.append(as_lattice(p))
        except NotALattice:
            continue
    return [lat for lat in lattices if is_semidistributive(lat)]


def test_intersection_certificate_matches_the_pairwise_oracle():
    """The certificate on the core label order agrees with every pairwise AND looked up, also where
    the family is not closed and where no element has the union of all core label sets."""
    verdicts, topless = [], 0
    for lat in intersection_lattices():
        got = has_intersection_property(lat)
        assert got == closed_under_intersection(psi_map(lat))
        verdicts.append(got)
        topless += len(clo(lat).maximal_elements()) > 1
    assert (len(verdicts), verdicts.count(False), topless) == (856, 4, 544)


def random_families(rng, count):
    """Families of distinct subsets of a set of at most 6 points, as int64 masks."""
    for _ in range(count):
        k = rng.randrange(1, 7)
        yield np.array(rng.sample(range(2**k), rng.randrange(1, min(2**k, 12) + 1)), dtype=np.int64)


def family_verdicts(check, families):
    """check on each family read as the core label sets ``_psi`` of a stand-in lattice, whose core label
    order ``_clo``, which ``clo`` returns, is the family ordered by inclusion."""
    orders = [FinitePoset.from_leq((psi[:, None] & ~psi) == 0) for psi in families]
    return [check(SimpleNamespace(n=len(psi), _psi=psi, _clo=order)) for psi, order in zip(families, orders)]


def test_intersection_property_matches_the_pairwise_oracle_on_random_families():
    families = list(random_families(random.Random(5), 2000))
    got = family_verdicts(has_intersection_property, families)
    assert got == [closed_under_intersection(psi) for psi in families]
    topless = sum(np.bitwise_or.reduce(psi) not in psi for psi in families)  # no member is the union
    assert (got.count(False), topless) == (1042, 782)


def only_wrongly_accepts(check, tops, count):
    """check, a mutation of has_intersection_property, differs from it on corpus lattices whose core
    label orders have tops maximal elements and on count random families, each time accepting."""
    wrong = [lat for lat in intersection_lattices() if check(lat) != has_intersection_property(lat)]
    assert [len(clo(lat).maximal_elements()) for lat in wrong] == tops
    assert not any(has_intersection_property(lat) for lat in wrong)
    families = list(random_families(random.Random(5), 2000))
    want = family_verdicts(has_intersection_property, families)
    got = family_verdicts(check, families)
    assert sum(g != w for g, w in zip(got, want)) == count
    assert all(g for g, w in zip(got, want) if g != w)


def test_intersection_property_fails_on_a_clo_meet_row_taken_as_its_join_row(monkeypatch):
    """With each lookup an OR (the join of two core label sets) instead of an AND (their meet),
    Hoch(4), whose core label sets are closed under intersection, is rejected."""
    lat = build_hoch(4).lattice
    as_join = mutated("_closed", "values & gens", "values | gens")
    assert has_intersection_property(lat)
    monkeypatch.setattr(lattice_module, "_closed", as_join)
    assert not has_intersection_property(lat)


def test_intersection_property_needs_the_adjoined_top():
    """Generators with exactly one upper cover in the core label order leave out the maximal
    elements, whose one upper cover is the adjoined union when there are several; that wrongly
    accepts the corpus lattice whose core label order has 2 maximal elements, and random families."""
    one_cover = mutated("has_intersection_property", "minlength=lat.n) < 2", "minlength=lat.n) == 1")
    only_wrongly_accepts(one_cover, [2], 187)


def test_intersection_property_needs_every_generator():
    """Lookups against the first generator only wrongly accept corpus lattices and random families
    whose core label sets are not closed."""
    first_only = mutated("has_intersection_property", "psi[gens])", "psi[gens][:1])")
    only_wrongly_accepts(first_only, [1, 1, 2], 112)


def test_clo_covers_match_float32_product():
    lattices = [build_hoch(n).lattice for n in range(1, 9)] + [build_bool(n) for n in range(7)]
    lattices += [lat for lat in seeded_lattices() if is_semidistributive(lat)]
    for lat in lattices:
        order = clo(lat)
        assert order.covers == from_leq_by_product(order.leq).covers
    assert len(lattices) > 200


def test_core_label_masks_past_63_irreducibles_are_python_ints():
    long_chain = chain_lattice(65)  # 64 join-irreducibles; element a's core labels are {a}
    assert psi_map(long_chain).tolist() == [0] + [1 << i for i in range(64)]
    assert has_intersection_property(long_chain)
    assert clo(long_chain).covers == tuple((0, i) for i in range(1, 65))


def first_common_bound(leq, topo):
    """The definitional join table: for each pair, the first element in topological order above
    both (the least upper bound in a lattice), -1 where no element is."""
    leq = np.asarray(leq)
    table = np.full(leq.shape, -1, dtype=np.int64)
    for c in reversed(topo):
        table[np.logical_and.outer(leq[:, c], leq[:, c])] = c
    return table


def rows(lat):
    """The join and meet rows of every element, stacked into m x m tables."""
    return np.stack([lat.join(a) for a in range(lat.n)]), np.stack([lat.meet(a) for a in range(lat.n)])


def test_lub_scan_matches_irreducible_masks():
    lattices = [build_hoch(n).lattice for n in range(6, 9)] + [build_bool(k) for k in range(5, 9)]
    lattices += seeded_lattices()  # Hoch(1..5), Bool(0..4), Shuf(a <= 3, b <= 2), 350 closure systems
    rng = random.Random(4)
    lattices += [closure_system_lattice(rng) for _ in range(30)]
    wide = [chain_lattice(65), diamond(64), diamond(65)]  # 64 or 65 irreducibles a side: Python-int masks
    assert [len(lat.join_irreducibles()) for lat in wide] == [len(lat.meet_irreducibles()) for lat in wide]
    assert [len(lat.join_irreducibles()) for lat in wide] == [64, 64, 65]
    for lat in lattices + wide:
        p = lat.poset
        joins, meets = rows(lat)
        assert joins.dtype == meets.dtype == np.int32
        assert (first_common_bound(p.leq, p._topo) == joins).all()
        assert (first_common_bound(p.leq.T, p._topo[::-1]) == meets).all()
        assert lat.join_all([]) == lat.meet_all(range(lat.n)) == lat.bottom
        assert lat.meet_all([]) == lat.join_all(range(lat.n)) == lat.top


def brute_bound_table(leq):
    """Least upper bounds by definition, -1 where none: u is above a and b and below every v that is."""
    common = leq[:, None, :] & leq[None, :, :]
    least = common & ~(common[:, :, None, :] & ~leq[None, None]).any(axis=3)
    return np.where(least.any(axis=2), least.argmax(axis=2), -1)


def random_bounded_poset(rng):
    """A random order on up to 8 elements in 4 levels (a < b only across levels), between an
    added bottom and top, ids shuffled."""
    level = [-1] + sorted(rng.randrange(4) for _ in range(rng.randrange(1, 9))) + [4]
    m = len(level)
    leq = np.array(
        [[a == b or level[a] < level[b] and rng.random() < 0.6 for b in range(m)] for a in range(m)]
    )
    leq[0], leq[:, m - 1] = True, True
    for c in range(m):
        leq |= leq[:, c : c + 1] & leq[c]
    perm = list(range(m))
    rng.shuffle(perm)
    return FinitePoset.from_leq(leq[np.ix_(perm, perm)])


def test_as_lattice_witnesses_on_random_bounded_posets():
    rng = random.Random(8)
    witnesses = []
    for _ in range(1200):
        p = random_bounded_poset(rng)
        joins, meets = brute_bound_table(p.leq), brute_bound_table(p.leq.T)
        try:
            lat = as_lattice(p)
        except NotALattice as err:
            a, b = err.pair
            assert err.args[0] in (f"pair ({a}, {b}) has no join", f"pair ({a}, {b}) has no meet")
            assert (joins if err.args[0].endswith("join") else meets)[a, b] < 0
            witnesses.append(err.args[0])
            continue
        got_joins, got_meets = rows(lat)
        assert (got_joins == joins).all() and (got_meets == meets).all()
    assert len(witnesses) == 276
    # the 276 messages, each naming the pair that the first failing test of the certificate proves
    digest = hashlib.sha256("\n".join(witnesses).encode()).hexdigest()
    assert digest == "d6ed2f78cb2753c7bff1511e81fd31da8b694800a4ba8fb4343042ff7df3525b"


def certification_corpus():
    """1,600 orders: the 1,200 posets of test_as_lattice_witnesses_on_random_bounded_posets (276 of
    them no lattice), then Hoch(1..8), Bool(0..8), seeded_lattices(), chain(65) and diamond(64/65)."""
    rng = random.Random(8)
    posets = [random_bounded_poset(rng) for _ in range(1200)]
    lattices = [build_hoch(n).lattice for n in range(1, 9)] + [build_bool(k) for k in range(9)]
    lattices += seeded_lattices() + [chain_lattice(65), diamond(64), diamond(65)]
    return posets + [lat.poset for lat in lattices]


def test_one_certified_side_certifies_the_dual():
    """as_lattice certifies the join-irreducible side only.  Its verdict must not depend on which
    way up the order is read, and the meet-irreducible side it builds uncertified must be the
    certified join-irreducible side of the dual order."""
    failing = 0
    for p in certification_corpus():
        try:
            upper = as_lattice(p)._upper
        except NotALattice:
            failing += 1
            with pytest.raises(NotALattice):
                as_lattice(dual(p))
            continue
        lower = as_lattice(dual(p))._lower
        assert upper.irr == lower.irr
        for name in ("masks", "values", "order"):
            assert getattr(upper, name).dtype == getattr(lower, name).dtype
            assert np.array_equal(getattr(upper, name), getattr(lower, name))
    assert failing == 276


def test_cover_ends_give_what_the_adjacency_lists_gave():
    """The views read off the sorted cover ends ``_ends`` against the adjacency-list definitions, on
    the corpus and on its duals, whose covers reach FinitePoset unsorted: the irreducibles of both
    sides in bit order, the minimal and maximal elements, and the lists and the covers tuple against
    a pass over the pairs sorted in Python."""
    for p in certification_corpus():
        for q, given in ((p, p.covers), (dual(p), [(b, a) for a, b in p.covers])):
            up, down = [[] for _ in range(q.n)], [[] for _ in range(q.n)]
            for a, b in sorted(given):
                up[a].append(b)
                down[b].append(a)
            assert q.covers == tuple(sorted(given))
            assert q._up_adj == up and q._down_adj == down
            for ends, lists, flip in ((q._ends, down, False), (q._ends[::-1], up, True)):
                want = [(a, near[0]) for a, near in enumerate(lists) if len(near) == 1]
                assert list(lattice_module._Masks(q, *ends, dual=flip).irr.items()) == want
            assert q.minimal_elements() == [a for a in range(q.n) if not down[a]]
            assert q.maximal_elements() == [a for a in range(q.n) if not up[a]]


def test_heights_match_kahns_queue_and_topo_ascends_along_every_cover():
    """heights, Kahn's rounds over slices of the covers, against a Python queue relaxing one cover at a time, on the
    corpus and on its duals; _topo, the ids sorted by height, puts each lower end before its upper end."""
    for p in certification_corpus():
        for q in (p, dual(p)):
            assert q.heights == heights_by_queue(q)
            assert sorted(q._topo) == list(range(q.n))
            place = np.empty(q.n, dtype=np.int64)
            place[q._topo] = np.arange(q.n)
            assert (place[q._ends[0]] < place[q._ends[1]]).all()


def test_rank_vector_names_the_first_cover_that_skips_a_rank():
    """On the corpus orders that are not graded, rank_vector names the cover that a loop over the
    sorted covers finds first with heights[b] != heights[a] + 1; the rest are graded."""
    skipping = 0
    for p in certification_corpus():
        h = p.heights
        first = next(((a, b) for a, b in p.covers if h[b] != h[a] + 1), None)
        if first is None:
            assert p.rank_vector() == h
            continue
        with pytest.raises(NotGraded) as err:
            p.rank_vector()
        assert err.value.args[0] == f"cover {first} skips a rank"
        skipping += 1
    assert skipping == 700


def test_as_lattice_reads_the_cover_ends_alone():
    lat = build_hoch(6).lattice
    p = FinitePoset.closure(lat.covers, lat.n)
    assert as_lattice(p).n == lat.n
    assert not {"covers", "_up_adj", "_down_adj"} & set(vars(p))


def test_packed_row_readers_give_the_rows_columns_and_entries_of_leq():
    """FinitePoset.le, bit tests on the up-rows, against leq, unpacked from them: every row le(a, ids), every
    column le(ids, b), the whole table at once and single entries with int ids, on the corpus (it holds
    Hoch(1..8) and Bool(0..8)) and its duals."""
    rng = random.Random(31)
    for p in certification_corpus():
        for q in (p, dual(p)):
            ids, leq = np.arange(q.n), q.leq
            assert np.array_equal(q.le(ids[:, None], ids), leq)
            for a in range(q.n):
                assert np.array_equal(q.le(a, ids), leq[a]) and np.array_equal(q.le(ids, a), leq[:, a])
            for a, b in ((rng.randrange(q.n), rng.randrange(q.n)) for _ in range(8 * bool(q.n))):
                assert bool(q.le(a, b)) == leq[a, b]


def test_no_bundle_unpacks_an_order(monkeypatch):
    """After the 14 bundles at n = 8 and the G-triangle note, no order the library built has ``leq``
    in its __dict__: Hoch(8) and its CLO, Shuf(7, 1), Bool(8) and its CLO, and the poset of
    build_hoch_by_doubling(8).  The caches are cleared first, so no earlier test has read them."""
    built = []

    def keep(real):
        return lambda n: built.append(real(n)) or built[-1]

    for module, name in ((checks, "build_hoch_by_doubling"), (checks, "build_bool"), (triangles, "build_bool")):
        monkeypatch.setattr(module, name, keep(getattr(module, name)))
    for cached in (build_hoch, build_bool, shuffle_lattice, triangles.m_closed):
        cached.cache_clear()
    assert checks.run_all(8, write=lambda line: None)
    lat = build_hoch(8).lattice
    posets = [lat.poset, clo(lat), shuffle_lattice(7, 1).lattice.poset, built[0]]
    posets += [q for b in built[1:] for q in (b.poset, clo(b))]
    assert len(posets) == 8 and [p.n for p in posets[-4:]] == [256] * 4
    assert not [p for p in posets if "leq" in vars(p)]


def test_no_bundle_builds_the_cover_tuple(monkeypatch):
    """After the 14 bundles at n = 8 and the G-triangle note, no poset the library built, each recorded
    as FinitePoset.__init__ runs, has ``covers`` in its __dict__: the bundles read the cover ends
    ``_ends``.  The caches are cleared first, so every structure is built afresh."""
    built, init = [], FinitePoset.__init__
    monkeypatch.setattr(FinitePoset, "__init__", lambda self, *args, **kw: built.append(self) or init(self, *args, **kw))
    for cached in (build_hoch, build_bool, shuffle_lattice, triangles.m_closed):
        cached.cache_clear()
    assert checks.run_all(8, write=lambda line: None)
    assert len(built) >= 8 and not [p for p in built if "covers" in vars(p)]


def test_clo_covers_match_from_leq_on_the_inclusion_matrix():
    """clo has FinitePoset.from_masks pack the inclusion order of the core label sets a block of rows at a
    time and find its covers with _two_step.  from_leq and the float32 product oracle on the dense inclusion matrix give
    the same order and covers, on Hoch(1..8), Bool(0..6) and the semidistributive seeded_lattices()."""
    lattices = [build_hoch(n).lattice for n in range(1, 9)] + [build_bool(k) for k in range(7)]
    lattices += [lat for lat in seeded_lattices() if is_semidistributive(lat)]
    assert len(lattices) > 15
    for lat in lattices:
        psi = psi_map(lat)
        leq = (psi[:, None] & ~psi) == 0
        got = clo(lat)
        for want in (FinitePoset.from_leq(leq), from_leq_by_product(leq)):
            assert got.covers == want.covers and np.array_equal(got.leq, want.leq)


def test_meet_irreducible_lookups_decide_intersection_closure():
    """The lemma behind as_lattice's acceptance: where the join-irreducible masks embed the order,
    they are closed under intersection iff every mask meets each meet-irreducible's mask in a mask.
    as_lattice accepts exactly then."""
    verdicts = []
    for p in certification_corpus():
        lower = lattice_module._Masks(p, *p._ends)
        upper = lattice_module._Masks(p, *p._ends[::-1], dual=True)
        masks = lower.masks
        if not masks_embed_order(masks, p.leq):
            continue
        known = set(masks.tolist())
        lookups = (masks[:, None] & masks[sorted(upper.irr)]).ravel().tolist()
        verdict = all(sub in known for sub in lookups)
        assert verdict == closed_under_intersection(masks)
        try:
            as_lattice(p)
        except NotALattice:
            assert not verdict
        else:
            assert verdict
        verdicts.append(verdict)
    assert verdicts.count(True) == 1600 - 276
    assert verdicts.count(False) == 13  # non-lattices whose masks embed the order


def test_cover_check_implies_the_embedding_and_holds_on_every_lattice():
    """FinitePoset._lower_covers_join against the m x m oracle.  It is stricter than the embedding only on
    non-lattices: on 6 corpus orders two lower covers have an upper bound not above their upper cover."""
    rejected = stricter = 0
    posets = certification_corpus() + [build_hoch(9).lattice.poset, build_hoch(10).lattice.poset]
    for p in posets:
        covers_join = p._lower_covers_join() is None
        embeds = masks_embed_order(lattice_module._Masks(p, *p._ends).masks, p.leq)
        assert embeds or not covers_join
        try:
            as_lattice(p)
        except NotALattice:
            rejected += 1
            stricter += embeds and not covers_join
            continue
        assert covers_join
    assert (rejected, stricter) == (276, 6)


def mutated(name, old, new, owner=lattice_module):
    """The function ``name`` of ``owner`` (the lattice module, or a class such as FinitePoset) with ``old``
    replaced by ``new`` in its source, run in the namespace of the module that defines it."""
    fn = getattr(owner, name)
    source = textwrap.dedent(inspect.getsource(fn))
    edited = source.replace(old, new)
    assert edited != source
    namespace = dict(vars(inspect.getmodule(fn)))
    exec(edited, namespace)
    return namespace[name]


def test_cover_check_fails_against_one_lower_cover_alone(monkeypatch):
    """Checked against its first lower cover alone, the cover check rejects Hoch(4), a lattice, and
    names as its witness a pair that does have a join."""
    one_row = mutated("_lower_covers_join", "g[:, 1] & g[:, 2] ==", "g[:, 1] ==", FinitePoset)
    lat = build_hoch(4).lattice
    assert lat.poset._lower_covers_join() is None and one_row(lat.poset) is not None
    monkeypatch.setattr(FinitePoset, "_lower_covers_join", one_row)
    with pytest.raises(NotALattice, match="has no join") as err:
        as_lattice(lat.poset)
    a, b = err.value.pair
    assert brute_bound_table(lat.poset.leq)[a, b] == lat.join_of(a, b) >= 0


def test_cover_check_needs_the_elements_with_two_lower_covers():
    three_up = mutated("_lower_covers_join", "& (hi[1:] == hi[:-1])", "& np.append(hi[2:] == hi[:-2], False)", FinitePoset)
    passed = 0
    for p in certification_corpus():
        embeds = masks_embed_order(lattice_module._Masks(p, *p._ends).masks, p.leq)
        if three_up(p) is None and not embeds:
            assert p._lower_covers_join() is not None
            passed += 1
    assert passed == 183


def test_cover_check_catches_a_failure_past_its_first_block():
    lat = build_hoch(10).lattice
    p = FinitePoset.closure([c for c in lat.covers if c != (3323, 3326)], lat.n)
    first_block = mutated("_lower_covers_join", "range(0, len(i), step)", "range(0, min(step, len(i)), step)", FinitePoset)
    assert first_block(p) is None and p._lower_covers_join() == (2043, 2747)
    with pytest.raises(NotALattice) as err:
        as_lattice(p)
    assert err.value.args[0] == "pair (2043, 2747) has no join"  # as the scan of all rows named it too


def test_scalar_joins_and_meets_match_the_rows():
    lattices = [build_hoch(n).lattice for n in range(1, 7)] + [build_bool(k) for k in range(6)]
    lattices += seeded_lattices() + [chain_lattice(65), diamond(64), diamond(65)]  # object masks last
    for lat in lattices:
        for a in range(lat.n):
            joins, meets = lat.join(a).tolist(), lat.meet(a).tolist()
            assert [lat.join_of(a, b) for b in range(lat.n)] == joins
            assert [lat.meet_of(a, b) for b in range(lat.n)] == meets
            assert [lat.join_all((a, b)) for b in range(lat.n)] == joins
            assert [lat.meet_all([b, a]) for b in range(lat.n)] == meets
        assert lat.join_all(()) == lat.bottom and lat.meet_all(()) == lat.top
    assert lattices[-1]._lower.masks.dtype == object


def test_as_lattice_of_the_empty_order_is_not_bounded():
    with pytest.raises(NotBounded, match="poset has 0 minimal elements"):
        as_lattice(FinitePoset.closure([], 0))


def test_as_lattice_witness_when_only_the_embedding_fails():
    # 0 < p, q, r; p, q < z; p, q, r < x; z < y < 1; x < 1.  The masks are distinct and closed under
    # intersection, but M(z) = {p, q} lies inside M(x) = {p, q, r} while z is not below x.
    bottom, p, q, r, z, x, y, top = range(8)
    covers = [(bottom, p), (bottom, q), (bottom, r), (p, z), (q, z), (p, x), (q, x), (r, x)]
    covers += [(z, y), (y, top), (x, top)]
    with pytest.raises(NotALattice) as err:
        as_lattice(FinitePoset.closure(covers, 8))
    assert err.value.pair == (p, q)  # the lower covers of z; both z and x are minimal above them


def test_as_lattice_witness_when_only_a_lookup_misses():
    # 0 < a, b; a < d; b < c; a, c < x; d, b < y; x, y < 1.  The masks embed the order on both
    # sides, but M(x) & M(y) = {a, b} is no element's mask: a and b are both maximal below x and y.
    bottom, a, b, c, d, x, y, top = range(8)
    covers = [(bottom, a), (bottom, b), (a, d), (b, c), (a, x), (c, x), (d, y), (b, y), (x, top), (y, top)]
    with pytest.raises(NotALattice) as err:
        as_lattice(FinitePoset.closure(covers, 8))
    assert sorted(err.value.pair) == [x, y]


def test_doubling_of_lattice_is_lattice():
    rng = random.Random(3)
    lat = chain_lattice(3)
    for _ in range(6):
        lo = rng.randrange(lat.n)
        ups = [b for b in range(lat.n) if lat.poset.leq[lo, b]]
        hi = rng.choice(ups)
        p2 = doubling(lat.poset, (lo, hi))
        lat2 = as_lattice(p2)  # must succeed
        assert is_semidistributive(lat2)
        lat = lat2
        if lat.n > 40:
            break


def test_reach_along_covers_gives_every_up_set_and_down_set():
    posets = [lat.poset for lat in seeded_lattices()]
    posets += [FinitePoset.closure([(i, i + 1) for i in range(39)], 40), FinitePoset.closure([], 5)]
    for p in posets:
        x, y = p._ends
        for a in range(p.n):
            assert np.array_equal(_reach(x, y, a, p.n), p.leq[a])
            assert np.array_equal(_reach(y, x, a, p.n), p.leq[:, a])


def test_doubling_covers_match_from_leq_on_every_interval():
    rng = random.Random(1)
    lattices = [build_hoch(n).lattice for n in range(1, 5)] + [build_bool(3)]
    lattices += [closure_system_lattice(rng) for _ in range(50)]
    doubled = 0
    for lat in lattices:
        p = FinitePoset(lat.poset.leq, lat.covers, labels=range(lat.n))  # labels are the ids
        for lo, hi in np.argwhere(p.leq).tolist():
            d = doubling(p, (lo, hi))
            ids, copies = np.array(d.labels).T  # the order gathered from P's is the oracle for leq
            assert np.array_equal(d.leq, p.leq[np.ix_(ids, ids)] & (copies[:, None] <= copies[None, :]))
            assert d.covers == FinitePoset.from_leq(d.leq).covers
            doubled += 1
    assert doubled > 1000


def test_lattice_json_export():
    lat = build_bool(2)
    assert lat.poset.to_json()["n_elements"] == 4
    assert lat.join_irreducibles() == [1, 2]
    assert [jsd_labeling(lat)[c] for c in lat.covers] == [1, 2, 2, 1]
    assert not is_join_semidistributive(diamond(3))
