import inspect
import itertools
import tracemalloc

import numpy as np
import pytest

from hochlat import checks, hochschild
from hochlat.checks import check_doubling, check_lattice_law
from hochlat.errors import MalformedLabelSet, NotGraded, SizeBound
from hochlat.hochschild import (
    a_irr,
    b_irr,
    build_hoch,
    build_hoch_by_doubling,
    canrep_formula,
    core_labels_formula,
    cover_label_formula,
    enumerate_triwords,
    f0,
    format_triword,
    HochIrreducible,
    hoch_join,
    hoch_meet,
    hoch_meet_code,
    irreducible_of_triword,
    irreducibles,
    is_triword,
    l1,
    nucleus_formula,
    parse_triword,
    psi_inverse,
    triword_count,
)
from hochlat.lattice import Lattice, canonical_joinrep, is_extremal, jsd_labeling, psi_map
from hochlat.limits import MAX_N
from hochlat.poset import FinitePoset
import oracles
from oracles import core_label_set, hoch_by_poset_doublings, lattice_law_by_pairs, lower_cover_triwords

# 12 elements and 18 labeled cover relations of the length-3 lattice.
HASSE_3 = {
    ((0, 0, 0), (1, 0, 0)): "a1",
    ((0, 0, 0), (0, 2, 0)): "b2",
    ((0, 0, 0), (0, 0, 2)): "b3",
    ((1, 0, 0), (1, 1, 0)): "a2",
    ((1, 0, 0), (1, 0, 2)): "b3",
    ((1, 1, 0), (1, 2, 0)): "b2",
    ((1, 1, 0), (1, 1, 1)): "a3",
    ((0, 2, 0), (1, 2, 0)): "a1",
    ((0, 2, 0), (0, 2, 2)): "b3",
    ((0, 0, 2), (1, 0, 2)): "a1",
    ((0, 0, 2), (0, 2, 2)): "b2",
    ((1, 2, 0), (1, 2, 1)): "a3",
    ((1, 1, 1), (1, 2, 1)): "b2",
    ((1, 1, 1), (1, 1, 2)): "b3",
    ((1, 0, 2), (1, 1, 2)): "a2",
    ((1, 2, 1), (1, 2, 2)): "b3",
    ((1, 1, 2), (1, 2, 2)): "b2",
    ((0, 2, 2), (1, 2, 2)): "a1",
}


def brute_lower_covers(words, u):
    below = [v for v in words if v != u and all(x <= y for x, y in zip(v, u))]
    out = []
    for v in below:
        between = [
            w
            for w in below
            if w != v and all(x <= y for x, y in zip(v, w)) and all(x <= y for x, y in zip(w, u))
        ]
        if not between:
            out.append(v)
    return sorted(out)


def test_counts_match_closed_formula():
    sizes = []
    for n in range(1, 11):
        words = enumerate_triwords(n)
        assert len(set(words)) == len(words)
        assert list(words) == sorted(words)
        assert all(is_triword(u) and len(u) == n for u in words)
        assert len(words) == triword_count(n)
        sizes.append(len(words))
    assert sizes[0] == 2
    assert sizes[-1] == 3328
    for n in range(2, 11):
        assert sizes[n - 1] == 2 * sizes[n - 2] + 2 ** (n - 2)


def test_index_is_built_on_first_use():
    for n in range(1, 9):
        h = build_hoch.__wrapped__(n)  # not the cached lattice, whose index other tests have read
        assert "index" not in vars(h)
        assert [h.id_of(u) for u in h.triwords] == list(range(h.lattice.n))
        assert h.index == dict(zip(build_hoch(n).triwords, range(h.lattice.n)))


def test_triword_predicate_rejects_bad_words():
    assert not is_triword((2, 0))
    assert not is_triword((0, 1))
    assert not is_triword((1, 0, 1))
    assert not is_triword((0, 3))
    assert is_triword((0, 2, 2))
    assert is_triword(())


def test_size_bound():
    with pytest.raises(SizeBound):
        enumerate_triwords(MAX_N + 1)
    with pytest.raises(SizeBound):
        build_hoch(0)


def test_parse_format_roundtrip():
    for u in enumerate_triwords(4):
        assert parse_triword(format_triword(u)) == u
    assert parse_triword("1,2,0") == (1, 2, 0)
    with pytest.raises(ValueError):
        parse_triword("(2,0)")


def test_hasse_diagram_n3():
    h = build_hoch(3)
    lat = h.lattice
    assert lat.n == 12
    labels = jsd_labeling(lat)
    seen = {}
    for a, b in lat.covers:
        j = irreducible_of_triword(h.triword(labels[(a, b)]))
        seen[(h.triword(a), h.triword(b))] = str(j)
    assert seen == HASSE_3
    for (u, v), name in HASSE_3.items():
        assert str(cover_label_formula(u, v)) == name


@pytest.mark.parametrize("n", range(1, 6))
def test_order_is_componentwise(n):
    h = build_hoch(n)
    lat = h.lattice
    for a in range(lat.n):
        for b in range(lat.n):
            expected = all(x <= y for x, y in zip(h.triword(a), h.triword(b)))
            assert lat.poset.leq[a, b] == expected


@pytest.mark.parametrize("n", range(1, 7))
def test_covers_match_brute_force(n):
    h = build_hoch(n)
    lat = h.lattice
    words = h.triwords
    for b in range(lat.n):
        mine = sorted(h.triword(a) for a in lat.poset.lower_covers(b))
        assert mine == brute_lower_covers(words, words[b])
        assert mine == sorted(lower_cover_triwords(words[b]))
    for a, b in lat.covers:
        diffs = [i for i, (x, y) in enumerate(zip(words[a], words[b])) if x != y]
        assert len(diffs) == 1


@pytest.mark.parametrize("n", range(1, 7))
def test_join_meet_formulas_match_tables(n):
    h = build_hoch(n)
    lat = h.lattice
    for a in range(lat.n):
        joins, meets = lat.join(a), lat.meet(a)
        for b in range(a, lat.n):
            u, v = h.triword(a), h.triword(b)
            assert h.triword(joins[b]) == hoch_join(u, v) == h.triword(lat.join_of(a, b))
            assert h.triword(meets[b]) == hoch_meet(u, v) == h.triword(lat.meet_of(a, b))


def _code(u):
    """The code ge1 | eq2 << n of a triword u of length n."""
    return sum((x >= 1) << i | (x == 2) << (len(u) + i) for i, x in enumerate(u))


def _word(code, n):
    return tuple((code >> i & 1) + (code >> (n + i) & 1) for i in range(n))


def test_meet_repairs_one_after_zero():
    for u, v, want in [
        ((1, 0, 2), (1, 2, 1), (1, 0, 0)),
        ((1, 1, 2), (0, 2, 2), (0, 0, 2)),
        ((1, 1, 0), (0, 2, 2), (0, 0, 0)),
    ]:
        assert hoch_meet(u, v) == want
        assert hoch_meet_code(_code(u), _code(v), 3) == _code(want)
    assert hoch_join((1, 0, 0), (0, 2, 0)) == (1, 2, 0)
    assert _code((1, 0, 0)) | _code((0, 2, 0)) == _code((1, 2, 0))


@pytest.mark.parametrize("n", range(1, 6))
def test_word_arrays_match_scalar_join_meet(n):
    """The word array is ``h.codes``, one code ge1 | eq2 << n per triword."""
    h = build_hoch(n)
    codes = h.codes
    assert codes.dtype == np.int64 and codes.shape == (h.lattice.n,) and not codes.flags.writeable
    assert [_word(int(c), n) for c in codes] == list(h.triwords)
    joins = codes[:, None] | codes[None, :]
    meets = hoch_meet_code(codes[:, None], codes[None, :], n)
    for a, u in enumerate(h.triwords):
        for b, v in enumerate(h.triwords):
            assert _word(int(joins[a, b]), n) == hoch_join(u, v)
            assert _word(int(meets[a, b]), n) == hoch_meet(u, v)


@pytest.mark.parametrize("n", range(1, 9))
def test_lattice_law_holds(n):
    assert check_lattice_law(n)


def _swap_in_row(row_of, row=lambda lat: lat.n // 2):
    """A row method that returns row_of's rows, but with two different entries of row ``row(lat)``
    swapped; the middle row by default, which is join-irreducible in Hoch(4)."""

    def swapped(lat, a):
        out = row_of(lat, a)
        if a == row(lat):
            out = out.copy()
            b = int(np.nonzero(out != out[0])[0][0])
            out[0], out[b] = out[b], out[0]
        return out

    return swapped


def _middle_meet_irreducible(lat):
    irr = lat.meet_irreducibles()
    return irr[len(irr) // 2]


def test_lattice_law_fails_on_swapped_join_entries(monkeypatch):
    assert check_lattice_law(4)
    monkeypatch.setattr(Lattice, "join", _swap_in_row(Lattice.join))
    assert not check_lattice_law(4)


def test_lattice_law_fails_on_swapped_meet_entries(monkeypatch):
    """The bundle reads the meet rows of the meet-irreducibles only, so the swap goes into one."""
    monkeypatch.setattr(Lattice, "meet", _swap_in_row(Lattice.meet, _middle_meet_irreducible))
    assert not check_lattice_law(4)


@pytest.mark.parametrize("side", ["join", "meet"])
def test_lattice_law_fails_on_one_wrong_pair_in_both_orders(monkeypatch, side):
    """A wrong entry planted at a single pair a < b, in row a and in row b alike, must fail the
    bundle; in Hoch(4) a = 1 is join-irreducible and b = lat.n - 2 meet-irreducible, so each side
    reads one of the two rows."""
    lat = build_hoch(4).lattice
    a, b = 1, lat.n - 2
    right = getattr(Lattice, side)
    wrong = (int(right(lat, a)[b]) + 1) % lat.n

    def planted(lat, x):
        row = right(lat, x)
        if x in (a, b):
            row = row.copy()
            row[a + b - x] = wrong
        return row

    assert check_lattice_law(4)
    monkeypatch.setattr(Lattice, side, planted)
    assert not check_lattice_law(4)


def test_lattice_law_fails_without_the_meet_run_repair(monkeypatch):
    """With no 1 after a 0 lowered, the meet of two codes is the componentwise minimum x & y."""
    assert check_lattice_law(4)
    monkeypatch.setattr(checks, "hoch_meet_code", lambda x, y, n: x & y)
    assert not check_lattice_law(4)


def test_lattice_law_fails_on_the_join_taken_as_and():
    source = inspect.getsource(checks.check_lattice_law)
    mutated = source.replace("codes[a] | codes", "codes[a] & codes")
    assert mutated != source
    namespace = dict(vars(checks))
    exec(mutated, namespace)
    assert not namespace["check_lattice_law"](4)


def _lowered_after_a_two(code, n):
    """A code with every 1 after its first 2 lowered to 0."""
    eq = code >> n
    after = -((eq & -eq) << 1) & ((1 << n) - 1)  # the positions past the first 2
    return code & ~(after & ~eq)


def test_lattice_law_fails_on_a_rho_that_also_lowers_a_one_after_a_two(monkeypatch):
    """That rho is no kernel operator: raising a 1 to 2 lowers the 1s after it, so it is not
    monotone.  Only rho(x) = hoch_meet_code(x, x, n) changes; the meet rows pass two different
    arrays and still see the true formula, so the kernel check alone must fail."""
    real = checks.hoch_meet_code

    def meet_code(x, y, n):
        return _lowered_after_a_two(real(x, y, n), n) if x is y else real(x, y, n)

    assert check_lattice_law(4)
    monkeypatch.setattr(checks, "hoch_meet_code", meet_code)
    assert not check_lattice_law(4)


@pytest.mark.parametrize("n", range(1, 9))
def test_lattice_law_certificate_matches_the_pairwise_oracle(monkeypatch, n):
    """The irreducible-row certificate and the all-pairs comparison of tests/oracles.py agree on
    Hoch(n) as built, with the meet formula broken two ways, and with a meet-irreducible row
    swapped; from n = 3 on each break fails both."""
    real = checks.hoch_meet_code
    breaks = [lambda x, y, n: x & y, lambda x, y, n: _lowered_after_a_two(real(x, y, n), n)]
    verdicts = [(check_lattice_law(n), lattice_law_by_pairs(n))]
    for meet_code in breaks:
        monkeypatch.setattr(checks, "hoch_meet_code", meet_code)
        verdicts.append((check_lattice_law(n), lattice_law_by_pairs(n, meet_code)))
    monkeypatch.undo()
    if n > 1:
        monkeypatch.setattr(Lattice, "meet", _swap_in_row(Lattice.meet, _middle_meet_irreducible))
        verdicts.append((check_lattice_law(n), lattice_law_by_pairs(n)))
    assert all(got == want for got, want in verdicts)
    assert verdicts[0] == (True, True)
    assert n < 3 or verdicts[1:] == [(False, False)] * 3


def test_lattice_law_fails_on_a_two_position_cover(monkeypatch):
    h = build_hoch(4)
    fake = h.id_of((0, 0, 0, 0)), h.id_of((1, 1, 0, 0))
    ends = tuple(np.append(e, x).astype(np.int32) for e, x in zip(h.lattice.poset._ends, fake))
    monkeypatch.setattr(h.lattice.poset, "_ends", ends)  # the cover ends the check reads, restored after
    assert not check_lattice_law(4)


def test_not_graded_but_bounded_length():
    for n in range(1, 7):
        h = build_hoch(n)
        lat = h.lattice
        assert lat.poset.length() == 2 * n - 1 if n > 1 else 1
    with pytest.raises(NotGraded):
        build_hoch(3).lattice.poset.rank_profile()


def test_cold_build_hoch_10_traces_under_8_mb():
    """A cold build_hoch(10) keeps its order as 1.4 MB of packed up-rows: its traced peak stays under
    8 MB, where an 11 MB dense matrix alone would pass it."""
    build_hoch.cache_clear()
    tracemalloc.start()
    try:
        lat = build_hoch(10).lattice
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lat.n == 3328 and "leq" not in vars(lat.poset)
    assert peak < 8 * 2**20


@pytest.mark.parametrize("n", range(1, 5))
def test_doubling_construction_matches_direct(n):
    direct = build_hoch(n)
    doubled = build_hoch_by_doubling(n)
    assert sorted(doubled.labels) == list(direct.triwords)
    perm = [doubled.labels.index(u) for u in direct.triwords]
    for a in range(direct.lattice.n):
        for b in range(direct.lattice.n):
            assert direct.lattice.poset.leq[a, b] == doubled.leq[perm[a], perm[b]]


@pytest.mark.parametrize("n", range(1, 8))
def test_doubling_on_covers_matches_poset_by_poset_replay(n):
    got, want = build_hoch_by_doubling(n), hoch_by_poset_doublings(n)
    assert np.array_equal(got.leq, want.leq)
    assert got.covers == want.covers
    assert got.labels == want.labels


def test_doubling_check_fails_on_a_corrupted_decode(monkeypatch):
    def swapped_words(n):
        doubled = build_hoch_by_doubling(n)
        words = list(doubled.labels)
        words[0], words[-1] = words[-1], words[0]
        return FinitePoset(doubled.leq, doubled.covers, words)

    assert check_doubling(4)
    monkeypatch.setattr(checks, "build_hoch_by_doubling", swapped_words)
    assert not check_doubling(4)


@pytest.mark.parametrize("n", range(1, 7))
def test_irreducibles(n):
    h = build_hoch(n)
    lat = h.lattice
    opts = irreducibles(n)
    assert len(opts) == max(2 * n - 1, 1)
    join_irr = {
        h.triword(a): lat.j_star(a) for a in lat.join_irreducibles()
    }
    assert set(join_irr) == {j.triword(n) for j in opts}
    for j in opts:
        star = join_irr[j.triword(n)]
        if j.kind == "a" and j.index > 1:
            assert h.triword(star) == a_irr(j.index - 1).triword(n)
        else:
            assert h.triword(star) == (0,) * n
    assert is_extremal(lat)
    atom_words = {h.triword(a) for a in lat.atoms()}
    assert atom_words == {a_irr(1).triword(n)} | {b_irr(i).triword(n) for i in range(2, n + 1)}
    assert {str(irreducible_of_triword(w)) for w in atom_words} == {"a1"} | {
        f"b{i}" for i in range(2, n + 1)
    }


@pytest.mark.parametrize("n", range(1, 6))
def test_canonical_joinreps(n):
    h = build_hoch(n)
    lat = h.lattice
    for a in range(lat.n):
        u = h.triword(a)
        rep = {irreducible_of_triword(h.triword(c)) for c in canonical_joinrep(lat, a)}
        assert rep == set(canrep_formula(u))
        parts = [j.triword(n) for j in rep]
        joined = (0,) * n
        for p in parts:
            joined = hoch_join(joined, p)
        assert joined == u
        assert len(rep) == len(lat.poset.lower_covers(a))


@pytest.mark.parametrize("n", range(1, 9))
def test_nucleus_and_core_labels(n):
    h = build_hoch(n)
    lat = h.lattice
    for a in range(lat.n):
        u = h.triword(a)
        core = core_label_set(lat, a)
        assert h.triword(core.nucleus) == nucleus_formula(u)
        labels = {irreducible_of_triword(h.triword(c)) for c in core.labels}
        assert labels == set(core_labels_formula(u))


@pytest.mark.parametrize("n", range(1, 9))
def test_word_formulas_match_the_lattice(n):
    """core_labels_formula against the psi_map masks and canrep_formula against
    canonical_joinrep, for every element, with bit i standing for join_irreducibles()[i]."""
    h = build_hoch(n)
    lat = h.lattice
    bit = {irreducible_of_triword(h.triword(j)): 1 << i for i, j in enumerate(lat.join_irreducibles())}
    psi = psi_map(lat).tolist()
    for a, u in enumerate(h.triwords):
        assert sum(bit[j] for j in core_labels_formula(u)) == psi[a]
        assert {h.id_of(j.triword(n)) for j in canrep_formula(u)} == canonical_joinrep(lat, a)


def test_long_word_fixture():
    u = (1, 2, 1, 1, 2, 2, 0, 2, 0)
    assert is_triword(u)
    assert l1(u) == 4
    assert f0(u) == 7
    assert nucleus_formula(u) == (1, 1, 1, 0, 0, 0, 0, 0, 0)
    expect = {a_irr(4), a_irr(5), a_irr(6), b_irr(2), b_irr(5), b_irr(6), b_irr(8)}
    assert set(core_labels_formula(u)) == expect
    assert psi_inverse(9, expect) == u


def test_label_sets_past_max_n_cache_no_table():
    """Words longer than MAX_N get their label sets built directly: no (len + 2)**2 run table is kept."""
    cached = hochschild._irr.cache_info().currsize
    words = [(1,) * 120, (1, 1, 2, 1, 0, 2, 0, 2) + (0,) * MAX_N, (0,) * MAX_N + (2,), (1,) * MAX_N + (2, 0)]
    for u in words:
        assert is_triword(u) and len(u) > MAX_N
        assert core_labels_formula(u) == oracles.core_labels_formula(u)
        assert canrep_formula(u) == oracles.canrep_formula(u)
    assert hochschild._irr.cache_info().currsize == cached


@pytest.mark.parametrize("n", range(1, 7))
def test_core_label_sets_are_distinct_and_invertible(n):
    seen = {}
    for u in enumerate_triwords(n):
        labels = core_labels_formula(u)
        assert labels not in seen
        seen[labels] = u
        assert psi_inverse(n, labels) == u


def test_psi_inverse_rejects_malformed_sets():
    """The library and its oracle alike."""
    for inverse, labels in itertools.product((psi_inverse, oracles.psi_inverse), (
        {a_irr(1), b_irr(2)},
        {a_irr(1), a_irr(3)},
        {a_irr(2), b_irr(2)},
        {a_irr(4)},
        {b_irr(5)},
        {1, 2},
        {"a1"},
        [[1]],  # an unhashable member
        [a_irr(1), {b_irr(2)}],
        5,  # not iterable
    )):
        with pytest.raises(MalformedLabelSet):
            inverse(3, labels)


@pytest.mark.parametrize("kind, index", [("c", 1), ("a", 0), ("b", 1), ("a", 2.5), ("b", 2.5)])
def test_irreducible_rejects_bad_kind_or_index(kind, index):
    with pytest.raises(ValueError, match=f"no irreducible {kind}{index}"):
        HochIrreducible(kind, index)


def test_irreducible_triword_rejects_short_length():
    assert a_irr(3).triword(3) == (1, 1, 1)
    with pytest.raises(ValueError, match="length 2"):
        b_irr(3).triword(2)


def test_small_cases():
    one = build_hoch(1)
    assert one.triwords == ((0,), (1,))
    two = build_hoch(2)
    assert two.lattice.n == 5
    assert set(two.triwords) == {(0, 0), (1, 0), (1, 1), (0, 2), (1, 2)}


@pytest.mark.parametrize("n", range(1, 11))
def test_base3_covers_match_the_one_position_change_rule(n):
    h = build_hoch(n)
    rule = {(h.id_of(v), h.id_of(u)) for u in h.triwords for v in lower_cover_triwords(u)}
    assert h.lattice.covers == tuple(sorted(rule))


def test_cover_count_equals_canrep_size():
    for n in range(1, 7):
        h = build_hoch(n)
        lat = h.lattice
        for a in range(lat.n):
            assert len(lower_cover_triwords(h.triword(a))) == len(
                canrep_formula(h.triword(a))
            )
