"""The word functions and the antichain search against their letter-by-letter oracles.

Every rewritten function must give the oracle's value, or raise the oracle's
exception type, on every triword for n <= 8 and on malformed input for
n <= 5: every subset of the irreducibles of Hoch(n) with a_(n+1) and
b_(n+1) added, and every word of length <= n over the letters -2..n+1.
"""

from collections.abc import Hashable
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

import oracles
from hochlat import hochschild, shuffles
from hochlat.errors import MalformedLabelSet, MalformedWord, SizeBound
from hochlat.hochschild import HochIrreducible, a_irr, b_irr, enumerate_triwords, irreducibles
from hochlat.lattice import build_bool
from hochlat.limits import MAX_N
from hochlat.poset import FinitePoset
from hochlat.triangles import j_poset

WORD_FUNCTIONS = [
    (hochschild, "l1"),
    (hochschild, "f0"),
    (hochschild, "core_labels_formula"),
    (hochschild, "canrep_formula"),
    (shuffles, "sigma"),
]


def outcome(f, *args):
    """f(*args), or the type of the exception it raises."""
    try:
        return f(*args)
    except Exception as err:  # any exception: its type is what is compared
        return type(err)


def odd_words(w, letters):
    """Each letter alone, in place of each letter of w and inserted before each letter of w (or at its end)."""
    for odd in letters:
        yield (odd,)
        yield from (w[:k] + (odd,) + w[k + 1 :] for k in range(len(w)))
        yield from (w[:k] + (odd,) + w[k:] for k in range(len(w) + 1))


@pytest.mark.parametrize("n", range(1, 11))
def test_enumerate_triwords_matches_the_recursive_oracle(n):
    assert enumerate_triwords.__wrapped__(n) == oracles.enumerate_triwords(n)


@pytest.mark.parametrize("n", range(1, 9))
def test_word_functions_match_oracles_on_every_triword(n):
    for u in enumerate_triwords(n):
        for module, name in WORD_FUNCTIONS:
            assert getattr(module, name)(u) == getattr(oracles, name)(u), (name, u)
        labels, w = hochschild.core_labels_formula(u), shuffles.sigma(u)
        assert hochschild.psi_inverse(n, labels) == oracles.psi_inverse(n, labels) == u
        assert shuffles.sigma_inverse(n, w) == oracles.sigma_inverse(n, w) == u
        assert oracles.is_shuffle_word(w, n - 1, 1)


@pytest.mark.parametrize("n", range(1, 7))
def test_psi_inverse_matches_oracle_on_every_label_subset(n):
    pool = irreducibles(n) + [a_irr(n + 1), b_irr(n + 1)]
    for k in range(len(pool) + 1):
        for labels in combinations(pool, k):
            got = outcome(hochschild.psi_inverse, n, labels)
            assert got == outcome(oracles.psi_inverse, n, labels), labels
            assert got is MalformedLabelSet or hochschild.core_labels_formula(got) == frozenset(labels)


@pytest.mark.parametrize("n", range(1, 6))
def test_word_functions_match_oracles_on_every_short_word(n):
    letters = range(-2, n + 2)
    for length in range(n + 1):
        for w in product(letters, repeat=length):
            for module, name in WORD_FUNCTIONS:
                assert outcome(getattr(module, name), w) == outcome(getattr(oracles, name), w), (name, w)
            assert outcome(shuffles.sigma_inverse, n, w) == outcome(oracles.sigma_inverse, n, w), w


@pytest.mark.parametrize("n", range(3, 6))
def test_psi_inverse_matches_oracle_on_labels_with_float_indices(n):
    """a2.0 and b3.0 are no labels: the constructor raises its ValueError, so psi_inverse meets only int indices.
    Indices of other int types (numpy's, True) are stored as ints, and every subset with them decodes as the
    oracle decodes it."""
    for kind, index in (("a", 2.0), ("b", 3.0)):
        with pytest.raises(ValueError, match="no irreducible"):
            HochIrreducible(kind, index)
    odd = [HochIrreducible("a", True), HochIrreducible("a", np.int64(2)), HochIrreducible("b", np.uint8(3))]
    assert [type(j.index) for j in odd] == [int] * 3
    pool = irreducibles(n) + odd
    for k in range(len(pool) + 1):
        for labels in combinations(pool, k):
            got = outcome(hochschild.psi_inverse, n, labels)
            assert got == outcome(oracles.psi_inverse, n, labels), labels
            assert got is MalformedLabelSet or type(got) is tuple


@pytest.mark.parametrize("n", range(1, 6))
def test_sigma_inverse_matches_oracle_on_words_with_a_non_integer_letter(n):
    """Each of "2", 2.0, True and None put in place of, or inserted before, each letter of every sigma(u),
    and alone: the one-pass decoder raises MalformedWord, as the oracle does, and never TypeError."""
    for u in enumerate_triwords(n):
        for v in odd_words(shuffles.sigma(u), ("2", 2.0, True, None)):
            assert outcome(shuffles.sigma_inverse, n, v) is outcome(oracles.sigma_inverse, n, v) is MalformedWord, v


@pytest.mark.parametrize("n", range(1, 7))
def test_sigma_inverse_takes_only_an_int_marker(n):
    """The marker -1 must be an int by ``operator.index``, as the A-letters must: put in place of the -1 of every
    sigma(u), -1.0, Fraction(-1), numpy's -1.0 and True are MalformedWord in the decoder and the oracle, and
    numpy's int -1 decodes to u in both."""
    with pytest.raises(MalformedWord):
        shuffles.sigma_inverse(3, (2, -1.0, 3))
    for u in enumerate_triwords(n):
        w = shuffles.sigma(u)
        if -1 not in w:
            continue
        k = w.index(-1)
        for odd in (-1.0, Fraction(-1), np.float64(-1), True):
            v = w[:k] + (odd,) + w[k + 1 :]
            assert outcome(shuffles.sigma_inverse, n, v) is outcome(oracles.sigma_inverse, n, v) is MalformedWord, v
        v = w[:k] + (np.int64(-1),) + w[k + 1 :]
        assert shuffles.sigma_inverse(n, v) == oracles.sigma_inverse(n, v) == u


@pytest.mark.parametrize("n", range(1, 6))
def test_decoders_end_bad_input_only_in_their_typed_errors(n):
    """sigma_inverse ends every word it cannot decode in MalformedWord and psi_inverse every label set in
    MalformedLabelSet; a label with an index that is no int fails at construction, and a bad n is SizeBound."""
    letters = ("2", 2.0, True, None, (2,), 1.5, [2])
    for u in enumerate_triwords(n):
        w, labels = shuffles.sigma(u), hochschild.core_labels_formula(u)
        for v in odd_words(w, letters):
            with pytest.raises(MalformedWord):
                shuffles.sigma_inverse(n, v)
        for odd in letters + ("a2", frozenset()):  # no label, or unhashable
            with pytest.raises(MalformedLabelSet):
                hochschild.psi_inverse(n, labels | {odd} if isinstance(odd, Hashable) else [*labels, odd])
        for bad_n in (0, MAX_N + 1):
            with pytest.raises(SizeBound):
                shuffles.sigma_inverse(bad_n, w)
            with pytest.raises(SizeBound):
                hochschild.psi_inverse(bad_n, labels)
    for bad in (5, None, 2.0, object()):  # no iterable
        with pytest.raises(MalformedWord):
            shuffles.sigma_inverse(n, bad)
        with pytest.raises(MalformedLabelSet):
            hochschild.psi_inverse(n, bad)
    for kind in "ab":
        for index in (2.0, "2", 2.5, None, (2,)):
            with pytest.raises(ValueError, match="no irreducible"):
                HochIrreducible(kind, index)


def test_inverses_decode_in_one_pass(monkeypatch):
    """psi_inverse checks its labels without core_labels_formula, made to raise here, and both decoders read
    their input once: every triword for n <= 6 comes back from the oracle's core label set and shuffle word,
    given as a one-shot iterator too."""
    triwords = [(n, u) for n in range(1, 7) for u in oracles.enumerate_triwords(n)]
    cases = [(n, u, oracles.core_labels_formula(u), oracles.sigma(u)) for n, u in triwords]

    def second_pass(*args):
        raise AssertionError("a second pass over the input")

    monkeypatch.setattr(hochschild, "core_labels_formula", second_pass)
    for n, u, labels, w in cases:
        assert hochschild.psi_inverse(n, labels) == hochschild.psi_inverse(n, iter(labels)) == u
        assert shuffles.sigma_inverse(n, w) == shuffles.sigma_inverse(n, iter(w)) == u


def test_is_shuffle_word_rejects_repeated_letters():
    assert oracles.is_shuffle_word((2, 3), 2, 0)
    assert not oracles.is_shuffle_word((2, 2), 2, 0)
    assert not oracles.is_shuffle_word((3, 2), 2, 0)
    assert oracles.is_shuffle_word((-1, 2, -2), 1, 2)
    assert not oracles.is_shuffle_word((-1, 2, -1), 1, 2)
    assert not oracles.is_shuffle_word((-2, -1), 0, 2)


def chain(k):
    return FinitePoset.closure([(i, i + 1) for i in range(k - 1)], k)


@pytest.mark.parametrize(
    "poset",
    [j_poset(n).poset for n in range(1, 9)] + [build_bool(3).poset, chain(5), FinitePoset.closure([], 6)],
)
def test_antichains_match_the_recursive_oracle_in_order(poset):
    assert poset.antichains() == oracles.antichains(poset)
