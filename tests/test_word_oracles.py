"""The word functions and the antichain search against their letter-by-letter oracles.

Every rewritten function must give the oracle's value, or raise the oracle's
exception type, on every triword for n <= 8 and on malformed input for
n <= 5: every subset of the irreducibles of Hoch(n) with a_(n+1) and
b_(n+1) added, and every word of length <= n over the letters -2..n+1.
"""

from itertools import combinations, product

import pytest

import oracles
from hochlat import hochschild, shuffles, triangles
from hochlat.errors import MalformedLabelSet
from hochlat.hochschild import HochIrreducible, a_irr, b_irr, enumerate_triwords, irreducibles
from hochlat.lattice import build_bool
from hochlat.poset import FinitePoset
from hochlat.triangles import j_poset

WORD_FUNCTIONS = [
    (hochschild, "l1"),
    (hochschild, "f0"),
    (hochschild, "core_labels_formula"),
    (hochschild, "canrep_formula"),
    (shuffles, "sigma"),
    (triangles, "neg_stat"),
]


def outcome(f, *args):
    """f(*args), or the type of the exception it raises."""
    try:
        return f(*args)
    except Exception as err:  # any exception: its type is what is compared
        return type(err)


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
        assert shuffles.is_shuffle_word(w, n - 1, 1) is oracles.is_shuffle_word(w, n - 1, 1) is True


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
            for a, b in ((n - 1, 1), (n - 1, 2), (n, 2)):
                assert shuffles.is_shuffle_word(w, a, b) is oracles.is_shuffle_word(w, a, b), (w, a, b)
            assert outcome(shuffles.sigma_inverse, n, w) == outcome(oracles.sigma_inverse, n, w), w


@pytest.mark.parametrize("n", range(3, 6))
def test_psi_inverse_matches_oracle_on_labels_with_float_indices(n):
    """a2.0 and b3.0 equal a2 and b3 as labels but index no list: psi_inverse accepts a2.0 above the least a
    label and raises the oracle's TypeError where it would index the word by a float."""
    pool = irreducibles(n) + [HochIrreducible("a", 2.0), HochIrreducible("b", 3.0)]
    for k in range(len(pool) + 1):
        for labels in combinations(pool, k):
            assert outcome(hochschild.psi_inverse, n, labels) == outcome(oracles.psi_inverse, n, labels), labels


@pytest.mark.parametrize("n", range(1, 6))
def test_sigma_inverse_matches_oracle_on_words_with_a_non_integer_letter(n):
    """Each of "2", 2.0, True and None put in place of, or inserted before, each letter of every sigma(u),
    and alone: the one-pass decoder must choose between MalformedWord and TypeError as the oracle does."""
    for u in enumerate_triwords(n):
        w = shuffles.sigma(u)
        for odd in ("2", 2.0, True, None):
            words = [(odd,)] + [w[:k] + (odd,) + w[k + 1 :] for k in range(len(w))]
            words += [w[:k] + (odd,) + w[k:] for k in range(len(w) + 1)]
            for v in words:
                assert outcome(shuffles.sigma_inverse, n, v) == outcome(oracles.sigma_inverse, n, v), v


def test_inverses_decode_in_one_pass(monkeypatch):
    """psi_inverse checks its labels without core_labels_formula and sigma_inverse its word without
    is_shuffle_word: with both made to raise, every triword for n <= 6 still comes back from the oracle's
    core label set and shuffle word."""
    triwords = [(n, u) for n in range(1, 7) for u in oracles.enumerate_triwords(n)]
    cases = [(n, u, oracles.core_labels_formula(u), oracles.sigma(u)) for n, u in triwords]

    def second_pass(*args):
        raise AssertionError("a second pass over the input")

    monkeypatch.setattr(hochschild, "core_labels_formula", second_pass)
    monkeypatch.setattr(shuffles, "is_shuffle_word", second_pass)
    for n, u, labels, w in cases:
        assert hochschild.psi_inverse(n, labels) == u
        assert shuffles.sigma_inverse(n, w) == u


def test_is_shuffle_word_rejects_repeated_letters():
    assert shuffles.is_shuffle_word((2, 3), 2, 0)
    assert not shuffles.is_shuffle_word((2, 2), 2, 0)
    assert not shuffles.is_shuffle_word((3, 2), 2, 0)
    assert shuffles.is_shuffle_word((-1, 2, -2), 1, 2)
    assert not shuffles.is_shuffle_word((-1, 2, -1), 1, 2)
    assert not shuffles.is_shuffle_word((-2, -1), 0, 2)


def chain(k):
    return FinitePoset.closure([(i, i + 1) for i in range(k - 1)], k)


@pytest.mark.parametrize(
    "poset",
    [j_poset(n).poset for n in range(1, 9)] + [build_bool(3).poset, chain(5), FinitePoset.closure([], 6)],
)
def test_antichains_match_the_recursive_oracle_in_order(poset):
    assert poset.antichains() == oracles.antichains(poset)
