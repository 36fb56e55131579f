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
from hochlat.hochschild import a_irr, b_irr, enumerate_triwords, irreducibles
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


@pytest.mark.parametrize("n", range(1, 6))
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
