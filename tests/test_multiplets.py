"""Exact multiplet bookkeeping: Clebsch-Gordan decomposition, massless
and massive towers, truncation-aware tensor products, and the orbital
factor search."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from swsh.errors import NegativeSpin, SearchBudgetExceeded
from swsh.multiplets import (
    factor_search,
    massive_spectrum,
    massless_spectrum,
    spectrum,
    spectrum_tensor,
    spectrum_to_json,
    tensor_decompose,
)


def window_of(sp):
    return sp.max_j() if sp.complete else sp.j_max


def assert_matches_on_window(product, target, window):
    for j in range(window + 1):
        assert product.multiplicities.get(j, 0) == target.multiplicities.get(j, 0)


# --------------------------------------------------------------- constructors

def test_spectrum_validation():
    with pytest.raises(ValueError):
        spectrum({-1: 1})
    with pytest.raises(ValueError):
        spectrum({2: -1})
    with pytest.raises(ValueError):
        spectrum({5: 1}, j_max=4)  # entry above the cutoff


def test_zero_counts_are_dropped():
    sp = spectrum({0: 1, 1: 0, 2: 3})
    assert dict(sp.multiplicities) == {0: 1, 2: 3}
    assert sp.sorted_items() == [(0, 1), (2, 3)]


def test_string_keys_coerced():
    sp = spectrum({"2": "5"})
    assert sp.multiplicity(2) == 5


def test_complete_vs_truncated_queries():
    complete = spectrum({1: 1})
    assert complete.complete
    assert complete.multiplicity(40) == 0
    cut = spectrum({1: 1}, j_max=3)
    assert not cut.complete
    assert cut.multiplicity(3) == 0
    with pytest.raises(ValueError):
        cut.multiplicity(4)  # unspecified above the cutoff


def test_dimension_and_max_j():
    sp = spectrum({0: 1, 2: 3})
    assert sp.dimension() == 1 + 3 * 5
    assert sp.max_j() == 2
    assert spectrum({}).max_j() == -1
    assert spectrum({}).dimension() == 0


def test_equality_includes_cutoff():
    assert spectrum({1: 1}) == spectrum({1: 1, 2: 0})
    assert spectrum({1: 1}) != spectrum({1: 1}, j_max=5)
    assert spectrum({1: 1}, j_max=5) == spectrum({1: 1}, j_max=5)


# ----------------------------------------------------------- tensor_decompose

def test_tensor_decompose_triangle_range():
    assert tensor_decompose(1, 1) == spectrum({0: 1, 1: 1, 2: 1})
    assert tensor_decompose(4, 0) == spectrum({4: 1})
    assert tensor_decompose(3, 2) == spectrum({1: 1, 2: 1, 3: 1, 4: 1, 5: 1})
    assert tensor_decompose(2, 3) == tensor_decompose(3, 2)


def test_tensor_decompose_validation():
    with pytest.raises(NegativeSpin):
        tensor_decompose(-1, 2)
    with pytest.raises(NegativeSpin):
        tensor_decompose(2, -1)
    with pytest.raises(ValueError):
        tensor_decompose(1.5, 1)


# ------------------------------------------------------------ spectrum_tensor

def test_tensor_with_orbital_tower_builds_massive_pattern():
    tower = spectrum({l: 1 for l in range(13)}, j_max=12)
    out = spectrum_tensor(spectrum({1: 1}), tower)
    assert out == massive_spectrum(1, 11)  # sound window shrinks by one


def test_tensor_identity_element():
    one = spectrum({0: 1})
    for sp in (spectrum({2: 3, 5: 1}), massless_spectrum(2, 9)):
        assert spectrum_tensor(sp, one) == sp
        assert spectrum_tensor(one, sp) == sp


def test_tensor_with_contrived_splitting_gives_massless_tower():
    contrived = spectrum({l: 1 for l in (0, 3, 6, 9, 12)}, j_max=12)
    out = spectrum_tensor(spectrum({1: 1}), contrived)
    assert out == massless_spectrum(1, 11)


def test_tensor_cutoff_floors_at_minus_one():
    out = spectrum_tensor(spectrum({0: 1}, j_max=1), spectrum({5: 1}))
    assert out.j_max == -1
    assert dict(out.multiplicities) == {}


complete_spectra = st.dictionaries(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=3),
    max_size=4,
).map(spectrum)


@given(complete_spectra, complete_spectra)
def test_tensor_conserves_dimension(sa, sb):
    # exact integer identity for complete spectra, no truncation involved
    assert spectrum_tensor(sa, sb).dimension() == sa.dimension() * sb.dimension()


@given(complete_spectra, complete_spectra)
def test_tensor_commutes(sa, sb):
    assert spectrum_tensor(sa, sb) == spectrum_tensor(sb, sa)


@given(complete_spectra, complete_spectra, complete_spectra)
def test_tensor_associates(sa, sb, sc):
    left = spectrum_tensor(spectrum_tensor(sa, sb), sc)
    right = spectrum_tensor(sa, spectrum_tensor(sb, sc))
    assert left == right


# ------------------------------------------------------------- model spectra

def test_massless_spectrum_examples():
    assert massless_spectrum(1, 5) == spectrum({j: 1 for j in range(1, 6)}, 5)
    assert massless_spectrum(0, 3) == spectrum({j: 1 for j in range(4)}, 3)
    assert massless_spectrum(-2, 4) == spectrum({2: 1, 3: 1, 4: 1}, 4)


def test_massless_spectrum_one_multiplet_per_j():
    for h in range(-3, 4):
        sp = massless_spectrum(h, 20)
        for j in range(21):
            assert sp.multiplicity(j) == (1 if j >= abs(h) else 0)


def test_massless_spectrum_validation():
    with pytest.raises(ValueError):
        massless_spectrum(2, 1)  # cutoff below |h|
    with pytest.raises(ValueError):
        massless_spectrum(0.5, 3)


def test_massive_spectrum_formulas():
    assert massive_spectrum(1, 3) == spectrum({0: 1, 1: 3, 2: 3, 3: 3}, 3)
    assert massive_spectrum(2, 4) == spectrum({0: 1, 1: 3, 2: 5, 3: 5, 4: 5}, 4)
    for s in range(4):
        sp = massive_spectrum(s, 20)
        for j in range(21):
            assert sp.multiplicity(j) == (2 * j + 1 if j < s else 2 * s + 1)
    assert dict(massive_spectrum(0, 6).multiplicities) == dict(
        massless_spectrum(0, 6).multiplicities
    )


def test_massive_spectrum_validation():
    with pytest.raises(NegativeSpin):
        massive_spectrum(-1, 5)
    with pytest.raises(ValueError):
        massive_spectrum(1, -1)


def test_massive_tower_cross_check():
    # spin times a one-per-l orbital tower reproduces the massive pattern
    # on the window the truncation still guarantees
    for s in (1, 2, 3):
        tower = spectrum({l: 1 for l in range(15)}, j_max=14)
        out = spectrum_tensor(spectrum({s: 1}), tower)
        assert out == massive_spectrum(s, 14 - s)


# --------------------------------------------------------------- factor search

def test_factor_search_massless_photon_patterns():
    target = massless_spectrum(1, 12)
    sols = factor_search(target, 1, l_max=12)
    # The skip-two ladder from l = 0 solves the equation; so does a second
    # family starting at l = 2, which differs from it only through content
    # at the truncation edge.  Both reproduce the target on the window.
    assert [dict(s.sorted_items()) for s in sols] == [
        {0: 1, 3: 1, 6: 1, 9: 1, 12: 1},
        {2: 1, 5: 1, 8: 1, 11: 1},
    ]
    window = min(target.j_max, 12 - 1)
    for sol in sols:
        product = spectrum_tensor(spectrum({1: 1}), sol)
        assert_matches_on_window(product, target, window)


def test_factor_search_massive_includes_full_tower():
    sols = factor_search(massive_spectrum(1, 12), 1, l_max=12)
    tower = {l: 1 for l in range(13)}
    assert tower in [dict(s.sorted_items()) for s in sols]


def test_factor_search_rejects_impossible_target():
    assert factor_search(spectrum({0: 1}), 1) == []


def test_factor_search_with_trivial_spin_returns_target():
    target = massless_spectrum(1, 12)
    sols = factor_search(target, 0, l_max=12)
    assert len(sols) == 1
    assert dict(sols[0].sorted_items()) == dict(target.multiplicities)


def test_factor_search_budget():
    # three distinct solutions exist, so the walk over the free pairs must
    # branch at least once; a zero budget has to trip
    with pytest.raises(SearchBudgetExceeded):
        factor_search(massive_spectrum(1, 12), 1, l_max=12, branch_limit=0)


def test_factor_search_budget_counts_branch_points_over_the_pairs():
    # a = 2 has two free pairs with three admissible values each: one
    # branch at the first pair, then one under each of its three values
    target = massive_spectrum(2, 12)
    assert len(factor_search(target, 2, l_max=12, branch_limit=4)) == 9
    with pytest.raises(SearchBudgetExceeded):
        factor_search(target, 2, l_max=12, branch_limit=3)
    with pytest.raises(SearchBudgetExceeded):
        factor_search(massive_spectrum(5, 20), 5)  # 121 branch points > 64


def test_factor_search_counts_no_branch_when_a_pair_has_no_value():
    # pair 1 admits several values and pair 2 none: there is no solution,
    # and no walk needs to branch to find that out
    orbital = spectrum({l: 1 + l % 2 for l in range(10)}, 9)
    target = spectrum_tensor(spectrum({3: 1}), orbital)
    assert factor_search(target, 2, l_max=6, max_mult=2, branch_limit=0) == []


def test_factor_search_work_is_bounded_by_the_target_not_max_mult():
    # each free value is bounded by a first difference of the target, so a
    # huge max_mult costs no more than a small one
    target = massless_spectrum(1, 12)
    assert factor_search(target, 1, max_mult=10**9) == factor_search(target, 1)


def brute_force_factors(target, a, l_max, max_mult):
    """Every O in [0, max_mult]^(l_top + 1) with V_a (x) O = target on the window.

    The window rules are factor_search's; l below a - window reaches no j
    of the window and is held at zero, as content that cannot influence
    the window is canonically zero.
    """
    if target.complete:
        l_top = l_max
        window = l_top + a
    else:
        window = min(target.j_max, l_max - a)
        l_top = min(l_max, window + a)
    if l_top < 0 or window < 0:
        return []
    if target.complete and target.max_j() > window:
        return []
    reach = np.array(
        [[abs(j - a) <= l <= j + a for l in range(l_top + 1)] for j in range(window + 1)],
        dtype=int,
    )
    want = np.array([target.multiplicities.get(j, 0) for j in range(window + 1)])
    ranges = [
        range(max_mult + 1) if reach[:, l].any() else (0,) for l in range(l_top + 1)
    ]
    orbitals = np.array(list(itertools.product(*ranges)), dtype=int)
    hits = orbitals[(orbitals @ reach.T == want).all(axis=1)]
    found = [spectrum(dict(enumerate(o.tolist()))) for o in hits]
    found.sort(key=lambda sp: tuple(sp.sorted_items()))
    return found


BRUTE_FORCE_TARGETS = (
    [massless_spectrum(h, cut) for h in range(3) for cut in (h, 4, 7)]
    + [massive_spectrum(s, cut) for s in range(3) for cut in (0, 3, 7)]
    + [
        spectrum({}),
        spectrum({0: 1}),
        spectrum({1: 2, 2: 1}),
        spectrum({0: 1, 1: 1, 2: 2, 3: 1}),
        spectrum_tensor(spectrum({1: 1}), spectrum({0: 1, 2: 2, 3: 1})),
        spectrum_tensor(spectrum({2: 1}), spectrum({l: 1 for l in range(6)}, 5)),
        spectrum_tensor(spectrum({1: 1}), spectrum({l: 1 + l % 2 for l in range(7)}, 6)),
    ]
)


@pytest.mark.parametrize("a", range(4))
@pytest.mark.parametrize("max_mult", (1, 2))
def test_factor_search_finds_every_factor_a_brute_force_finds(a, max_mult):
    for target in BRUTE_FORCE_TARGETS:
        for l_max in range(7):
            expected = brute_force_factors(target, a, l_max, max_mult)
            got = factor_search(target, a, l_max=l_max, max_mult=max_mult, branch_limit=10**6)
            assert [sp.sorted_items() for sp in got] == [
                sp.sorted_items() for sp in expected
            ], (target, a, l_max, max_mult)


def test_factor_search_is_deterministic():
    target = massless_spectrum(1, 10)
    first = factor_search(target, 1, l_max=10)
    second = factor_search(target, 1, l_max=10)
    assert [dict(s.sorted_items()) for s in first] == [
        dict(s.sorted_items()) for s in second
    ]


def test_factor_search_solutions_always_verify():
    # generic validity: whatever comes back must reproduce the target on
    # the sound window
    for a in (1, 2):
        for cut in (8, 11):
            target = massless_spectrum(a, cut)
            sols = factor_search(target, a, l_max=cut)
            assert sols, f"no solutions for h={a}, cutoff {cut}"
            window = min(cut, cut - a)
            for sol in sols:
                product = spectrum_tensor(spectrum({a: 1}), sol)
                assert_matches_on_window(product, target, window)


def test_factor_search_validation():
    target = massless_spectrum(1, 6)
    with pytest.raises(NegativeSpin):
        factor_search(target, -1)
    with pytest.raises(TypeError):
        factor_search({1: 1}, 1)
    with pytest.raises(ValueError):
        factor_search(target, 1, max_mult=0)
    with pytest.raises(ValueError):
        factor_search(target, 1, branch_limit=-1)  # would trip with no branch


def test_factor_search_refuses_fractional_limits():
    # a fractional l_max was floored and a fractional max_mult ran as an
    # integer, or raised a bare TypeError on some targets
    target = massless_spectrum(1, 12)
    for kwargs in ({"l_max": 7.9}, {"max_mult": 2.5}, {"branch_limit": 63.5}, {"l_max": float("inf")}):
        with pytest.raises(ValueError, match="must be an integer"):
            factor_search(target, 1, **kwargs)
    with pytest.raises(ValueError, match="max_mult"):
        factor_search(spectrum({0: 1, 1: 4, 2: 4}, 2), 1, max_mult=2.5)
    assert factor_search(target, 1, l_max=7.0, max_mult=2.0) == factor_search(target, 1, l_max=7, max_mult=2)


def test_integer_inputs_are_refused_not_truncated():
    # 12.7 was cut at j_max 12 and a label 1.5 relabelled as j = 1
    for build in (
        lambda: massless_spectrum(1, 12.7),
        lambda: massless_spectrum(1.5, 12),
        lambda: massive_spectrum(1, float("inf")),
        lambda: massive_spectrum(0.5, 4),
        lambda: spectrum({1.5: 2}),
        lambda: spectrum({1: 2.5}),
        lambda: spectrum({1: 2}, j_max=3.5),
    ):
        with pytest.raises(ValueError, match="must be an integer"):
            build()
    assert massless_spectrum(1.0, 12.0) == massless_spectrum(1, 12)
    assert spectrum({1.0: 2.0}, j_max=3.0) == spectrum({1: 2}, j_max=3)


# ----------------------------------------------------------------------- JSON

def test_spectrum_json_layout():
    text = spectrum_to_json(massless_spectrum(1, 12))
    payload = json.loads(text)
    assert list(payload) == ["j_max", "multiplicities"]
    assert payload["j_max"] == 12
    assert payload["multiplicities"]["12"] == 1
    # keys appear in numeric order and the text is reproducible
    keys = list(payload["multiplicities"])
    assert keys == [str(j) for j in range(1, 13)]
    assert text == spectrum_to_json(massless_spectrum(1, 12))


def test_spectrum_json_of_complete_spectrum_reports_top_j():
    payload = json.loads(spectrum_to_json(spectrum({2: 3, 7: 1})))
    assert payload["j_max"] == 7
    assert payload["multiplicities"] == {"2": 3, "7": 1}
