"""The declared envelope j <= J_MAX, n_theta, n_phi <= NODES_MAX and multiplet j <= MULTIPLET_J_MAX, at every public entry that checks it.

Each entry accepts J_MAX and refuses J_MAX + 1 with InvalidMode and the
one message form of modes.check_j_supported, "<what> exceeds the
supported maximum j = J_MAX"; the CLI exits 2 with that message.  Each
grid entry accepts NODES_MAX nodes and refuses one more with
TooManyNodes, "<size> = <n> exceeds the supported maximum of NODES_MAX
nodes".  Each multiplet entry accepts MULTIPLET_J_MAX and refuses one
more with InvalidMode, "<what> exceeds the supported maximum multiplet
j = MULTIPLET_J_MAX", before it allocates.  Every case is written in
terms of the caps, so raising one is one constant and this test runs at
the new one.
"""

import io
import os
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from swsh import (EmbeddedSection, SphereGrid, SWMode, analyze, apply_projected_orbital,
                  coefficient_set, factor_search, make_grid, massive_spectrum, massless_spectrum,
                  mode_counts, sample_swsh, spectrum)
from swsh.cli import main
from swsh.errors import InvalidMode, TooManyNodes
from swsh.modes import J_MAX, MULTIPLET_J_MAX, NODES_MAX


def swsh(*argv):
    """Run the CLI; an exit 2 with one "swsh: " line raises InvalidMode with it, any other run must pass."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(a) for a in argv])
    err = err.getvalue()
    if code == 2 and err.startswith("swsh: ") and err.endswith("\n") and not out.getvalue():
        raise InvalidMode(err[len("swsh: ") : -1])
    assert code == 0 and err == "", (code, err)


def analysis_over(n):
    return analyze(sample_swsh(make_grid(J_MAX + 1), SWMode(0, 1, 0)), band_limit=n)


def orbital_over(n):
    grid = make_grid(n)
    return apply_projected_orbital(EmbeddedSection(grid, 1, np.zeros(grid.shape + (3,))))


# entry -> (its call at j or band n, what its refusal names at n)
ENTRIES = {
    "mode-label": (lambda n: SWMode(0, n, 0), "j={}"),
    "set-entry": (lambda n: coefficient_set(0, J_MAX, {(n, 0): 1.0}), "j={}"),
    "set-band": (lambda n: coefficient_set(0, n), "coefficient band limit {}"),
    "analyze-band": (analysis_over, "analysis band limit {}"),
    "projected-orbital": (orbital_over, "analysis band limit {}"),
    "verify-ortho-L": (lambda n: swsh("verify", "ortho", "-L", n), "j={}"),
    "verify-ladder-j": (lambda n: swsh("verify", "ladder", "-s", n, "-j", n), "j={}"),
    "verify-poles-j": (lambda n: swsh("verify", "poles", "-s", 0, "-j", n), "j={}"),
}


@pytest.mark.parametrize("entry", ENTRIES)
def test_every_public_entry_accepts_j_max_and_refuses_one_more(entry):
    call, what = ENTRIES[entry]
    call(J_MAX)
    with pytest.raises(InvalidMode) as info:
        call(J_MAX + 1)
    want = f"{what.format(J_MAX + 1)} exceeds the supported maximum j = {J_MAX}"
    assert type(info.value) is InvalidMode and str(info.value) == want


def test_a_huge_declared_band_is_refused_before_any_allocation():
    tracemalloc.start()
    try:
        with pytest.raises(InvalidMode, match=f"coefficient band limit {10**6} exceeds"):
            coefficient_set(0, 10**6, {})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


# entry -> (its call k nodes past the cap, the size its refusal names at k = 1)
GRID_ENTRIES = {
    "grid-n_theta": (lambda k: SphereGrid(0, NODES_MAX + k, 1), f"n_theta = {NODES_MAX + 1}"),
    "grid-n_phi": (lambda k: SphereGrid(0, 1, NODES_MAX + k), f"n_phi = {NODES_MAX + 1}"),
    "make-grid-L": (lambda k: make_grid(NODES_MAX // 2 + k), f"n_phi = {NODES_MAX + 2}"),
}


@pytest.mark.parametrize("entry", GRID_ENTRIES)
def test_every_grid_entry_accepts_nodes_max_and_refuses_one_more(entry):
    call, what = GRID_ENTRIES[entry]
    call(0)
    with pytest.raises(TooManyNodes) as info:
        call(1)
    assert str(info.value) == f"{what} exceeds the supported maximum of {NODES_MAX} nodes"


def test_eval_grid_past_the_cap_exits_2():
    # --grid 4096 would write 33.6 M rows, so only the refusal runs here
    with pytest.raises(InvalidMode, match=f"^n_phi = {NODES_MAX + 2} exceeds the supported maximum"):
        swsh("eval", "-s", 0, "-j", 0, "-m", 0, "--grid", NODES_MAX // 2 + 1, "--out", os.devnull)


HUGE_GRIDS = {
    "L=10**30": lambda: make_grid(10**30),
    "L=2**63": lambda: make_grid(2**63),
    "L=1e308": lambda: make_grid(1e308),
    "n_theta=10**30": lambda: make_grid(4, n_theta=10**30),
}


@pytest.mark.parametrize("grid", HUGE_GRIDS)
def test_a_huge_grid_is_refused_before_any_allocation(grid):
    tracemalloc.start()
    try:
        with pytest.raises(TooManyNodes, match="^n_theta = [0-9]+ exceeds"):
            HUGE_GRIDS[grid]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


# entry -> (its call at multiplet j_max n, what its refusal names at n)
MULTIPLET_ENTRIES = {
    "massless-spectrum": (lambda n: massless_spectrum(1, n), "j_max={}"),
    "massive-spectrum": (lambda n: massive_spectrum(2, n), "j_max={}"),
    "mode-counts": (lambda n: mode_counts(-1, n), "j_max={}"),
    "factor-search-l_max": (lambda n: factor_search(massless_spectrum(1, 12), 1, l_max=n), "l_max={}"),
    "multiplets-massless-jmax": (lambda n: swsh("multiplets", "--massless", 1, "--jmax", n), "j_max={}"),
    "multiplets-massive-jmax": (lambda n: swsh("multiplets", "--massive", 1, "--jmax", n), "j_max={}"),
    "multiplets-lmax": (lambda n: swsh("multiplets", "--massless", 1, "--jmax", 12,
                                       "--factor-search", 1, "--lmax", n), "l_max={}"),
    "verify-spectrum-match-j": (lambda n: swsh("verify", "spectrum-match", "-j", n), "j_max={}"),
}


@pytest.mark.parametrize("entry", MULTIPLET_ENTRIES)
def test_every_multiplet_entry_accepts_the_cap_and_refuses_one_more_before_allocating(entry):
    call, what = MULTIPLET_ENTRIES[entry]
    with redirect_stdout(io.StringIO()):
        call(MULTIPLET_J_MAX)
    tracemalloc.start()
    try:
        with pytest.raises(InvalidMode) as info:
            call(MULTIPLET_J_MAX + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = f"{what.format(MULTIPLET_J_MAX + 1)} exceeds the supported maximum multiplet j = {MULTIPLET_J_MAX}"
    assert type(info.value) is InvalidMode and str(info.value) == want
    assert peak < 10**6


@pytest.mark.parametrize("j_max", [10**30, 2**63, 1e308])
def test_a_huge_multiplet_j_max_is_refused_before_any_allocation(j_max):
    # massless_spectrum(1, 1e308) was once killed for memory
    tracemalloc.start()
    try:
        for call in (massless_spectrum, massive_spectrum):
            with pytest.raises(InvalidMode, match="exceeds the supported maximum multiplet j"):
                call(1, j_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_a_factor_search_window_past_the_cap_is_refused():
    # a complete target's window is its largest j plus 2a, and a cutoff
    # target's its cutoff: both are refused before the chains are walked
    for target, a in ((spectrum({1: 1}), MULTIPLET_J_MAX), (spectrum({}, 10**30), 1)):
        with pytest.raises(InvalidMode, match="^factor search window j <= [0-9]+ exceeds the supported maximum multiplet j"):
            factor_search(target, a)
