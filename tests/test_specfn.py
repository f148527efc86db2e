import numpy as np
import pytest
import scipy.special as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from evla import specfn
from oracles import (
    ref_asym_sum, ref_hankel_pq, ref_j0, ref_j1, ref_y0, ref_y1, ref_i0,
    ref_i1, ref_k0, ref_k1,
)

RNG = np.random.default_rng(20240811)

PAIRS = [
    (specfn.j0, sps.j0, ref_j0, False),
    (specfn.j1, sps.j1, ref_j1, False),
    (specfn.y0, sps.y0, ref_y0, True),
    (specfn.y1, sps.y1, ref_y1, True),
    (specfn.i0, sps.i0, ref_i0, False),
    (specfn.i1, sps.i1, ref_i1, False),
    (specfn.k0, sps.k0, ref_k0, True),
    (specfn.k1, sps.k1, ref_k1, True),
]


def test_frozen_values():
    # classic handbook values, 15 digits
    assert specfn.j0(1.0) == pytest.approx(0.765197686557967, abs=1e-14)
    assert specfn.j1(1.0) == pytest.approx(0.440050585744934, abs=1e-14)
    assert specfn.y0(1.0) == pytest.approx(0.088256964215677, abs=1e-14)
    assert specfn.y1(1.0) == pytest.approx(-0.781212821300289, abs=1e-14)
    assert specfn.i0(1.0) == pytest.approx(1.266065877752008, abs=1e-14)
    assert specfn.i1(1.0) == pytest.approx(0.565159103992485, abs=1e-14)
    assert specfn.k0(1.0) == pytest.approx(0.421024438240708, abs=1e-14)
    assert specfn.k1(1.0) == pytest.approx(0.601907230197235, abs=1e-14)


@pytest.mark.parametrize("ours,theirs,_ref,_pos", PAIRS,
                         ids=[p[0].__name__ for p in PAIRS])
def test_against_scipy_wide_range(ours, theirs, _ref, _pos):
    x = np.concatenate([
        10.0 ** RNG.uniform(-6, 2, 400),          # log-spread 1e-6 .. 100
        RNG.uniform(1e-3, 100.0, 400),            # linear spread
        np.linspace(0.05, 100.0, 997),
    ])
    if ours in (specfn.i0, specfn.i1):
        x = x[x <= 600.0]
    got = ours(x)
    want = theirs(x)
    scale = np.maximum(np.abs(want), np.sqrt(2.0 / (np.pi * np.maximum(x, 1e-6))))
    assert np.all(np.abs(got - want) <= 1e-12 * scale), (
        "max rel err %.3e at x=%.6f"
        % ((np.abs(got - want) / scale).max(), x[(np.abs(got - want) / scale).argmax()])
    )


@pytest.mark.parametrize("ours,_theirs,ref,_pos", PAIRS,
                         ids=[p[0].__name__ for p in PAIRS])
def test_against_independent_series(ours, _theirs, ref, _pos):
    # plain-Python series oracle, trustworthy only below its cancellation knee
    # (x <~ 8 for J/Y/I, x <~ 5 for K where the knee arrives sooner)
    xs = [1e-5, 0.01, 0.3, 1.0, 2.7, 5.0]
    if ours not in (specfn.k0, specfn.k1):
        xs.append(8.0)
    for x in xs:
        want = ref(x)
        assert ours(x) == pytest.approx(want, rel=2e-12, abs=5e-13)


def test_crossover_continuity():
    # adjacent regime implementations must agree at the switch point itself
    def pair(fa, fb, edge, scale=1.0):
        e = np.array([edge])
        assert abs(fa(e)[0] - fb(e)[0]) < 5e-13 * scale

    pair(specfn._series_j0, specfn._quad_j0, 7.5)
    pair(specfn._series_j1, specfn._quad_j1, 7.5)
    pair(specfn._series_y0, specfn._quad_y0, 7.5)
    pair(specfn._series_y1, specfn._quad_y1, 7.5)
    pair(specfn._quad_j0, lambda v: specfn._asym_jy(v, 0.0, False), 40.0)
    pair(specfn._quad_j1, lambda v: specfn._asym_jy(v, 1.0, False), 40.0)
    pair(specfn._quad_y0, lambda v: specfn._asym_jy(v, 0.0, True), 40.0)
    pair(specfn._quad_y1, lambda v: specfn._asym_jy(v, 1.0, True), 40.0)
    pair(specfn._series_i0, lambda v: specfn._asym_i(v, 0.0), 17.0,
         scale=specfn.i0(17.0))
    pair(specfn._series_i1, lambda v: specfn._asym_i(v, 1.0), 17.0,
         scale=specfn.i1(17.0))
    pair(specfn._series_k0, lambda v: specfn._quad_k(v, 0), 4.0)
    pair(specfn._series_k1, lambda v: specfn._quad_k(v, 1), 4.0)
    pair(lambda v: specfn._quad_k(v, 0), lambda v: specfn._asym_k(v, 0.0), 20.0)
    pair(lambda v: specfn._quad_k(v, 1), lambda v: specfn._asym_k(v, 1.0), 20.0)


def _cheb_jy(nu, want_y):
    return lambda v: specfn._cheb_jy(v, nu, want_y)


def _cheb_k(nu):
    return lambda v: specfn._cheb_k(v, nu)


JY_MID = [  # (table, quadrature it is fitted from, series, asymptotic)
    (_cheb_jy(0.0, False), specfn._quad_j0, specfn._series_j0,
     lambda v: specfn._asym_jy(v, 0.0, False)),
    (_cheb_jy(1.0, False), specfn._quad_j1, specfn._series_j1,
     lambda v: specfn._asym_jy(v, 1.0, False)),
    (_cheb_jy(0.0, True), specfn._quad_y0, specfn._series_y0,
     lambda v: specfn._asym_jy(v, 0.0, True)),
    (_cheb_jy(1.0, True), specfn._quad_y1, specfn._series_y1,
     lambda v: specfn._asym_jy(v, 1.0, True)),
]
K_MID = [
    (_cheb_k(0), lambda v: specfn._quad_k(v, 0), specfn._series_k0,
     lambda v: specfn._asym_k(v, 0.0)),
    (_cheb_k(1), lambda v: specfn._quad_k(v, 1), specfn._series_k1,
     lambda v: specfn._asym_k(v, 1.0)),
]


@pytest.mark.parametrize("table,quad,_series,_asym", JY_MID,
                         ids=["j0", "j1", "y0", "y1"])
def test_jy_table_matches_quadrature(table, quad, _series, _asym):
    x = np.linspace(7.5, 40.0, 6501)[:-1]
    envelope = np.sqrt(2.0 / (np.pi * x))
    assert np.max(np.abs(table(x) - quad(x)) / envelope) <= 1e-14


@pytest.mark.parametrize("table,quad,_series,_asym", K_MID, ids=["k0", "k1"])
def test_k_table_matches_quadrature(table, quad, _series, _asym):
    x = np.linspace(4.0, 20.0, 6401)[:-1]
    assert np.max(np.abs(table(x) / quad(x) - 1.0)) <= 1e-14


@pytest.mark.parametrize(
    "table,series,asym,edges,relative",
    [(t, s, a, (7.5, 40.0), False) for t, _q, s, a in JY_MID]
    + [(t, s, a, (4.0, 20.0), True) for t, _q, s, a in K_MID],
    ids=["j0", "j1", "y0", "y1", "k0", "k1"])
def test_table_continuity(table, series, asym, edges, relative):
    # the tables against the regimes on either side, at the switch points:
    # J/Y relative to the envelope sqrt(2/(pi x)), K relative to its value
    for edge, other in zip(edges, (series, asym)):
        e = np.array([edge])
        want = other(e)[0]
        scale = abs(want) if relative else np.sqrt(2.0 / (np.pi * edge))
        assert abs(table(e)[0] - want) < 5e-13 * scale


@pytest.mark.parametrize("ours,_theirs,_ref,_pos", PAIRS,
                         ids=[p[0].__name__ for p in PAIRS])
def test_batch_independence(ours, _theirs, _ref, _pos):
    # every regime in one call; each value must not depend on the others
    x = np.concatenate([np.linspace(1e-3, 60.0, 301),
                        [1e-6, 3.99, 4.0, 7.49, 7.5, 16.9, 17.0, 20.0,
                         39.9, 40.0, 150.0]])
    batch = ours(x)
    single = np.array([ours(v) for v in x])
    envelope = np.maximum(np.abs(single), np.sqrt(2.0 / (np.pi * x)))
    assert np.all(np.abs(batch - single) <= 1e-15 * envelope)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=1e-6, max_value=100.0), min_size=1,
                max_size=40))
def test_property_against_scipy(xs):
    x = np.array(xs)
    scale = np.sqrt(2.0 / (np.pi * x))
    for ours, theirs, _ref, _pos in PAIRS:
        want = theirs(x)
        bound = 1e-12 * np.maximum(np.abs(want), scale)
        assert np.all(np.abs(ours(x) - want) <= bound), ours.__name__


def test_wronskians():
    x = np.concatenate([RNG.uniform(0.01, 60.0, 500), [0.1, 1.0, 7.5, 40.0]])
    ws = specfn.wronskian_standard(x)
    assert np.allclose(ws, 2.0 / (np.pi * x), rtol=5e-12, atol=0)
    wm = specfn.wronskian_modified(x[x <= 50])
    assert np.allclose(wm, 1.0 / x[x <= 50], rtol=5e-12, atol=0)


def test_scalar_and_array_shapes():
    assert isinstance(specfn.j0(1.0), float)
    out = specfn.j0(np.array([[0.5, 1.0], [2.0, 50.0]]))
    assert out.shape == (2, 2)
    assert out[0, 1] == pytest.approx(specfn.j0(1.0), abs=1e-15)


def test_domain_errors():
    with pytest.raises(ValueError):
        specfn.j0(-1.0)
    with pytest.raises(ValueError):
        specfn.y0(0.0)
    with pytest.raises(ValueError):
        specfn.k1(0.0)
    with pytest.raises(ValueError):
        specfn.k0(np.array([1.0, -2.0]))
    with pytest.raises(ValueError):
        specfn.j0(np.nan)


def test_i_overflow():
    with pytest.raises(OverflowError):
        specfn.i0(800.0)
    with pytest.raises(OverflowError):
        specfn.i1(1200.0)


def test_small_argument_limits():
    assert specfn.j0(0.0) == 1.0
    assert specfn.i0(0.0) == 1.0
    assert specfn.j1(0.0) == 0.0
    assert specfn.i1(0.0) == 0.0
    # Y0 ~ (2/pi) ln x, K0 ~ -ln x as x -> 0+
    assert specfn.y0(1e-8) < -10
    assert specfn.k0(1e-8) > 10


# the lower edge of each function's asymptotic regime
ASYM_FROM = {"j0": 40.0, "j1": 40.0, "y0": 40.0, "y1": 40.0, "i0": 17.0,
             "i1": 17.0, "k0": 20.0, "k1": 20.0}


def test_asymptotic_sums_match_per_term_stop_rule(monkeypatch):
    # the sums' term count, set once per call from the smallest argument,
    # reproduces the per-term rule tested on every point: bit for bit, on
    # 1-point calls and on batches spanning the regime up to x = 700
    rng = np.random.default_rng(1203)
    batches = {name: [lo * np.exp(rng.uniform(0.0, np.log(700.0 / lo),
                                              size))
                      for size in (1, 1, 2, 3, 8, 40, 300) * 25]
               for name, lo in ASYM_FROM.items()}
    for x in batches["j0"]:
        for nu in (0.0, 1.0):
            for got, want in zip(specfn._hankel_pq(x, nu),
                                 ref_hankel_pq(x, nu)):
                np.testing.assert_array_equal(got, want)
    for x in batches["k0"]:
        for nu in (0.0, 1.0):
            for alternating in (False, True):
                np.testing.assert_array_equal(
                    specfn._asym_sum(x, nu, alternating),
                    ref_asym_sum(x, nu, alternating))
    got = {name: [getattr(specfn, name)(x) for x in xs]
           for name, xs in batches.items()}
    monkeypatch.setattr(specfn, "_hankel_pq", ref_hankel_pq)
    monkeypatch.setattr(specfn, "_asym_sum", ref_asym_sum)
    for name, xs in batches.items():
        for x, value in zip(xs, got[name]):
            np.testing.assert_array_equal(value, getattr(specfn, name)(x),
                                          err_msg=name)
