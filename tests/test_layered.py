"""Gathered radial evaluation in layered: one Bessel call per function and
kind present, and the same numbers as evaluating zone by zone."""

import numpy as np
import pytest

from evla import fluence, layered, specfn, thermal
from evla.params import Region, region_index

BESSEL = ("j0", "j1", "y0", "y1", "i0", "i1", "k0", "k1")


@pytest.fixture
def kernel_calls(monkeypatch):
    """A list that records the name of every specfn call made through the
    module attributes, as layered looks them up."""
    calls = []

    def counting(name):
        inner = getattr(specfn, name)

        def counted(x):
            calls.append(name)
            return inner(x)
        return counted

    for name in BESSEL:
        monkeypatch.setattr(specfn, name, counting(name))
    return calls


def _zone_radii(geo):
    """Every zone edge (each belongs to its outer zone) and two radii
    inside every zone."""
    edges = np.array(geo.edges)
    mids = [lo + frac * (hi - lo) for lo, hi in zip(edges, edges[1:])
            for frac in (0.3, 0.8)]
    return np.sort(np.concatenate([edges, mids]))


def test_one_kernel_call_per_function_and_kind(temp810, kernel_calls):
    ps = temp810.ps
    geo = ps.geometry
    v, t_end = ps.protocol.v, ps.protocol.t_end
    # a damage_map-sized evaluation on radii in every zone
    z = np.array([-4.0, 0.0, 3.0])
    t = np.linspace(np.maximum(0.0, -z / v), t_end, 11, axis=-1)
    temp810.eval(_zone_radii(geo)[:, None, None], z[None, :, None], t)
    assert len(kernel_calls) <= 4, kernel_calls
    assert sorted(kernel_calls) == sorted(set(kernel_calls))

    # the mode search's systems: trial rates on both sides of every
    # basis switch, so every zone holds J0/Y0 and I0/K0 columns
    del kernel_calls[:]
    u = np.linspace(0.005, 1.5, 40)
    layered.assemble(thermal._mode_spec(ps, u))
    assert len(kernel_calls) <= 8, kernel_calls
    assert set(kernel_calls) == set(BESSEL)

    del kernel_calls[:]
    fluence.interface_jumps(temp810.sol)
    assert len(kernel_calls) <= 8, kernel_calls


def _tables(temp):
    """The radial tables of a built solution: the full term table (zones
    from the axis) and the offset and modes alone (zones from r_i)."""
    tissue = layered.stack([temp.offset, temp.modes])
    return {"terms": temp.terms.radial, "tissue": tissue}


@pytest.mark.parametrize("preset", ["810-15w", "980-15w", "980-10w",
                                    "1064-10w"])
def test_gathered_values_match_per_region(all_presets, preset):
    ps = all_presets[preset]
    geo = ps.geometry
    temp = thermal.build_temperature(ps)
    rng = np.random.default_rng(12)
    r = np.concatenate([_zone_radii(geo), rng.uniform(0.0, geo.r_s, 60)])
    zone = region_index(r, geo)
    for name, prof in _tables(temp).items():
        for deriv, gathered in ((False, prof.values), (True, prof.derivs)):
            got = gathered(r)
            assert got.shape == (prof.a.shape[1], r.size)
            # inward of the first zone every profile is zero
            inner = zone < prof.first
            assert np.all(got[:, inner] == 0.0), name
            for k, region in enumerate(Region):
                cols = zone == k
                if k < prof.first or not np.any(cols):
                    continue
                want = prof.at(region, r[cols], deriv)
                scale = np.max(np.abs(want), axis=1, keepdims=True)
                assert np.all(np.abs(got[:, cols] - want)
                              <= 1e-13 * scale), (name, deriv, region)


def test_gathered_shapes_follow_the_radii(temp810):
    prof = temp810.terms.radial
    geo = temp810.ps.geometry
    r = np.linspace(0.0, geo.r_s, 12).reshape(3, 4)
    np.testing.assert_array_equal(prof.values(r).reshape(-1, 12),
                                  prof.values(r.ravel()))
    assert prof.derivs(geo.r_s).shape == (prof.a.shape[1],)
    assert prof.values(np.zeros(0)).shape == (prof.a.shape[1], 0)
