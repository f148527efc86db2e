"""Locked reference outputs for the four presets.

tests/data/golden.npz holds the fluence, the derived temperature, the
relaxation rates, the Robin offset, a dose map and the crossing-time table
of every preset, as computed by the code it was generated from.  A refactor
that claims to leave the numbers unchanged must pass this test without
regenerating the file.

Regenerate (only when a change of the numbers is intended) with

    PYTHONPATH=src python tests/test_golden.py

Fields are compared by relative L2 (the fluence crosses zero in the pad,
so elementwise relative checks are meaningless there); rates and crossing
times elementwise.  The dose is compared with its tolerance scaled by the
Arrhenius amplification E_a/(R T_air): a relative change eps in T changes
the dose by about that factor times eps.
"""

from pathlib import Path

import numpy as np
import pytest

from evla import damage, fluence, params, thermal

PATH = Path(__file__).resolve().parent / "data" / "golden.npz"
TOL = 1e-10

Z = np.array([0.0, 1.5, 6.0])
T = np.array([0.0, 2.5, 10.0])
DOSE_N_T = 201


def field_radii(geo):
    """Every interface radius and r_s, plus points inside each zone."""
    return np.array([0.0, 0.1, geo.r_f, 2.0, geo.r_i, 4.0, geo.r_w, 8.0,
                     11.0, geo.r_p, 16.0, geo.r_s])


def arrhenius_amplification(ps):
    t_k = ps.protocol.T_air + 273.15
    return max(th.E_a for th in ps.thermal.values()) / (params.R_GAS * t_k)


def compute(name):
    """{key: array} of the checked outputs of one preset."""
    ps = params.preset_params(name)
    geo = ps.geometry
    sol = fluence.assemble_and_solve(ps)
    temp = thermal.build_temperature(ps, sol)
    rr, zz, tt = np.meshgrid(field_radii(geo), Z, T, indexing="ij")
    dm = damage.damage_map(temp, np.linspace(0.5, geo.r_s - 0.5, 6),
                           np.linspace(-geo.L + 1.0, geo.L - 1.0, 6),
                           n_t=DOSE_N_T)
    crit = damage.crit_time_table(ps)
    return {
        "fluence": sol.eval(rr, zz, tt),
        "temperature": temp.eval(rr, zz, tt),
        "zeta": np.array([m.zeta for m in temp.modal]),
        "offset": temp.offset.profile.values(
            np.linspace(0.0, geo.r_s, 50))[0],
        "omega": dm.omega,
        "t_cross": dm.t_cross,
        "crit_times": np.array([[row[mat] for mat in params.MATERIALS]
                                for _, row in crit]),
    }


def rel_l2(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@pytest.fixture(scope="module")
def golden():
    with np.load(PATH) as data:
        return {k: data[k] for k in data.files}


@pytest.mark.parametrize("name", sorted(params.PRESETS))
def test_golden_outputs(name, golden):
    got = compute(name)
    ref = {k: golden[name + "." + k] for k in got}
    ps = params.preset_params(name)
    for key in ("fluence", "offset"):
        assert rel_l2(got[key], ref[key]) <= TOL, key
    # one time slice at a time: the forced terms reach ~1e12 degC at
    # t_end and would mask the uniform start in a single norm
    for k in range(T.size):
        assert rel_l2(got["temperature"][..., k],
                      ref["temperature"][..., k]) <= TOL, ("temperature", k)
    np.testing.assert_allclose(got["zeta"], ref["zeta"], rtol=TOL, atol=0.0)
    np.testing.assert_array_equal(np.isinf(got["crit_times"]),
                                  np.isinf(ref["crit_times"]))
    np.testing.assert_allclose(got["crit_times"], ref["crit_times"],
                               rtol=TOL, atol=0.0)
    amp = arrhenius_amplification(ps)
    np.testing.assert_allclose(got["omega"], ref["omega"], rtol=TOL * amp,
                               atol=0.0)
    np.testing.assert_array_equal(np.isinf(got["t_cross"]),
                                  np.isinf(ref["t_cross"]))
    fin = np.isfinite(ref["t_cross"])
    np.testing.assert_allclose(got["t_cross"][fin], ref["t_cross"][fin],
                               rtol=0.0,
                               atol=TOL * amp * ps.protocol.t_end)


if __name__ == "__main__":
    PATH.parent.mkdir(exist_ok=True)
    np.savez_compressed(PATH, **{name + "." + k: v
                                 for name in sorted(params.PRESETS)
                                 for k, v in compute(name).items()})
    print("wrote", PATH)
