"""The closed-form manufactured forcing against a symbolic derivation.

build_mms_case writes F* and G* out by hand; here sympy differentiates the
same exact fields from the balance laws themselves, and every field must
agree to round-off on an (x, t) grid."""

import numpy as np
import pytest
import sympy as sp

from smabar.constitutive import cu_based
from smabar.manufactured import build_mms_case

P = cu_based()


def sympy_case(params, length, u_amplitude, omega_u, theta_bar,
               theta_amplitude, omega_t):
    """u*, v*, theta*, F*, G* lambdified from a symbolic derivation."""
    x, t = sp.symbols("x t", real=True)
    L = sp.Float(length)
    a, bb = sp.Float(u_amplitude), sp.Float(theta_amplitude)
    wu, wt = sp.Float(omega_u), sp.Float(omega_t)

    u_e = a * sp.sin(sp.pi * x / L) * sp.sin(wu * t)
    th_e = sp.Float(theta_bar) + bb * sp.cos(sp.pi * x / L) * sp.cos(wt * t)

    k1, k2, k3 = map(sp.Float, (params.k1, params.k2, params.k3))
    th1 = sp.Float(params.theta1)
    rho, cv = sp.Float(params.rho), sp.Float(params.cv)
    k_of_th = sp.Float(params.k0) * (1 + sp.Float(params.beta_tilde) * th_e)

    ux = sp.diff(u_e, x)
    stress = k1 * (th_e - th1) * ux - k2 * ux ** 3 + k3 * ux ** 5
    f_body = rho * sp.diff(u_e, t, 2) - sp.diff(stress, x)
    g_heat = (cv * sp.diff(th_e, t) - sp.diff(k_of_th * sp.diff(th_e, x), x)
              - k1 * th_e * ux * sp.diff(ux, t))

    exprs = {"u": u_e, "v": sp.diff(u_e, t), "theta": th_e,
             "body": f_body, "heat": g_heat}
    return {name: sp.lambdify((x, t), e, "numpy") for name, e in exprs.items()}


CASES = {
    "default": (P, 1.0, 0.005, 3.0, 300.0, 5.0, 2.0),
    "beta_L_amplitudes": (P.with_(beta_tilde=2e-3), 2.5, 0.02, 7.0, 250.0,
                          -12.0, 0.5),
}


@pytest.mark.parametrize("name", CASES)
def test_closed_form_matches_sympy(name):
    args = CASES[name]
    case = build_mms_case(*args)
    oracle = sympy_case(*args)
    x, times = np.linspace(0.0, args[1], 41), np.linspace(0.0, 1.5, 17)
    for field, ref_fn in oracle.items():
        got = np.stack([getattr(case, field)(x, t) for t in times])
        ref = np.stack([np.broadcast_to(ref_fn(x, t), x.shape) for t in times])
        scale = np.abs(ref).max()
        assert scale > 0.0
        assert np.abs(got - ref).max() <= 1e-12 * scale, field


@pytest.mark.parametrize("changed", [{"tau0": 1e-3}, {"mu": 0.1},
                                     {"nu": 1.0}, {"gamma": 1e-6}])
def test_regime_outside_the_case_rejected(changed):
    with pytest.raises(ValueError, match="tau0 = mu = nu = gamma = 0"):
        build_mms_case(P.with_(**changed))


def test_cached_modes_match_an_uncached_case():
    """Alternating two node vectors of one size through one case gives,
    field for field, the bits of a case built fresh for every call."""
    args = CASES["beta_L_amplitudes"]
    case = build_mms_case(*args)
    xa = np.linspace(0.0, args[1], 33)
    xb = np.linspace(0.1, 0.9 * args[1], 33)
    for t in np.linspace(0.0, 1.5, 7):
        for x in (xa, xb, xb, xa):
            for field in ("u", "v", "theta", "body", "heat"):
                got = getattr(case, field)(x, t)
                fresh = getattr(build_mms_case(*args), field)(x, t)
                assert got.tobytes() == fresh.tobytes(), field
