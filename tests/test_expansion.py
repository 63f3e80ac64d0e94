import dataclasses
import datetime as dt
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad

from tailvol.expansion import (
    ExpansionCoefficients,
    ForwardVarianceCurve,
    atm_skew,
    expansion_coefficients,
    coefficients_from_covariances,
    expansion_integrals,
    model_moments,
    psi,
)
from tailvol.filters import FilterState, NoiseModel
from tailvol.measure import (
    ModelError,
    RiskPremia,
    _drift_targets,
    decay_integral,
    filter_cov_matrix,
    noise_moments,
    omega_eigen,
    pricing_params,
    spot_cov_products,
    varswap_price,
)
from test_measure import _filter_banks


@pytest.fixture
def two_mode_curve():
    return ForwardVarianceCurve(weights=np.array([0.03, 0.01]), rates=np.array([0.5, 3.0]))


def test_flat_curve_values_and_integral():
    curve = ForwardVarianceCurve(weights=np.array([0.04]), rates=np.array([0.0]))
    assert curve(0.0) == pytest.approx(0.04)
    assert curve(2.5) == pytest.approx(0.04)
    assert curve.integral(2.5) == pytest.approx(0.1, rel=1e-14)


def test_curve_integral_matches_quadrature(two_mode_curve):
    val = two_mode_curve.integral(0.8)
    ref, _ = quad(two_mode_curve, 0.0, 0.8)
    assert val == pytest.approx(ref, rel=1e-10)


@given(spec=_filter_banks(), lam2=st.floats(-0.5, 4.0),
       levels=st.lists(st.floats(1e-4, 1.0), min_size=5, max_size=5),
       maturity=st.floats(1.0 / 252.0, 5.0))
@settings(max_examples=300, deadline=None)
def test_curve_integral_is_the_varswap_price(spec, lam2, levels, maturity):
    # one price summed in two orders, weights @ decay_integral against
    # (decay_integral @ modes) @ x: the Monte Carlo variance's mean is the
    # curve, and this integrates the curve into the price
    premia = RiskPremia(lam2, 0.0, 0.0)
    try:
        eig = omega_eigen(spec, premia)
    except ModelError:  # a defective generator
        assume(False)
    # an explosive mode may not overflow before the maturity
    assume(eig.rates[0] * maturity > -700.0)
    state = FilterState.from_levels(levels[:spec.n_filters], spec, dt.date(2024, 1, 2))
    curve = ForwardVarianceCurve.from_state(state, eig, premia)
    assert curve.integral(maturity) == pytest.approx(
        varswap_price(state, eig, premia, maturity), rel=1e-13)


def test_curve_call_vectorized(two_mode_curve):
    ts = np.array([0.0, 0.1, 1.0])
    np.testing.assert_allclose(
        two_mode_curve(ts), [two_mode_curve(float(t)) for t in ts], rtol=1e-14
    )


def test_expansion_integrals_match_direct_quadrature(two_mode_curve):
    # integrate the defining expressions directly and compare
    T = 0.5
    ints = expansion_integrals(two_mode_curve, T)
    rates = two_mode_curve.rates

    def phi(k, s):
        return -math.expm1(-k * s) / k

    for i, ki in enumerate(rates):
        ref, _ = quad(lambda t: two_mode_curve(t) ** 1.5 * phi(ki, T - t), 0.0, T)
        assert ints.jxf[i] == pytest.approx(ref, rel=1e-9)

    for i, ki in enumerate(rates):
        for j, kj in enumerate(rates):
            ref, _ = quad(
                lambda t: two_mode_curve(t) ** 2 * phi(ki, T - t) * phi(kj, T - t),
                0.0,
                T,
            )
            assert ints.jff[i, j] == pytest.approx(ref, rel=1e-9)

    for i, ki in enumerate(rates):
        for j, kj in enumerate(rates):
            ref, _ = dblquad(
                lambda u, t: (
                    two_mode_curve(t) ** 1.5
                    * math.sqrt(two_mode_curve(u))
                    * math.exp(-ki * (u - t))
                    * phi(kj, T - u)
                ),
                0.0,
                T,
                lambda t: t,
                lambda t: T,
                epsabs=1e-12,
                epsrel=1e-10,
            )
            assert ints.jmu[i, j] == pytest.approx(1.5 * ref, rel=1e-7)


def test_expansion_integrals_symmetry_and_total_variance(two_mode_curve):
    ints = expansion_integrals(two_mode_curve, 0.5)
    np.testing.assert_allclose(ints.jff, ints.jff.T, rtol=1e-12)
    assert ints.total_variance == pytest.approx(two_mode_curve.integral(0.5), rel=1e-14)


def test_expansion_integrals_panel_refinement_stable(two_mode_curve):
    a = expansion_integrals(two_mode_curve, 0.5)
    jxf, jff, jmu = _oracle_integrals(two_mode_curve, 0.5, 2.0)
    np.testing.assert_allclose(a.jxf, jxf, rtol=1e-11)
    np.testing.assert_allclose(a.jff, jff, rtol=1e-11)
    np.testing.assert_allclose(a.jmu, jmu, rtol=1e-9)


def test_integrals_reject_nonpositive_curve():
    curve = ForwardVarianceCurve(weights=np.array([0.02, -0.03]), rates=np.array([0.0, 0.1]))
    with pytest.raises(ModelError):
        expansion_integrals(curve, 1.0)


@pytest.mark.parametrize("weights, rates", [
    ([math.nan, 0.04], [1.0, 2.0]),   # else all-nan integrals
    ([0.04, 0.01], [1.0, math.inf]),  # else a ZeroDivisionError
    ([math.inf, 0.01], [1.0, 2.0]),
    ([0.04, 0.01], [-math.inf, 2.0]),
])
def test_curve_rejects_nonfinite_weights_or_rates(weights, rates):
    with pytest.raises(ValueError, match="weights and rates must be finite"):
        ForwardVarianceCurve(weights=np.array(weights), rates=np.array(rates))


def test_integrals_reject_a_curve_that_overflows_to_nan():
    # 2 e^{801 t} - e^{800 t} is positive, but past t = 0.887 both terms
    # overflow and the curve reads inf - inf = nan, which no "<= 0" test sees
    curve = ForwardVarianceCurve(weights=np.array([2.0, -1.0]), rates=np.array([-801.0, -800.0]))
    with np.errstate(over="ignore", invalid="ignore"):
        assert math.isnan(curve(1.0))
        with pytest.raises(ModelError, match="not positive"):
            expansion_integrals(curve, 1.0)


# ------------------------------------------- nested-quadrature oracle for jmu
# The original implementation: every outer node gets its own panel grid on
# [t, T], so the work is O(N_outer * N_inner).  Kept as the reference that
# the backward panel sweep in ``expansion_integrals`` must reproduce.

_GL_NODES = 32


def _panel_nodes(a: float, b: float, max_rate: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [a, b], panelized on the fastest scale."""
    span = b - a
    panel = min(1.0 / max_rate, span / 8.0) if max_rate > 0 else span / 8.0
    n_panels = max(int(math.ceil(span / panel)), 1)
    z, w = np.polynomial.legendre.leggauss(_GL_NODES)
    edges = np.linspace(a, b, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * z[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _oracle_integrals(curve, maturity, panel_scale=1.0):
    """(jxf, jff, jmu) by the nested double loop, on panels ``panel_scale``
    times denser than the ones ``expansion_integrals`` cuts."""
    rates = curve.rates
    max_rate = float(np.max(np.abs(rates))) * panel_scale
    t, wt = _panel_nodes(0.0, maturity, max_rate)
    f = curve(t)
    if (f <= 0.0).any():
        raise ModelError(
            "forward-variance curve is not positive on [0, T]; "
            "the expansion integrals are undefined"
        )
    f12 = np.sqrt(f)
    f32 = f * f12

    # phi_i(T - t) per node: shape (n_nodes, k)
    phi = decay_integral(rates[None, :], (maturity - t)[:, None])
    jxf = (wt * f32) @ phi
    jff = np.einsum("n,ni,nj->ij", wt * f * f, phi, phi)

    k = rates.size
    jmu = np.zeros((k, k))
    for n, (tn, wn) in enumerate(zip(t, wt)):
        if maturity - tn <= 0.0:
            continue
        u, wu = _panel_nodes(tn, maturity, max_rate)
        fu = curve(u)
        if (fu <= 0.0).any():
            raise ModelError("forward-variance curve is not positive on [0, T]")
        g = np.sqrt(fu)
        decay_i = np.exp(-np.multiply.outer(u - tn, rates))
        phi_j = decay_integral(rates[None, :], (maturity - u)[:, None])
        inner = np.einsum("m,mi,mj->ij", wu * g, decay_i, phi_j)
        jmu += wn * f32[n] * inner
    jmu *= 1.5
    return jxf, jff, jmu


@pytest.mark.parametrize(
    "maturity, panel_scale",
    [(1.0 / 12.0, 1.0), (0.25, 1.0), (1.0, 1.0), (2.0, 1.0), (0.25, 2.0), (1.0, 2.0)],
)
def test_expansion_integrals_match_nested_oracle(maturity, panel_scale):
    # the README model: its generator has a growing mode (rate -0.916/y)
    curve = _paper_style_setup(lam2=0.1, lam3=0.4, lam4=1.0)[-1]
    assert (curve.rates < 0.0).any()
    ints = expansion_integrals(curve, maturity)
    for got, want in zip((ints.jxf, ints.jff, ints.jmu), _oracle_integrals(curve, maturity, panel_scale)):
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("panel_scale", [1.0, 2.0])
def test_expansion_integrals_match_nested_oracle_zero_rate(panel_scale):
    curve = ForwardVarianceCurve(weights=np.array([0.03, 0.01, -0.005]), rates=np.array([0.0, 3.0, 12.0]))
    ints = expansion_integrals(curve, 1.0)
    for got, want in zip((ints.jxf, ints.jff, ints.jmu), _oracle_integrals(curve, 1.0, panel_scale)):
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_integrals_reject_curve_negative_between_outer_nodes():
    # F(t) = 0.01 (e^{2 t*} - e^{2 t}) turns negative at t*, halfway between the
    # last outer node and T: only the inner nodes of the last outer node see it
    T = 1.0
    z, _ = np.polynomial.legendre.leggauss(_GL_NODES)
    last_outer = T - 0.5 * (T / 8.0) * (1.0 - z.max())
    t_star = 0.5 * (last_outer + T)
    curve = ForwardVarianceCurve(
        weights=np.array([0.01 * math.exp(2.0 * t_star), -0.01]), rates=np.array([0.0, -2.0])
    )
    outer, _ = _panel_nodes(0.0, T, 2.0)
    assert (curve(outer) > 0.0).all() and curve(T) < 0.0
    with pytest.raises(ModelError):
        _oracle_integrals(curve, T)
    with pytest.raises(ModelError):
        expansion_integrals(curve, T)


@given(
    cxf=st.floats(-2.0, 2.0),
    cff=st.floats(0.0, 5.0),
    cmu=st.floats(-2.0, 2.0),
    v=st.floats(1e-4, 1.0),
    alpha=st.floats(-5.0, 5.0),
)
@settings(max_examples=300, deadline=None)
def test_psi_vanishes_at_zero_and_one(cxf, cff, cmu, v, alpha):
    co = ExpansionCoefficients(
        cxf=cxf, cff=cff, cmu=cmu, v=v, maturity=0.5
    )
    assert psi(0.0, co) == 0.0
    assert psi(1.0, co) == 0.0
    # generic alpha is nonzero unless the polynomial factors align
    val = psi(alpha, co)
    assert math.isfinite(val)


def test_psi_quadratic_part_only():
    co = ExpansionCoefficients(
        cxf=0.0, cff=0.0, cmu=0.0, v=0.08, maturity=1.0
    )
    # pure Black-Scholes: psi(alpha) = alpha (alpha - 1) V / 2
    assert psi(2.0, co) == pytest.approx(0.08)
    assert psi(-1.0, co) == pytest.approx(0.08)


def test_model_moments_lognormal_limit():
    co = ExpansionCoefficients(
        cxf=0.0, cff=0.0, cmu=0.0, v=0.01, maturity=0.25
    )
    trip = model_moments(co)
    assert trip.vswap_vol == pytest.approx(0.2, rel=1e-12)
    assert trip.skew_m == 0.0
    assert trip.kurt_m == 0.0


def _paper_style_setup(lam2=0.3, lam3=0.5, lam4=1.0):
    from tailvol.filters import FilterKind, FilterSpec, GarchSpec

    spec = GarchSpec(
        filters=(
            FilterSpec(1000.0, 0.1),
            FilterSpec(36.0, 0.4),
            FilterSpec(6.0, 0.5, FilterKind.ASYMMETRIC),
        ),
        dt_years=1.0 / 252.0,
    )
    premia = RiskPremia(lam2, lam3, lam4)
    mom = noise_moments(NoiseModel())
    eig = omega_eigen(spec, premia)
    params = pricing_params(spec, premia, mom)
    curve = ForwardVarianceCurve(
        weights=(1.0 + premia.lambda2) * (eig.modes @ np.full(3, 0.04)),
        rates=eig.rates.copy(),
    )
    return spec, premia, eig, params, curve


def test_coefficients_scale_homogeneously_in_vol_of_vol():
    _, _, eig, params, curve = _paper_style_setup()
    ints = expansion_integrals(curve, 0.5)
    base = expansion_coefficients(eig, params, ints)
    s = 0.37
    scaled = expansion_coefficients(eig, dataclasses.replace(params, xi=params.xi * s), ints)
    assert scaled.cxf == pytest.approx(s * base.cxf, rel=1e-12)
    assert scaled.cff == pytest.approx(s**2 * base.cff, rel=1e-12)
    assert scaled.cmu == pytest.approx(s**2 * base.cmu, rel=1e-12)
    assert scaled.v == pytest.approx(base.v, rel=1e-14)


def test_coefficient_v_equals_varswap_price(flat_state):
    spec, premia, eig, params, curve = _paper_style_setup()
    ints = expansion_integrals(curve, 0.5)
    co = expansion_coefficients(eig, params, ints)
    assert co.v == pytest.approx(varswap_price(flat_state, eig, premia, 0.5), rel=1e-10)


def test_skew_premium_steepens_atm_skew():
    skews = {}
    for lam3 in (0.0, 0.5):
        _, _, eig, params, curve = _paper_style_setup(lam3=lam3, lam4=1.0)
        co = expansion_coefficients(eig, params, expansion_integrals(curve, 0.25))
        skews[lam3] = atm_skew(co)
    assert skews[0.0] < 0.0  # asymmetric filters skew the smile on their own
    assert skews[0.5] < skews[0.0]


def test_zero_spot_correlation_kills_first_order_terms():
    _, _, eig, params, curve = _paper_style_setup()
    loads = params.loads.copy()
    loads[:, 0] = 0.0
    zeroed = dataclasses.replace(params, loads=loads)
    co = expansion_coefficients(eig, zeroed, expansion_integrals(curve, 0.5))
    assert co.cxf == pytest.approx(0.0, abs=1e-15)
    assert co.cmu == pytest.approx(0.0, abs=1e-15)
    assert co.cff > 0.0


def test_coefficients_from_covariances_contracts_in_the_eigenbasis():
    spec, premia, eig, params, curve = _paper_style_setup()
    ints = expansion_integrals(curve, 0.5)
    spot_cov = np.array([0.2, -0.1, 0.3])
    cov = np.array([[0.5, 0.1, 0.0], [0.1, 0.3, 0.05], [0.0, 0.05, 0.4]])
    co = coefficients_from_covariances(eig, spot_cov, cov, ints)
    # eigenbasis loadings a = wt * U^-1 s and b = wt wt^T * U^-1 C U^-T, with
    # wt = U^T w, from the eigenvectors U of Omega = Theta (I - delta w^T)
    theta = 1.0 / (spec.lengths * spec.dt_years)
    delta = _drift_targets(spec, premia.lambda2)
    ev, u = np.linalg.eig(theta[:, None] * (np.eye(3) - np.outer(delta, spec.weights)))
    u = u[:, np.argsort(ev)]
    wt = u.T @ spec.weights
    a = wt * np.linalg.solve(u, spot_cov)
    b = np.outer(wt, wt) * np.linalg.solve(u, np.linalg.solve(u, cov).T)
    assert co.cxf == pytest.approx(float(a @ ints.jxf), rel=1e-12)
    assert co.cff == pytest.approx(float(np.sum(b * ints.jff)), rel=1e-12)
    assert co.cmu == pytest.approx(float(a @ ints.jmu @ a), rel=1e-12)
    assert (co.v, co.maturity) == (ints.total_variance, 0.5)
    # the closed-form covariances the calibration stages contract give the
    # coefficients of the full pricing parameters
    mom = noise_moments(NoiseModel())
    staged = coefficients_from_covariances(
        eig,
        spot_cov_products(spec, premia.lambda2, premia.lambda3, mom),
        filter_cov_matrix(spec, premia.lambda4, mom),
        ints,
    )
    full = expansion_coefficients(eig, params, ints)
    for name in ("cxf", "cff", "cmu"):
        assert getattr(staged, name) == pytest.approx(getattr(full, name), rel=1e-12)


def test_model_moments_rejects_nonpositive_variance():
    co = ExpansionCoefficients(
        cxf=0.0, cff=0.0, cmu=0.0, v=0.0, maturity=1.0
    )
    with pytest.raises(ModelError):
        model_moments(co)


@pytest.mark.parametrize("v", [math.nan, math.inf, 0.0, -0.01])
@pytest.mark.parametrize("read", [model_moments, atm_skew], ids=["model_moments", "atm_skew"])
def test_moments_read_only_a_positive_finite_varswap_price(read, v):
    # varswap_price's rule: a nan v used to pass atm_skew as nan, and an inf
    # one reached ImpliedMomentTriple as a plain ValueError
    co = ExpansionCoefficients(cxf=-0.1, cff=0.0, cmu=0.0, v=v, maturity=1.0)
    message = f"varswap price {v!r} at maturity 1.0 is not positive and finite"
    with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
        read(co)


@pytest.mark.parametrize("call, error, message", [
    (lambda curve: expansion_integrals(curve, 0.0), ValueError, "maturity must be positive, got 0.0"),
    (lambda curve: expansion_integrals(curve, math.nan), ValueError, "maturity must be positive, got nan"),
])
def test_expansion_rejects_bad_inputs(three_scale_spec, flat_state, mild_premia, call, error, message):
    curve = ForwardVarianceCurve.from_state(flat_state, omega_eigen(three_scale_spec, mild_premia), mild_premia)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(curve)
