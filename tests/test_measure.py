import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from tailvol.expansion import ForwardVarianceCurve
from tailvol.filters import FilterKind, FilterSpec, FilterState, GarchSpec, NoiseModel
from tailvol.measure import (
    ModelError,
    PremiaBoundError,
    RiskPremia,
    decay_integral,
    eigen_from_omega,
    filter_cov_matrix,
    kurtosis_bound,
    noise_moments,
    omega_eigen,
    omega_matrix,
    pca_loadings,
    pricing_params,
    spot_cov_products,
    validate_premia,
    varswap_price,
    varswap_slope,
)

DT = 1.0 / 252.0


def _sym_only_spec():
    return GarchSpec(
        filters=(FilterSpec(50.0, 0.6), FilterSpec(10.0, 0.4)), dt_years=DT
    )


def _asym_only_spec():
    return GarchSpec(
        filters=(FilterSpec(20.0, 1.0, FilterKind.ASYMMETRIC),), dt_years=DT
    )


# ---------------------------------------------------------------- noise moments


def test_gaussian_noise_moments():
    mom = noise_moments(NoiseModel())
    assert mom.m4 == pytest.approx(3.0, rel=1e-12)
    assert mom.m3_minus == pytest.approx(-math.sqrt(2.0 / math.pi), rel=1e-12)


def test_student_t6_noise_moments_closed_form():
    # standardized t with 6 dof: kurtosis 3(v-2)/(v-4) = 6 and, by a small
    # gamma-function miracle, E[eps^3; eps<0] = -1 exactly
    mom = noise_moments(NoiseModel("student_t", dof=6.0))
    assert mom.m4 == pytest.approx(6.0, rel=1e-8)
    assert mom.m3_minus == pytest.approx(-1.0, rel=1e-8)


def test_student_t_moments_match_quadrature():
    dof = 8.0
    mom = noise_moments(NoiseModel("student_t", dof=dof))
    s = math.sqrt((dof - 2.0) / dof)

    def density(x):
        # standardized t density
        from scipy.stats import t as tdist

        return tdist.pdf(x / s, dof) / s

    m4, _ = quad(lambda x: x**4 * density(x), -np.inf, np.inf, limit=300)
    m3m, _ = quad(lambda x: x**3 * density(x), -np.inf, 0, limit=300)
    assert mom.m4 == pytest.approx(m4, rel=1e-7)
    assert mom.m3_minus == pytest.approx(m3m, rel=1e-7)


# ---------------------------------------------------------------- pricing map


def test_mean_reversion_rate_is_inverse_length(three_scale_spec, gaussian_moments):
    params = pricing_params(three_scale_spec, RiskPremia(0.0, 0.0, 0.0), gaussian_moments)
    np.testing.assert_allclose(params.theta, [252.0 / 1000.0, 7.0, 42.0], rtol=1e-14)


def test_drift_targets_by_kind(three_scale_spec, gaussian_moments):
    lam2 = 0.25
    params = pricing_params(three_scale_spec, RiskPremia(lam2, 0.0, 0.0), gaussian_moments)
    np.testing.assert_allclose(params.delta, [1.25, 1.25, 1.5], rtol=1e-14)


def test_vol_of_vol_hand_values(gaussian_moments):
    spec = GarchSpec(
        filters=(FilterSpec(36.0, 0.5), FilterSpec(6.0, 0.5, FilterKind.ASYMMETRIC)),
        dt_years=DT,
    )
    params = pricing_params(spec, RiskPremia(0.0, 0.0, 0.0), gaussian_moments)
    # sym: sqrt(m4 - 1) / (L sqrt(dt)) = sqrt(2 * 252) / 36
    assert params.xi[0] == pytest.approx(math.sqrt(504.0) / 36.0, rel=1e-12)
    # asym: sqrt(2 m4 - 1) / (L sqrt(dt)) = sqrt(5 * 252) / 6
    assert params.xi[1] == pytest.approx(math.sqrt(1260.0) / 6.0, rel=1e-12)


def test_spot_correlations_hand_values(gaussian_moments):
    spec = GarchSpec(
        filters=(FilterSpec(36.0, 0.5), FilterSpec(6.0, 0.5, FilterKind.ASYMMETRIC)),
        dt_years=DT,
    )
    lam3 = 0.1  # small enough that lambda4 = 0 stays above the kurtosis floor
    params = pricing_params(spec, RiskPremia(0.0, lam3, 0.0), gaussian_moments)
    assert params.rho_plus == pytest.approx(-lam3 / math.sqrt(2.0), rel=1e-12)
    m3m = -math.sqrt(2.0 / math.pi)
    assert params.rho_minus == pytest.approx(2.0 * (m3m - lam3) / math.sqrt(5.0), rel=1e-12)
    assert params.rho_cross == pytest.approx(2.0 / math.sqrt(10.0), rel=1e-12)


def test_spot_cov_products_free_of_kurtosis_premium(gaussian_moments):
    spec = GarchSpec(
        filters=(FilterSpec(36.0, 0.5), FilterSpec(6.0, 0.5, FilterKind.ASYMMETRIC)),
        dt_years=DT,
    )
    prod = spot_cov_products(spec, 0.3, 0.5, gaussian_moments)
    for lam4 in (0.44, 1.0, 3.0):
        params = pricing_params(spec, RiskPremia(0.3, 0.5, lam4), gaussian_moments)
        rho = np.where(params.is_asymmetric, params.rho_minus, params.rho_plus)
        np.testing.assert_allclose(params.xi * rho, prod, rtol=1e-12)


def test_filter_cov_matrix_matches_loadings(three_scale_spec, gaussian_moments):
    premia = RiskPremia(0.3, 0.5, 1.0)
    params = pricing_params(three_scale_spec, premia, gaussian_moments)
    loads = pca_loadings(params)
    # drop the spot column: remaining columns span the variance drivers
    gram = (params.xi[:, None] * loads) @ (params.xi[:, None] * loads).T
    cov = filter_cov_matrix(three_scale_spec, premia.lambda4, gaussian_moments)
    np.testing.assert_allclose(gram, cov, rtol=1e-10, atol=1e-12)


def test_pricing_params_rejects_premia_below_floor(three_scale_spec, gaussian_moments):
    floor = kurtosis_bound(0.3, 0.5, gaussian_moments, three_scale_spec)
    with pytest.raises(PremiaBoundError):
        pricing_params(three_scale_spec, RiskPremia(0.3, 0.5, floor - 0.01), gaussian_moments)
    params = pricing_params(
        three_scale_spec, RiskPremia(0.3, 0.5, floor + 1e-6), gaussian_moments
    )
    assert abs(params.rho_cross_resid) <= 1.0 + 1e-9


# ---------------------------------------------------------------- kurtosis floor


def test_kurtosis_bound_at_origin(three_scale_spec, gaussian_moments):
    expect = (16.0 / math.pi - 6.0) / (5.0 - 8.0 / math.pi)
    got = kurtosis_bound(0.0, 0.0, gaussian_moments, three_scale_spec)
    assert got == pytest.approx(expect, rel=1e-12)


def test_kurtosis_bound_saturates_residual_correlation(three_scale_spec, gaussian_moments):
    floor = kurtosis_bound(0.3, 0.5, gaussian_moments, three_scale_spec)
    chk = validate_premia(three_scale_spec, RiskPremia(0.3, 0.5, floor), gaussian_moments)
    assert abs(abs(chk.rho_cross_resid) - 1.0) < 1e-7


@given(
    lam2=st.floats(-0.4, 3.0),
    lam3=st.floats(-2.0, 2.0),
)
@settings(max_examples=150, deadline=None)
def test_kurtosis_bound_is_the_validity_edge(lam2, lam3):
    spec = GarchSpec(
        filters=(
            FilterSpec(1000.0, 0.1),
            FilterSpec(36.0, 0.4),
            FilterSpec(6.0, 0.5, FilterKind.ASYMMETRIC),
        ),
        dt_years=DT,
    )
    mom = noise_moments(NoiseModel())
    floor = kurtosis_bound(lam2, lam3, mom, spec)
    ok_above = validate_premia(spec, RiskPremia(lam2, lam3, floor + 1e-4), mom).ok
    ok_below = validate_premia(spec, RiskPremia(lam2, lam3, floor - 1e-4), mom).ok
    assert ok_above
    assert not ok_below


def test_single_kind_floors(gaussian_moments):
    m4 = gaussian_moments.m4
    m3m = gaussian_moments.m3_minus
    lam2, lam3 = 0.2, 0.7
    sym = kurtosis_bound(lam2, lam3, gaussian_moments, _sym_only_spec())
    assert sym == pytest.approx(lam3**2 / (1 + lam2) - (m4 - 1.0), rel=1e-12)
    asym = kurtosis_bound(lam2, lam3, gaussian_moments, _asym_only_spec())
    assert asym == pytest.approx(
        (m3m - lam3) ** 2 / (1 + lam2) - (2.0 * m4 - 1.0) / 4.0, rel=1e-12
    )
    # at the single-kind floor the spot correlation saturates
    chk = validate_premia(_sym_only_spec(), RiskPremia(lam2, lam3, sym + 1e-12), gaussian_moments)
    assert abs(chk.rho_plus) == pytest.approx(1.0, abs=1e-6)


def test_kurtosis_bound_undefined_denominator_raises(three_scale_spec, gaussian_moments):
    with pytest.raises(ModelError):
        kurtosis_bound(-0.8, 0.0, gaussian_moments, three_scale_spec)


# ---------------------------------------------------------------- loadings


def test_loadings_rows_unit_norm_and_correlations(three_scale_spec, gaussian_moments):
    params = pricing_params(three_scale_spec, RiskPremia(0.3, 0.5, 1.0), gaussian_moments)
    loads = pca_loadings(params)
    assert loads.shape == (3, 4)
    np.testing.assert_allclose(np.linalg.norm(loads, axis=1), 1.0, rtol=1e-12)
    # spot column reproduces the spot correlations
    np.testing.assert_allclose(
        loads[:, 0],
        np.where(params.is_asymmetric, params.rho_minus, params.rho_plus),
        rtol=1e-12,
    )
    gram = loads @ loads.T
    # same-family filters share one driver
    assert gram[0, 1] == pytest.approx(1.0, rel=1e-12)
    # mixed pairs hit the cross correlation
    assert gram[0, 2] == pytest.approx(params.rho_cross, rel=1e-10)


@given(
    lam2=st.floats(-0.3, 2.0),
    lam3=st.floats(-1.5, 1.5),
    bump=st.floats(1e-6, 4.0),
)
@settings(max_examples=150, deadline=None)
def test_loadings_gram_psd_above_floor(lam2, lam3, bump):
    spec = GarchSpec(
        filters=(
            FilterSpec(1000.0, 0.1),
            FilterSpec(36.0, 0.4),
            FilterSpec(6.0, 0.5, FilterKind.ASYMMETRIC),
        ),
        dt_years=DT,
    )
    mom = noise_moments(NoiseModel())
    lam4 = kurtosis_bound(lam2, lam3, mom, spec) + bump
    params = pricing_params(spec, RiskPremia(lam2, lam3, lam4), mom)
    loads = pca_loadings(params)
    gram = loads @ loads.T
    assert np.linalg.eigvalsh(gram).min() >= -1e-10


# ---------------------------------------------------------------- eigensystem


def test_omega_single_filter_scalar(gaussian_moments):
    spec = GarchSpec(filters=(FilterSpec(25.0, 1.0),), dt_years=DT)
    lam2 = -0.2
    eig = omega_eigen(spec, RiskPremia(lam2, 0.0, 0.0))
    theta = 252.0 / 25.0
    assert eig.rates[0] == pytest.approx(-theta * lam2, rel=1e-12)


def test_omega_zero_rate_without_variance_premium(three_scale_spec):
    eig = omega_eigen(three_scale_spec, RiskPremia(0.0, 0.0, 0.0))
    assert np.min(np.abs(eig.rates)) < 1e-10
    assert (eig.rates < -1e-10).sum() == 0


def test_omega_one_growing_mode_with_positive_premium(three_scale_spec):
    eig = omega_eigen(three_scale_spec, RiskPremia(0.3, 0.0, 0.0))
    assert (eig.rates < 0.0).sum() == 1
    eig2 = omega_eigen(three_scale_spec, RiskPremia(-0.3, 0.0, 0.0))
    assert (eig2.rates < 0.0).sum() == 0


def test_eigen_reconstructs_generator(three_scale_spec):
    eig = omega_eigen(three_scale_spec, RiskPremia(0.3, 0.0, 0.0))
    np.testing.assert_allclose(
        eig.u @ np.diag(eig.rates) @ eig.u_inv, eig.omega, atol=1e-8
    )
    assert np.all(np.diff(eig.rates) >= 0.0)


def test_eigen_rejects_complex_spectrum():
    # a rotation block has eigenvalues +-i
    omega = np.array([[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(ModelError):
        eigen_from_omega(omega, np.array([0.5, 0.5]))


def test_omega_matrix_layout():
    theta = np.array([2.0, 4.0])
    delta = np.array([1.5, 1.5])
    w = np.array([0.3, 0.7])
    om = omega_matrix(theta, delta, w)
    expect = np.array(
        [
            [2.0 * (1 - 1.5 * 0.3), 2.0 * (0 - 1.5 * 0.7)],
            [4.0 * (0 - 1.5 * 0.3), 4.0 * (1 - 1.5 * 0.7)],
        ]
    )
    np.testing.assert_allclose(om, expect, rtol=1e-14)


# ---------------------------------------------------------------- decay integral


def test_decay_integral_limits():
    assert decay_integral(0.0, 3.0) == pytest.approx(3.0)
    assert decay_integral(1e-31, 3.0) == pytest.approx(3.0)
    assert decay_integral(2.0, 1.0) == pytest.approx((1.0 - math.exp(-2.0)) / 2.0, rel=1e-14)
    # vectorized over both arguments
    out = decay_integral(np.array([0.0, 1.0]), np.array([2.0, 2.0]))
    np.testing.assert_allclose(out, [2.0, 1.0 - math.exp(-2.0)], rtol=1e-12)


# ---------------------------------------------------------------- prices


def test_forward_variance_at_zero_horizon(three_scale_spec, flat_state, mild_premia):
    eig = omega_eigen(three_scale_spec, mild_premia)
    f0 = ForwardVarianceCurve.from_state(flat_state, eig, mild_premia)(0.0)
    assert f0 == pytest.approx((1.0 + mild_premia.lambda2) * 0.04, rel=1e-10)


def test_varswap_price_integrates_forward_variance(three_scale_spec, flat_state, mild_premia):
    eig = omega_eigen(three_scale_spec, mild_premia)
    maturity = 0.7
    val = varswap_price(flat_state, eig, mild_premia, maturity)
    curve = ForwardVarianceCurve.from_state(flat_state, eig, mild_premia)
    quad_val, err = quad(curve, 0.0, maturity)
    assert val == pytest.approx(quad_val, rel=1e-9)


def test_varswap_price_vectorized(three_scale_spec, flat_state, mild_premia):
    eig = omega_eigen(three_scale_spec, mild_premia)
    taus = np.array([0.25, 0.5, 1.0])
    vals = varswap_price(flat_state, eig, mild_premia, taus)
    singles = [varswap_price(flat_state, eig, mild_premia, float(t)) for t in taus]
    np.testing.assert_allclose(vals, singles, rtol=1e-13)


# ------------------------------------------------------------------ GARCH(1,1)
# GARCH(1,1) is a constant anchor of weight 1 - alpha plus one EMA of weight
# alpha.  Its closed-form variance swap, kept here as an independent oracle,
# interpolates between the spot level and a premium-shifted long-run level
# at the effective rate theta (1 - c), c = alpha (1 + lambda2).


def _garch11(nu_bar, alpha, length, x):
    spec = GarchSpec(
        filters=(FilterSpec(math.inf, 1.0 - alpha), FilterSpec(length, alpha)), dt_years=DT
    )
    return spec, FilterState.from_levels([nu_bar, x], spec, dt.date(2024, 1, 2))


def _garch11_oracle(nu_bar, alpha, length, lambda2, x, tau):
    c = alpha * (1.0 + lambda2)
    theta_eff = (1.0 - c) / (length * DT)
    x_bar = nu_bar * (1.0 - alpha) * (1.0 + lambda2) / (1.0 - c)
    return x_bar * tau + c * float(decay_integral(theta_eff, tau)) * (x - x_bar)


@pytest.mark.parametrize(
    "nu_bar, alpha, length, lambda2, x, taus",
    [
        (0.04, 0.3, 20.0, 0.3, 0.09, (1e-8, 0.4, 0.5)),
        (0.04, 0.3, 20.0, 0.0, 0.09, (0.1, 0.5, 1.0)),
        (0.04, 0.25, 25.0, 0.3, 0.04, (0.1, 0.5, 2.0)),
        (0.123, 1.0, 30.0, -0.2, 0.07, (0.1, 0.5, 2.0)),  # no anchor weight
        (0.04, 0.9, 20.0, 0.2, 0.05, (0.1, 1.0, 2.0)),  # c > 1: growing mode
    ],
)
def test_garch11_varswap_matches_closed_form(nu_bar, alpha, length, lambda2, x, taus):
    spec, state = _garch11(nu_bar, alpha, length, x)
    premia = RiskPremia(lambda2, 0.0, 0.0)
    eig = omega_eigen(spec, premia)
    for tau in taus:
        want = _garch11_oracle(nu_bar, alpha, length, lambda2, x, tau)
        assert varswap_price(state, eig, premia, tau) == pytest.approx(want, rel=1e-12)


def test_garch11_alpha_zero_is_flat():
    spec, state = _garch11(0.05, 0.0, 20.0, 0.99)
    premia = RiskPremia(0.4, 0.0, 0.0)
    eig = omega_eigen(spec, premia)
    for tau in (0.1, 1.0, 3.0):
        assert varswap_price(state, eig, premia, tau) == pytest.approx(0.05 * 1.4 * tau, rel=1e-12)


def test_garch11_short_maturity_slope():
    spec, state = _garch11(0.04, 0.3, 20.0, 0.09)
    premia = RiskPremia(0.3, 0.0, 0.0)
    eps = 1e-8
    v = varswap_price(state, omega_eigen(spec, premia), premia, eps)
    assert v / eps == pytest.approx((1.0 + 0.3) * state.nu, rel=1e-6)


def test_garch11_matches_single_filter_generator():
    # a one-filter spec with full weight is the alpha = 1 special case
    spec = GarchSpec(filters=(FilterSpec(30.0, 1.0),), dt_years=DT)
    premia = RiskPremia(-0.2, 0.0, 0.0)
    eig = omega_eigen(spec, premia)
    x = 0.07
    state = FilterState(x=np.array([x]), nu=x, as_of=dt.date(2024, 1, 2))
    for tau in (0.1, 0.5, 2.0):
        want = _garch11_oracle(0.123, 1.0, 30.0, -0.2, x, tau)
        assert varswap_price(state, eig, premia, tau) == pytest.approx(want, rel=1e-12)


def test_garch11_defective_generator_raises():
    # at alpha (1 + lambda2) = 1 both rates vanish and Omega is not diagonalizable
    spec, _ = _garch11(0.04, 0.8, 20.0, 0.05)
    with pytest.raises(ModelError):
        omega_eigen(spec, RiskPremia(0.25, 0.0, 0.0))


def _assert_slope_is_gradient(spec, premia, x, tau=0.5, h=1e-6):
    eig = omega_eigen(spec, premia)
    g = varswap_slope(eig, premia, tau)
    for i, bump in enumerate(np.eye(spec.n_filters) * h):
        up, down = (FilterState.from_levels(x + b, spec, dt.date(2024, 1, 2)) for b in (bump, -bump))
        fd = (varswap_price(up, eig, premia, tau) - varswap_price(down, eig, premia, tau)) / (2.0 * h)
        assert g[i] == pytest.approx(fd, rel=1e-7)


def test_garch11_slope_is_derivative():
    spec, state = _garch11(0.04, 0.3, 20.0, 0.05)
    premia = RiskPremia(0.3, 0.0, 0.0)
    _assert_slope_is_gradient(spec, premia, state.x)
    # the moving filter's entry is the closed form's c * decay(theta_eff, tau)
    c = 0.3 * 1.3
    g = varswap_slope(omega_eigen(spec, premia), premia, 0.5)
    assert g[1] == pytest.approx(c * float(decay_integral((1.0 - c) / (20.0 * DT), 0.5)), rel=1e-12)


def test_varswap_slope_is_gradient_of_price(three_scale_spec, mild_premia):
    _assert_slope_is_gradient(three_scale_spec, mild_premia, np.array([0.03, 0.05, 0.08]))


def test_constant_anchor_adds_no_bound(gaussian_moments):
    # a constant filter has no noise factor, so it must not bring in the
    # symmetric-family conditions
    anchored = GarchSpec(
        filters=(FilterSpec(math.inf, 0.5), FilterSpec(6.0, 0.5, FilterKind.ASYMMETRIC)),
        dt_years=DT,
    )
    asym_only = GarchSpec(filters=(FilterSpec(6.0, 1.0, FilterKind.ASYMMETRIC),), dt_years=DT)
    premia = RiskPremia(0.0, -0.9, -1.2)
    assert validate_premia(anchored, premia, gaussian_moments).ok
    want = kurtosis_bound(0.0, -0.9, gaussian_moments, asym_only)
    assert want == pytest.approx(-1.2396, abs=1e-4)
    assert kurtosis_bound(0.0, -0.9, gaussian_moments, anchored) == want
    params = pricing_params(anchored, premia, gaussian_moments)
    assert params.theta[0] == 0.0 and params.xi[0] == 0.0
