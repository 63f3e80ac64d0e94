import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from tailvol.calibration import (
    CalibrationInput,
    _stage_integrals,
    calibrate_sequential,
    fit_lambda3,
    fit_lambda4,
)
from tailvol.cli import main
from tailvol.data import dump_json, spec_to_dict
from tailvol.expansion import ForwardVarianceCurve, ImpliedMomentTriple
from tailvol.filters import FilterKind, FilterSpec, FilterState, GarchSpec, NoiseModel
from tailvol.measure import (
    _drift_targets,
    ModelError,
    RiskPremia,
    decay_integral,
    filter_cov_matrix,
    kurtosis_bound,
    noise_moments,
    omega_eigen,
    pricing_params,
    spot_cov_products,
    validate_premia,
    varswap_price,
    varswap_slope,
)

DT = 1.0 / 252.0


def _omega(spec, lam2):
    """The generator ``Theta (I - delta alpha^T)``, built from its definition."""
    theta = 1.0 / (spec.lengths * spec.dt_years)
    delta = _drift_targets(spec, lam2)
    return theta[:, None] * (np.eye(theta.size) - np.outer(delta, spec.weights))


def _assert_left_eigen(eig, omega, weights, **tol):
    """The contract of ``modes``: row i is a left eigenvector of ``omega`` at
    ``rates[i]``, and the rows sum to the weights."""
    np.testing.assert_allclose(eig.modes @ omega, eig.rates[:, None] * eig.modes, **tol)
    np.testing.assert_allclose(eig.modes.sum(0), weights, **tol)


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
    # the closed forms against quadrature over the standardized density
    from scipy.stats import t as student_t

    for dof in (4.5, 5.0, 8.0, 30.0):
        noise = NoiseModel("student_t", dof=dof)
        dist = student_t(dof, scale=math.sqrt((dof - 2.0) / dof))
        m4 = 2.0 * quad(lambda x: x**4 * dist.pdf(x), 0.0, np.inf, epsrel=1e-11)[0]
        m3m = quad(lambda x: x**3 * dist.pdf(x), -np.inf, 0.0, epsrel=1e-11)[0]
        mom = noise_moments(noise)
        assert mom.m4 == pytest.approx(m4, rel=1e-12)
        assert mom.m3_minus == pytest.approx(m3m, rel=1e-12)


# ---------------------------------------------------------------- pricing map


def test_mean_reversion_rate_is_inverse_length(three_scale_spec):
    # at lambda2 = 0 every drift target is 1, so Omega = Theta (I - 1 alpha^T)
    eig = omega_eigen(three_scale_spec, RiskPremia(0.0, 0.0, 0.0))
    theta = np.array([252.0 / 1000.0, 7.0, 42.0])
    want = theta[:, None] * (np.eye(3) - np.outer(np.ones(3), three_scale_spec.weights))
    _assert_left_eigen(eig, want, three_scale_spec.weights, rtol=1e-10, atol=1e-12)


def test_drift_targets_by_kind(three_scale_spec):
    delta = _drift_targets(three_scale_spec, 0.25)
    np.testing.assert_allclose(delta, [1.25, 1.25, 1.5], rtol=1e-14)


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
    chk = validate_premia(spec, RiskPremia(0.0, lam3, 0.0), gaussian_moments)
    assert chk.ok
    assert chk.rho_plus == pytest.approx(-lam3 / math.sqrt(2.0), rel=1e-12)
    m3m = -math.sqrt(2.0 / math.pi)
    assert chk.rho_minus == pytest.approx(2.0 * (m3m - lam3) / math.sqrt(5.0), rel=1e-12)
    assert chk.rho_cross == pytest.approx(2.0 / math.sqrt(10.0), rel=1e-12)


def test_spot_cov_products_free_of_kurtosis_premium(gaussian_moments):
    spec = GarchSpec(
        filters=(FilterSpec(36.0, 0.5), FilterSpec(6.0, 0.5, FilterKind.ASYMMETRIC)),
        dt_years=DT,
    )
    prod = spot_cov_products(spec, 0.3, 0.5, gaussian_moments)
    for lam4 in (0.44, 1.0, 3.0):
        premia = RiskPremia(0.3, 0.5, lam4)
        chk = validate_premia(spec, premia, gaussian_moments)
        rho = np.where(spec.is_asymmetric, chk.rho_minus, chk.rho_plus)
        xi = pricing_params(spec, premia, gaussian_moments).xi
        np.testing.assert_allclose(xi * rho, prod, rtol=1e-12)


def test_filter_cov_matrix_matches_loadings(three_scale_spec, gaussian_moments):
    premia = RiskPremia(0.3, 0.5, 1.0)
    params = pricing_params(three_scale_spec, premia, gaussian_moments)
    loads = params.loads
    # drop the spot column: remaining columns span the variance drivers
    gram = (params.xi[:, None] * loads) @ (params.xi[:, None] * loads).T
    cov = filter_cov_matrix(three_scale_spec, premia.lambda4, gaussian_moments)
    np.testing.assert_allclose(gram, cov, rtol=1e-10, atol=1e-12)


def test_validate_premia_flags_a_cross_correlation_beyond_one(three_scale_spec, gaussian_moments):
    premia = RiskPremia(0.0, gaussian_moments.m3_minus, -1.22)
    check = validate_premia(three_scale_spec, premia, gaussian_moments)
    assert check.violations == ("rho_cross_bound", "rho_cross_resid_bound")
    assert check.rho_cross < -1.0
    with pytest.raises(ModelError, match="rho_cross_bound, rho_cross_resid_bound"):
        pricing_params(three_scale_spec, premia, gaussian_moments)


def test_pricing_params_rejects_premia_below_floor(three_scale_spec, gaussian_moments):
    floor = kurtosis_bound(0.3, 0.5, gaussian_moments, three_scale_spec)
    with pytest.raises(ModelError, match="premia violate consistency conditions"):
        pricing_params(three_scale_spec, RiskPremia(0.3, 0.5, floor - 0.01), gaussian_moments)
    premia = RiskPremia(0.3, 0.5, floor + 1e-6)
    pricing_params(three_scale_spec, premia, gaussian_moments)
    chk = validate_premia(three_scale_spec, premia, gaussian_moments)
    assert abs(chk.rho_cross_resid) <= 1.0 + 1e-9


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


def _closed_form_kurtosis_bound(lambda2, lambda3, mom, spec):
    """The floor as a hand-expanded closed form, one per filter mix: the
    oracle for the rank condition :func:`kurtosis_bound` solves."""
    d2 = 1.0 + lambda2
    m4, m3m = mom.m4, mom.m3_minus
    asym = spec.is_asymmetric[spec.moving]
    if asym.any() and not asym.all():
        den = (2.0 * m4 - 1.0) * d2 - 4.0 * m3m**2
        if den <= 0.0:
            raise ModelError("kurtosis bound undefined: nonpositive denominator")
        num = (
            4.0 * (m4 - 1.0) * (m3m - lambda3) * m3m
            + lambda3**2 * (2.0 * m4 - 1.0)
            - m4 * (m4 - 1.0) * d2
        )
        return num / den
    if not asym.any():
        return lambda3**2 / d2 - (m4 - 1.0)
    return (m3m - lambda3) ** 2 / d2 - (2.0 * m4 - 1.0) / 4.0


@given(
    lam2=st.floats(-0.95, 4.0, exclude_min=True, exclude_max=True),
    lam3=st.floats(-3.0, 5.0),
    noise=st.sampled_from([NoiseModel(), NoiseModel("student_t", 5.0), NoiseModel("student_t", 12.0)]),
    spec=st.sampled_from([
        _sym_only_spec(),
        _asym_only_spec(),
        GarchSpec(filters=(FilterSpec(36.0, 0.5), FilterSpec(6.0, 0.5, FilterKind.ASYMMETRIC)),
                  dt_years=DT),
    ]),
)
@settings(max_examples=300, deadline=None)
def test_kurtosis_bound_matches_closed_form(lam2, lam3, noise, spec):
    mom = noise_moments(noise)
    try:
        want = _closed_form_kurtosis_bound(lam2, lam3, mom, spec)
    except ModelError:
        with pytest.raises(ModelError):
            kurtosis_bound(lam2, lam3, mom, spec)
        return
    got = kurtosis_bound(lam2, lam3, mom, spec)
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


# ---------------------------------------------------------------- loadings


def test_loadings_rows_unit_norm_and_correlations(three_scale_spec, gaussian_moments):
    premia = RiskPremia(0.3, 0.5, 1.0)
    loads = pricing_params(three_scale_spec, premia, gaussian_moments).loads
    chk = validate_premia(three_scale_spec, premia, gaussian_moments)
    assert loads.shape == (3, 3)
    np.testing.assert_allclose(np.linalg.norm(loads, axis=1), 1.0, rtol=1e-12)
    # spot column reproduces the spot correlations
    np.testing.assert_allclose(
        loads[:, 0],
        np.where(three_scale_spec.is_asymmetric, chk.rho_minus, chk.rho_plus),
        rtol=1e-12,
    )
    gram = loads @ loads.T
    # same-family filters share one driver
    assert gram[0, 1] == pytest.approx(1.0, rel=1e-12)
    # mixed pairs hit the cross correlation
    assert gram[0, 2] == pytest.approx(chk.rho_cross, rel=1e-10)


@given(
    lam2=st.floats(-0.3, 2.0),
    lam3=st.floats(-1.5, 1.5),
    bump=st.floats(0.0, 4.0),
)
@settings(max_examples=150, deadline=None)
@example(lam2=0.0, lam3=-1.2534464831327514, bump=0.0)
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
    loads = params.loads
    gram = loads @ loads.T
    assert np.linalg.eigvalsh(gram).min() >= -1e-10
    # the loadings and the covariance products are read from one matrix
    cov = filter_cov_matrix(spec, lam4, mom)
    scaled = params.xi[:, None] * gram * params.xi[None, :]
    np.testing.assert_allclose(scaled, cov, rtol=1e-10, atol=1e-10 * np.abs(cov).max())
    spot = spot_cov_products(spec, lam2, lam3, mom)
    np.testing.assert_allclose(
        params.xi * loads[:, 0], spot, rtol=1e-10, atol=1e-10 * np.abs(spot).max()
    )


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
    _assert_left_eigen(eig, _omega(three_scale_spec, 0.3), three_scale_spec.weights, atol=1e-8)
    assert np.all(np.diff(eig.rates) >= 0.0)


def test_eigen_rejects_complex_spectrum():
    # negative weights can rotate: this generator has eigenvalues
    # 14.16 +- 10.74i and 4.98
    spec = GarchSpec(
        filters=tuple(
            FilterSpec(length, weight, FilterKind.ASYMMETRIC)
            for length, weight in ((40.45, 2.449), (48.22, -0.595), (8.38, -0.854))
        ),
        dt_years=DT,
    )
    with pytest.raises(ModelError, match="complex spectrum"):
        omega_eigen(spec, RiskPremia(-0.804, 0.0, 0.0))


def test_eigen_accepts_a_repeated_rate_from_equal_lengths():
    # eig returns the repeated rate 42 as 42 +- 9e-15i with conjugate
    # vectors; their real and imaginary parts are two real eigenvectors
    def spec(third_length):
        return GarchSpec(
            filters=(FilterSpec(6.0, 0.3), FilterSpec(6.0, 0.3),
                     FilterSpec(third_length, 0.4, FilterKind.ASYMMETRIC)),
            dt_years=DT,
        )

    premia = RiskPremia(1.5, 0.0, 0.0)
    eig = omega_eigen(spec(6.0), premia)
    np.testing.assert_allclose(eig.rates, [-88.2, 42.0, 42.0], rtol=1e-12)
    assert np.isrealobj(eig.modes)
    _assert_left_eigen(eig, _omega(spec(6.0), 1.5), spec(6.0).weights, atol=1e-10)
    # prices match a spec whose lengths differ by 1e-6 days, where eig
    # returns three distinct real rates
    state = FilterState(x=np.array([0.04, 0.05, 0.06]), nu=0.052, as_of=dt.date(2024, 1, 2))
    near = omega_eigen(spec(6.0 + 1e-6), premia)
    for t in (0.1, 0.5, 1.0):
        assert varswap_price(state, eig, premia, t) == pytest.approx(
            varswap_price(state, near, premia, t), rel=1e-5)


@st.composite
def _filter_banks(draw):
    """1-5 filters of distinct whole-day lengths, the first optionally a
    constant anchor, either kind, non-negative weights summing to one.

    Weights are zero or above 1e-12: below about 1e-30 the eigensolver's
    balancing returns eigenvectors that fail the reconstruction check, a
    false alarm recorded in CHANGES.md rather than exercised here.
    """
    n = draw(st.integers(1, 5))
    lengths = [float(x) for x in draw(st.lists(st.integers(1, 2000), min_size=n, max_size=n,
                                               unique=True))]
    if draw(st.booleans()):
        lengths[0] = math.inf
    weight = st.one_of(st.just(0.0), st.floats(1e-12, 1.0))
    raw = np.array(draw(st.lists(weight, min_size=n, max_size=n)))
    weights = raw / raw.sum() if raw.sum() > 0.0 else np.full(n, 1.0 / n)
    kinds = draw(st.lists(st.sampled_from(FilterKind), min_size=n, max_size=n))
    return GarchSpec(
        filters=tuple(FilterSpec(l, float(w), k) for l, w, k in zip(lengths, weights, kinds)),
        dt_years=DT,
    )


@given(spec=_filter_banks(), lam2=st.floats(-0.5, 4.0))
@settings(max_examples=300, deadline=None)
def test_omega_spectrum_is_real_for_nonnegative_weights(spec, lam2):
    # Omega = Theta (I - delta alpha^T) with delta, alpha >= 0 has a real
    # spectrum, so the complex-spectrum error must not fire.  Where two rates
    # coincide Omega can be defective and must raise instead: a constant
    # anchor whose moving filters have sum_i alpha_i delta_i = 1 (two rates
    # vanish, test_garch11_defective_generator_raises), or a filter with
    # alpha_i delta_i = 0, whose rate theta_i can equal one of the others
    # (1-day weight 1 and 2-day weight 0 at lambda2 = -0.5 give
    # [[126, 0], [-63, 126]]).  Near-repeated spectra, where the eigenvectors
    # degenerate, are left out.
    ev = np.sort(np.linalg.eigvals(_omega(spec, lam2)).real)
    assume(np.all(np.diff(ev) > 1e-6 * max(np.max(np.abs(ev)), 1.0)))
    eig = omega_eigen(spec, RiskPremia(lam2, 0.0, 0.0))
    assert np.isrealobj(eig.rates) and np.isrealobj(eig.modes)
    assert np.all(np.isfinite(eig.rates))
    assert np.all(np.diff(eig.rates) >= 0.0)


@given(spec=_filter_banks(), lam2=st.floats(-0.5, 4.0), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_modes_match_the_eigenvector_form_under_any_vector_scaling(spec, lam2, seed):
    # the eigenvector form (U^T w)[:, None] * U^-1, from this file's Omega,
    # with u's columns scaled at random: the scaling cancels, so modes do
    # not depend on how the eigensolver normalizes its vectors
    ev, u = np.linalg.eig(_omega(spec, lam2))
    ev, u = ev.real, u.real
    assume(np.all(np.diff(np.sort(ev)) > 1e-6 * max(np.max(np.abs(ev)), 1.0)))
    rng = np.random.default_rng(seed)
    u = u[:, np.argsort(ev)] * rng.uniform(0.1, 10.0, ev.size) * rng.choice([-1.0, 1.0], ev.size)
    want = (u.T @ spec.weights)[:, None] * np.linalg.inv(u)
    got = omega_eigen(spec, RiskPremia(lam2, 0.0, 0.0)).modes
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


_SYM, _ASYM = FilterKind.SYMMETRIC, FilterKind.ASYMMETRIC


@pytest.mark.parametrize("lam2", [-0.3, 0.0, 0.3, 1.5, 4.0])
@pytest.mark.parametrize("bank", [
    ((1000.0, 0.1, _SYM), (36.0, 0.4, _SYM), (6.0, 0.5, _ASYM)),
    ((10.0, 0.6, _SYM), (5.0, 0.4, _ASYM)),
    ((25.0, 1.0, _SYM),),
    ((20.0, 1.0, _ASYM),),
    ((500.0, 0.05, _SYM), (120.0, 0.15, _ASYM), (36.0, 0.3, _SYM), (12.0, 0.3, _ASYM),
     (3.0, 0.2, _SYM)),
], ids=["three_scale", "two_kinds", "symmetric", "asymmetric", "five"])
def test_modes_match_the_secular_closed_form(bank, lam2):
    # with every filter moving, lengths distinct and weights nonzero, no
    # rate r meets a theta_j, and the secular equation gives each mode as
    # w (Theta - r)^-1 / sum_j c_j / (theta_j - r)^2, c_j = w_j theta_j
    # delta_j (Golub, SIAM Review 1973): no eigenvectors and no inverse
    spec = GarchSpec(filters=tuple(FilterSpec(*f) for f in bank), dt_years=DT)
    eig = omega_eigen(spec, RiskPremia(lam2, 0.0, 0.0))
    theta = 1.0 / (spec.lengths * spec.dt_years)
    c = spec.weights * theta * _drift_targets(spec, lam2)
    gap = theta[None, :] - eig.rates[:, None]
    closed = (spec.weights / gap) / (c / gap**2).sum(1)[:, None]
    np.testing.assert_allclose(closed, eig.modes, rtol=0.0, atol=1e-12 * np.abs(eig.modes).max())


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


@pytest.mark.parametrize("maturity", [0.0, math.nan, math.inf, [0.5, math.nan]])
def test_varswap_price_rejects_maturities_not_positive_and_finite(
    three_scale_spec, flat_state, mild_premia, maturity
):
    # a nan maturity used to price as nan
    eig = omega_eigen(three_scale_spec, mild_premia)
    with pytest.raises(ValueError, match="maturity must be finite and > 0"):
        varswap_price(flat_state, eig, mild_premia, maturity)


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


def test_constant_anchor_adds_no_bound(gaussian_moments, tmp_path, capsys):
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
    # the anchor neither reverts nor diffuses
    omega = _omega(anchored, premia.lambda2)
    assert not omega[0].any()
    eig = omega_eigen(anchored, premia)
    _assert_left_eigen(eig, omega, anchored.weights, atol=1e-12)
    assert np.abs(eig.rates).min() < 1e-12
    assert pricing_params(anchored, premia, gaussian_moments).xi[0] == 0.0
    # without a moving filter lambda4 enters no condition at all
    constant = GarchSpec(filters=(FilterSpec(math.inf, 1.0),), dt_years=DT)
    assert kurtosis_bound(0.1, 0.4, gaussian_moments, constant) == -math.inf
    assert validate_premia(constant, RiskPremia(0.1, 0.4, -100.0), gaussian_moments).ok
    # its model skew and kurtosis are identically zero, so calibration refuses it
    state = FilterState.from_levels([0.04], constant, dt.date(2024, 1, 2))
    market = [(t, ImpliedMomentTriple(0.2, -0.1, 0.05)) for t in (0.25, 0.5)]
    inputs = CalibrationInput(state, constant, gaussian_moments, market)
    for run in (
        lambda: calibrate_sequential(inputs),
        lambda: fit_lambda3(inputs, 0.1, *_stage_integrals(inputs, 0.1)),
        lambda: fit_lambda4(inputs, 0.1, 0.4, *_stage_integrals(inputs, 0.1)),
    ):
        with pytest.raises(ModelError, match="no moving filter"):
            run()
    spec_path, premia_path = tmp_path / "spec.json", tmp_path / "premia.json"
    dump_json(spec_path, spec_to_dict(constant))
    dump_json(premia_path, {"lambda2": 0.1, "lambda3": 0.4, "lambda4": -100.0})
    assert main(["validate", "--spec", str(spec_path), "--premia", str(premia_path)]) == 0
    out = capsys.readouterr().out
    assert "kurtosis floor   = -inf" in out and "premia admissible" in out
