"""Model-free log-price moments replicated from option strips.

The first three moments of the terminal log-price are static portfolios of
out-of-the-money options (plus cash and forward positions that vanish when
prices are quoted against the forward):

    M1 = -e^{rT} [ int_0^F  P(K)/K^2 dK + int_F^inf C(K)/K^2 dK ]
    M2 = 2 e^{rT} int (1 - log(K/F)) O(K)/K^2 dK
    M3 =   e^{rT} int (K/F - 1)      O(K)/K^2 dK

with O(K) the out-of-the-money price at strike K.  Strike integrals use
trapezoid weights on the observed strikes, puts and calls integrated
separately, with no extrapolation beyond the quoted range.

Prices are quoted with the forward as numeraire level: ``forward`` plays
the role of F above, and a Black (undiscounted, forward-measure) formula
converts between prices and implied volatilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .expansion import ImpliedMomentTriple
from .filters import DataError
from .measure import ModelError

__all__ = [
    "OptionKind",
    "Quote",
    "OptionChain",
    "bs_price",
    "bs_delta",
    "bs_vega",
    "implied_vol",
    "select_otm",
    "replicate_moments",
    "market_moment_triple",
]

#: Relative volatility tolerance at which :func:`implied_vol` stops.
_IV_TOL = 1e-12


class OptionKind(str, Enum):
    CALL = "call"
    PUT = "put"


@dataclass(frozen=True)
class Quote:
    strike: float
    kind: OptionKind
    mid: float
    implied_vol: float | None = None
    delta: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", OptionKind(self.kind))
        if not (math.isfinite(self.strike) and self.strike > 0.0):
            raise ValueError(f"strike must be positive, got {self.strike}")
        if not (math.isfinite(self.mid) and self.mid >= 0.0):
            raise ValueError(f"mid must be finite and >= 0, got {self.mid}")
        if self.implied_vol is not None and not 0.0 < self.implied_vol < math.inf:
            raise ValueError(f"implied_vol must be positive and finite, got {self.implied_vol}")
        if self.delta is not None and not -1.0 <= self.delta <= 1.0:
            raise ValueError(f"delta must be in [-1, 1], got {self.delta}")


@dataclass(frozen=True, eq=False)
class OptionChain:
    """Quotes for one expiry, with the forward level and financing rate."""

    expiry_years: float
    forward: float
    rate: float
    quotes: tuple[Quote, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "quotes", tuple(self.quotes))
        if not (math.isfinite(self.expiry_years) and self.expiry_years > 0.0):
            raise ValueError(f"expiry must be positive, got {self.expiry_years}")
        if not (math.isfinite(self.forward) and self.forward > 0.0):
            raise ValueError(f"forward must be positive, got {self.forward}")
        if not math.isfinite(self.rate):
            raise ValueError("rate must be finite")
        for kind in (OptionKind.PUT, OptionKind.CALL):
            ks = [q.strike for q in self.quotes if q.kind is kind]
            for a, b in zip(ks, ks[1:]):
                if not b > a:
                    raise ValueError(
                        f"{kind.value} strikes must be strictly increasing, "
                        f"got {a} then {b}"
                    )


def _otm(kind: OptionKind, strike: float, forward: float) -> bool:
    """The one out-of-the-money test: a put at or below the forward, a call
    at or above it, so both sides are out of the money at the forward."""
    return strike <= forward if kind is OptionKind.PUT else strike >= forward


def _trapezoid_weights(x) -> np.ndarray:
    """Trapezoid quadrature weights on a strictly increasing grid."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("need at least two quadrature nodes")
    if (np.diff(x) <= 0.0).any():
        raise ValueError("quadrature nodes must be strictly increasing")
    w = np.empty_like(x)
    w[0] = 0.5 * (x[1] - x[0])
    w[-1] = 0.5 * (x[-1] - x[-2])
    if x.size > 2:
        w[1:-1] = 0.5 * (x[2:] - x[:-2])
    return w


def _ndtr(x: float) -> float:
    """Standard normal CDF."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _payoff(kind: OptionKind, strike: float, s):
    """Exercise value at spot ``s``: ``max(s - K, 0)`` for a call, else ``max(K - s, 0)``."""
    return np.maximum(s - strike, 0.0) if kind is OptionKind.CALL else np.maximum(strike - s, 0.0)


def _d1(forward: float, strike: float, expiry: float, vol: float) -> float:
    """Black's d1, and the one argument check of the Black functions."""
    if not all(0.0 < v < math.inf for v in (forward, strike, expiry, vol)):
        raise ValueError(
            "forward, strike, expiry and vol must be positive and finite, got "
            f"{forward}, {strike}, {expiry}, {vol}"
        )
    return (math.log(forward / strike) + 0.5 * vol * vol * expiry) / (vol * math.sqrt(expiry))


def bs_price(
    forward: float, strike: float, expiry: float, vol: float, kind: OptionKind
) -> float:
    """Undiscounted Black price on the forward."""
    kind = OptionKind(kind)
    d1 = _d1(forward, strike, expiry, vol)
    d2 = d1 - vol * math.sqrt(expiry)
    if kind is OptionKind.CALL:
        return forward * _ndtr(d1) - strike * _ndtr(d2)
    return strike * _ndtr(-d2) - forward * _ndtr(-d1)


def bs_delta(
    forward: float, strike: float, expiry: float, vol: float, kind: OptionKind
) -> float:
    """Forward delta: N(d1) for calls, N(d1) - 1 for puts."""
    kind = OptionKind(kind)
    d1 = _d1(forward, strike, expiry, vol)
    return _ndtr(d1) if kind is OptionKind.CALL else _ndtr(d1) - 1.0


def bs_vega(forward: float, strike: float, expiry: float, vol: float) -> float:
    d1 = _d1(forward, strike, expiry, vol)
    return forward * math.exp(-0.5 * d1 * d1) / math.sqrt(2.0 * math.pi) * math.sqrt(expiry)


def implied_vol(
    price: float,
    forward: float,
    strike: float,
    expiry: float,
    kind: OptionKind,
) -> float:
    """Invert the Black formula by geometric bisection over [1e-9, 10].

    The solver works on the time value (the price less intrinsic), which
    put-call parity makes the price of the out-of-the-money option at the
    same strike, and splits the bracket at the geometric mean of its ends,
    so deep wings converge as fast as the money.  It stops once the bracket
    is no wider than ``_IV_TOL`` (1e-12) times its lower end and returns the
    midpoint.  Prices at or below intrinsic, or within 16 ulps of it (a time
    value that is rounding noise), or above the trivial upper bound raise
    :class:`ModelError`; so does a price the solver cannot resolve within
    100 iterations.
    """
    kind = OptionKind(kind)
    intrinsic = float(_payoff(kind, strike, forward))
    upper = forward if kind is OptionKind.CALL else strike
    scale = max(forward, 1e-300)
    if not math.isfinite(price):
        raise ModelError(f"price must be finite, got {price}")
    if price <= intrinsic + max(1e-14 * scale, 16.0 * math.ulp(intrinsic)):
        raise ModelError(
            f"price {price} is at or below intrinsic {intrinsic}; no implied volatility"
        )
    if price >= upper - 1e-14 * scale:
        raise ModelError(f"price {price} exceeds the upper no-arbitrage bound {upper}")

    otm_kind = OptionKind.CALL if _otm(OptionKind.CALL, strike, forward) else OptionKind.PUT
    target = price - intrinsic
    lo, hi = 1e-9, 10.0
    if bs_price(forward, strike, expiry, lo, otm_kind) > target or (
        bs_price(forward, strike, expiry, hi, otm_kind) < target
    ):
        raise ModelError("price is outside the attainable Black range")
    for _ in range(100):
        if hi - lo <= _IV_TOL * lo:
            return 0.5 * (lo + hi)
        vol = math.sqrt(lo * hi)
        if bs_price(forward, strike, expiry, vol, otm_kind) > target:
            hi = vol
        else:
            lo = vol
    raise ModelError(
        "implied volatility did not converge in 100 iterations "
        f"(price {price}, strike {strike}, expiry {expiry})"
    )


def _abs_delta(q: Quote, chain: OptionChain) -> float:
    if q.delta is not None:
        return abs(q.delta)
    if q.implied_vol is None:
        raise DataError(
            f"{q.kind.value} {q.strike}: neither delta nor implied vol quoted"
        )
    return abs(bs_delta(chain.forward, q.strike, chain.expiry_years, q.implied_vol, q.kind))


def select_otm(chain: OptionChain, delta_lo: float, delta_hi: float) -> OptionChain:
    """Keep out-of-the-money quotes whose absolute delta lies in a band.

    Puts at or below the forward and calls at or above it qualify; the
    in-the-money side of each strike is dropped.  Quotes missing both delta
    and implied volatility are reported together in one error.
    """
    if not (0.0 <= delta_lo < delta_hi <= 1.0):
        raise ValueError("need 0 <= delta_lo < delta_hi <= 1")
    missing = []
    kept = []
    for q in chain.quotes:
        if not _otm(q.kind, q.strike, chain.forward):
            continue
        try:
            adelta = _abs_delta(q, chain)
        except DataError as exc:
            missing.append(str(exc))
            continue
        if delta_lo <= adelta <= delta_hi:
            kept.append(q)
    if missing:
        raise DataError("; ".join(missing))
    return replace(chain, quotes=tuple(kept))


def _side_integrals(
    quotes: list[Quote], forward: float
) -> tuple[float, float, float]:
    """Trapezoid strike integrals of (1, 1 - log(K/F), K/F - 1) * O(K)/K^2."""
    k = np.array([q.strike for q in quotes])
    p = np.array([q.mid for q in quotes])
    w = _trapezoid_weights(k)
    base = w * p / k**2
    logm = np.log(k / forward)
    return (
        float(np.sum(base)),
        float(np.sum(base * (1.0 - logm))),
        float(np.sum(base * (k / forward - 1.0))),
    )


def _bridge_forward(
    puts: list[Quote], calls: list[Quote], forward: float
) -> tuple[list[Quote], list[Quote]]:
    """Give both strips a boundary node at the forward.

    The out-of-the-money price envelope is continuous at the forward
    (put-call parity makes the at-the-forward put and call prices equal),
    so its value there is interpolated between the innermost put and call,
    which gives a quote sitting at the forward its own mid exactly, and
    closes whichever strip lacks the node.  Without it the panel between the
    innermost quotes would be dropped and the quadrature would degrade to
    first order.
    """
    kp, kc = puts[-1], calls[0]
    if kp.strike == kc.strike:  # both strips already end at the forward
        return puts, calls
    t = (forward - kp.strike) / (kc.strike - kp.strike)
    value = (1.0 - t) * kp.mid + t * kc.mid
    if kp.strike < forward:
        puts = puts + [Quote(strike=forward, kind=OptionKind.PUT, mid=value)]
    if kc.strike > forward:
        calls = [Quote(strike=forward, kind=OptionKind.CALL, mid=value)] + calls
    return puts, calls


def replicate_moments(chain: OptionChain) -> tuple[float, float, float]:
    """Replicate (M1, M2, M3) from the chain's out-of-the-money strip.

    Uses the quotes :func:`_otm` passes, so a strike exactly at the forward
    is the shared boundary node of the put and call integrals; when no
    quote sits there a parity-interpolated node closes the strips.
    Requires at least three usable quotes per side.
    """
    otm = [q for q in chain.quotes if _otm(q.kind, q.strike, chain.forward)]
    puts = [q for q in otm if q.kind is OptionKind.PUT]
    calls = [q for q in otm if q.kind is OptionKind.CALL]
    if len(puts) < 3 or len(calls) < 3:
        raise DataError(
            f"need at least 3 OTM quotes per side, got {len(puts)} puts / "
            f"{len(calls)} calls"
        )
    puts, calls = _bridge_forward(puts, calls, chain.forward)
    growth = math.exp(chain.rate * chain.expiry_years)
    p1, p2, p3 = _side_integrals(puts, chain.forward)
    c1, c2, c3 = _side_integrals(calls, chain.forward)
    m1 = -growth * (p1 + c1)
    m2 = 2.0 * growth * (p2 + c2)
    m3 = growth * (p3 + c3)
    return m1, m2, m3


def market_moment_triple(
    m1: float, m2: float, m3: float, expiry: float
) -> ImpliedMomentTriple:
    """Normalize raw replicated moments into the calibration triple.

    A non-negative first moment has no variance-swap interpretation and
    raises (it would need a degenerate or arbitrage-violating surface).
    """
    if not 0.0 < expiry < math.inf:
        raise ValueError(f"expiry must be positive and finite, got {expiry}")
    if m1 >= 0.0:
        raise ModelError(f"replicated M1 = {m1} must be negative")
    total_var = -2.0 * m1
    sqrt_t = math.sqrt(expiry)
    return ImpliedMomentTriple(
        vswap_vol=math.sqrt(total_var / expiry),
        skew_m=2.0 * m3 / (sqrt_t * total_var**1.5),
        kurt_m=(2.0 * m3 + m2 - m1 * m1 + 2.0 * m1) / (sqrt_t * total_var**2.5),
    )
