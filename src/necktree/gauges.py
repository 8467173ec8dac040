"""Gauge functions h(t) = t^s * phi(t), evaluated in log-space.

Four families:

* ``power``          h(t) = t^s
* ``loglog_power``   h(t) = t^s (log log(1/t))^beta
* ``h1``             h(t) = t^s exp(+(1-gamma) sqrt(2 beta L loglog(beta L))), L = log(1/t)
* ``h1_star``        same with the square-root correction negated

Values at depth 10^4 underflow doubles by hundreds of orders of magnitude,
so every evaluation stays in log-space.  Each gauge carries a cutoff r0 and
a plateau value h_bar: h(t) = h_bar for t > r0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import ConfigError, ParameterError
from .rifs import bisect_decreasing

POWER = "power"
LOGLOG_POWER = "loglog_power"
H1 = "h1"
H1_STAR = "h1_star"
_FAMILIES = (POWER, LOGLOG_POWER, H1, H1_STAR)

_E = math.e
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class GaugeFunction:
    """A gauge with dimension exponent s, family parameters, cutoff and plateau."""

    s: float
    family: str
    beta: Optional[float] = None
    gamma: Optional[float] = None
    r0: float = field(init=False)
    log_r0: float = field(init=False)
    h_bar: float = field(init=False)

    def __post_init__(self) -> None:
        if self.s < 0:
            raise ConfigError("gauge exponent s must be >= 0")
        if self.family not in _FAMILIES:
            raise ConfigError(f"unknown gauge family {self.family!r}")
        if self.family != POWER:
            if self.beta is None or self.beta <= 0:
                raise ConfigError(f"{self.family} gauge needs beta > 0")
        if self.family in (H1, H1_STAR) and self.gamma is None:
            object.__setattr__(self, "gamma", 0.0)
        log_r0 = self._compute_log_r0()
        object.__setattr__(self, "log_r0", log_r0)
        object.__setattr__(self, "r0", math.exp(log_r0))
        h_bar = math.exp(min(0.0, float(self._formula_log(np.atleast_1d(log_r0))[0])))
        if h_bar == 0.0:
            raise ConfigError(f"{self.describe()}: plateau h(r0) underflows to 0 (log r0 = {log_r0:g})")
        object.__setattr__(self, "h_bar", h_bar)

    # ---- cutoff -------------------------------------------------------

    def _compute_log_r0(self) -> float:
        if self.family == POWER:
            return 0.0
        if self.family == LOGLOG_POWER:
            # stationary point of -s L + beta log log L:  L log L = beta / s
            if self.s == 0:
                raise ConfigError("loglog_power gauge needs s > 0 for a stationary point")
            target = self.beta / self.s
            f = lambda L: target - L * math.log(L)
            hi = max(_E, target + 2.0)
            while hi * math.log(hi) < target:
                hi *= 2.0
            return -bisect_decreasing(f, 1.0 + 1e-12, hi)
        # h1 / h1_star: formula valid once loglog(beta L) is positive.
        return -_E / self.beta

    def cutoff(self) -> float:
        """Validity cutoff r0; h is evaluated by formula for t <= r0."""
        return self.r0

    def correction_coeff(self) -> float:
        """Signed multiplier of the square-root term (0 for power/loglog families)."""
        if self.family == H1:
            return 1.0 - self.gamma
        if self.family == H1_STAR:
            return -(1.0 - self.gamma)
        return 0.0

    def stationary_log_t(self) -> Optional[float]:
        """log t of the point where h stops being non-decreasing, if any.

        For h1-type gauges with a positive correction the formula has a hump
        just inside the validity cutoff; monotonicity holds below the value
        returned here.  None means h is non-decreasing on all of (0, r0].
        """
        if self.family in (POWER, LOGLOG_POWER):
            return None
        coeff = self.correction_coeff()
        if coeff <= 0 or self.s == 0:
            return None
        beta = self.beta

        def grad(L: float) -> float:
            # d/dL of coeff * sqrt(2 beta L w(L)) - s, with w = loglog(beta L)
            w = math.log(math.log(beta * L))
            num = beta * (w + 1.0 / math.log(beta * L))
            return coeff * num / math.sqrt(2.0 * beta * L * w) - self.s

        lo = _E / beta * (1.0 + 1e-12)
        hi = max(2.0 * lo, 4.0)
        while grad(hi) > 0:
            hi *= 2.0
            if hi > 1e300:
                return None
        return -bisect_decreasing(grad, lo, hi)

    # ---- evaluation ---------------------------------------------------

    def _formula_log(self, log_t: np.ndarray) -> np.ndarray:
        """log h by the family formula; caller guarantees log_t <= log r0."""
        base = self.s * log_t
        if self.family == POWER:
            return base
        L = -log_t
        if self.family == LOGLOG_POWER:
            return base + self.beta * np.log(np.log(L))
        # clamp guards rounding exactly at the validity boundary loglog = 0
        loglog = np.maximum(np.log(np.log(self.beta * L)), 0.0)
        corr = np.sqrt(2.0 * self.beta * L * loglog)
        return base + self.correction_coeff() * corr

    def eval_log(self, log_t: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        """log h(t) given log t.  Arguments above the cutoff return log h_bar."""
        scalar = np.isscalar(log_t) or getattr(log_t, "ndim", 0) == 0
        arr = np.atleast_1d(np.asarray(log_t, dtype=float))
        if not np.all(np.isfinite(arr)):
            raise ParameterError("eval_log needs finite log t")
        out = np.full(arr.shape, math.log(self.h_bar))
        inside = arr <= self.log_r0
        if np.any(inside):
            out[inside] = self._formula_log(arr[inside])
        return float(out[0]) if scalar else out

    def doubling_ratio_scan(self, log_t_grid: Union[list, np.ndarray]) -> np.ndarray:
        """h(2t)/h(t) for each grid point; requires the grid within (0, r0/2)."""
        grid = np.asarray(log_t_grid, dtype=float)
        if grid.size == 0:
            raise ParameterError("doubling scan needs a non-empty grid")
        if np.any(grid >= self.log_r0 - _LN2):
            raise ParameterError("doubling scan grid must satisfy 2t <= r0")
        return np.exp(self._formula_log(grid + _LN2) - self._formula_log(grid))

    def describe(self) -> str:
        if self.family == POWER:
            return f"power(s={self.s:g})"
        if self.family == LOGLOG_POWER:
            return f"loglog_power(s={self.s:g}, beta={self.beta:g})"
        return f"{self.family}(s={self.s:g}, beta={self.beta:g}, gamma={self.gamma:g})"


def power(s: float) -> GaugeFunction:
    return GaugeFunction(s=s, family=POWER)


def loglog_power(s: float, beta: float) -> GaugeFunction:
    return GaugeFunction(s=s, family=LOGLOG_POWER, beta=beta)


def h1(s: float, beta: float, gamma: float = 0.0) -> GaugeFunction:
    return GaugeFunction(s=s, family=H1, beta=beta, gamma=gamma)


def h1_star(s: float, beta: float, gamma: float = 0.0) -> GaugeFunction:
    return GaugeFunction(s=s, family=H1_STAR, beta=beta, gamma=gamma)
