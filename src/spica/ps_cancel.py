"""Phase-shift cancellation baseline.

Aligns elements with per-element carrier-frequency phase shifts and sums
them with even elements subtracted from odd ones.  The alignment is exact
at one frequency only, so a wideband interferer leaks back in away from
the carrier; this module provides the plan and its closed-form leakage
(residual gain).  The tests cross-check that leakage with a sample-domain
combiner of their own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ttd import _signed_power_sum

__all__ = [
    "PsCancelPlan",
    "ps_residual_gain",
]


@dataclass(frozen=True)
class PsCancelPlan:
    """Per-element alignment phase step under the subtract-even-from-odd signs.

    ``signs`` is derived: (+1, -1, +1, -1, ...), balanced because
    ``n_elements`` must be a power of 2 of at least 2.
    """

    n_elements: int
    align_phase: float
    signs: tuple = field(init=False)

    def __post_init__(self):
        n = self.n_elements
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError(f"n_elements must be a power of 2 >= 2, got {n}")
        object.__setattr__(self, "signs", (1, -1) * (n // 2))

    @classmethod
    def for_angle(cls, n: int, theta_ud_deg: float, d_over_lambda: float) -> "PsCancelPlan":
        """Alternating-sign plan aligned to an interferer at ``theta_ud_deg``."""
        phase = 2.0 * np.pi * d_over_lambda * np.sin(np.radians(theta_ud_deg))
        return cls(n_elements=n, align_phase=phase)


def ps_residual_gain(plan: PsCancelPlan, f_norm, theta_ud_deg: float, d_over_lambda: float):
    """Complex leakage gain of the phase-shift combiner at f = f_norm * f_c.

    sum_i signs[i] * z**i,  z = exp(j*(align_phase - 2*pi*f_norm*(d/lambda)*sin(theta)))

    with i = 0..n-1.  When the plan's align_phase matches the interferer
    direction, the exponent collapses to a pure function of (1 - f_norm),
    zero at the carrier and growing away from it.  ``f_norm`` may be a
    scalar or ndarray; the result has its shape (0-d for a scalar).

    Horner's rule sums it with one ``exp`` per frequency in O(points) memory.
    """
    arrival = 2.0 * np.pi * d_over_lambda * np.sin(np.radians(theta_ud_deg))
    z = np.exp(1j * (plan.align_phase - np.asarray(f_norm, dtype=float) * arrival))
    return _signed_power_sum(plan.signs, z)
