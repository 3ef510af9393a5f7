"""Phase-shift cancellation baseline.

Aligns elements with per-element carrier-frequency phase shifts and sums
them under a balanced +/-1 sign pattern.  The alignment is exact at one
frequency only, so a wideband interferer leaks back in away from the
carrier; this module provides the closed-form leakage (residual gain) and
the sample-domain combiner used to cross-check it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ttd import SampleFrame, _stack_frames
from .waveform import _scalar_like

__all__ = [
    "PsCancelPlan",
    "alternating_signs",
    "ps_residual_gain",
    "ps_cancel_stream",
]


def alternating_signs(n: int) -> tuple:
    """The subtract-even-from-odd pattern (+1, -1, +1, -1, ...)."""
    return tuple(1 if i % 2 == 0 else -1 for i in range(n))


@dataclass(frozen=True)
class PsCancelPlan:
    """Sign pattern plus per-element alignment phase step.

    ``signs`` must be balanced (equal +1 and -1 counts), so ``n_elements``
    is a power of 2 of at least 2.
    """

    n_elements: int
    align_phase: float
    signs: tuple

    def __post_init__(self):
        n = self.n_elements
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError(f"n_elements must be a power of 2 >= 2, got {n}")
        signs = tuple(int(s) for s in self.signs)
        if len(signs) != n:
            raise ValueError(f"signs length {len(signs)} != n_elements {n}")
        if any(s not in (-1, 1) for s in signs):
            raise ValueError("signs must contain only +1 and -1")
        if sum(signs) != 0:
            raise ValueError("signs must balance (+1 count == -1 count)")
        object.__setattr__(self, "signs", signs)

    @classmethod
    def for_angle(cls, n: int, theta_ud_deg: float, d_over_lambda: float) -> "PsCancelPlan":
        """Alternating-sign plan aligned to an interferer at ``theta_ud_deg``."""
        phase = 2.0 * np.pi * d_over_lambda * np.sin(np.radians(theta_ud_deg))
        return cls(n_elements=n, align_phase=phase, signs=alternating_signs(n))


def ps_residual_gain(
    plan: PsCancelPlan, f_norm, theta_ud_deg: float, d_over_lambda: float
):
    """Complex leakage gain of the phase-shift combiner at f = f_norm * f_c.

    sum_i signs[i] * z**i,  z = exp(j*(align_phase - 2*pi*f_norm*(d/lambda)*sin(theta)))

    with i = 0..n-1.  When the plan's align_phase matches the interferer
    direction, the exponent collapses to a pure function of (1 - f_norm),
    zero at the carrier and growing away from it.  ``f_norm`` may be a
    scalar or ndarray.

    The sum is evaluated by Horner's rule, ((s[n-1]*z + s[n-2])*z + ...)*z
    + s[0]: one ``exp`` per frequency and n-1 in-place multiply-adds, so
    memory is O(points) for any sign pattern and array size.
    """
    arrival = 2.0 * np.pi * d_over_lambda * np.sin(np.radians(theta_ud_deg))
    z = np.exp(1j * (plan.align_phase - np.asarray(f_norm, dtype=float) * arrival))
    res = np.full(z.shape, complex(plan.signs[-1]))
    for sign in reversed(plan.signs[:-1]):
        res *= z
        res += sign
    return _scalar_like(f_norm, res)


def ps_cancel_stream(frames, plan: PsCancelPlan) -> SampleFrame:
    """Sample-wise phase-aligned combination under the plan's sign pattern.

    output[k] = sum_i signs[i] * exp(j*i*align_phase) * frames[i][k]
    """
    stack, first = _stack_frames(frames, plan.n_elements)
    idx = np.arange(plan.n_elements)
    weights = np.asarray(plan.signs, dtype=complex) * np.exp(1j * idx * plan.align_phase)
    out = weights @ stack
    return SampleFrame(out, first.sample_rate, first.start_time)
