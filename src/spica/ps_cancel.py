"""Phase-shift cancellation baseline.

Aligns elements with per-element carrier-frequency phase shifts and sums
them with even elements subtracted from odd ones.  The alignment is exact
at one frequency only, so a wideband interferer leaks back in away from
the carrier; this module gives that leakage (residual gain) in closed
form.  The tests cross-check it with a sample-domain combiner of their own.
"""

from __future__ import annotations

import numpy as np

from .ttd import _signed_power_sum

__all__ = [
    "ps_residual_gain",
]


def ps_residual_gain(n: int, f_norm, align_phase: float):
    """Complex leakage gain of the ``n``-element phase-shift combiner at f = f_norm * f_c.

    sum_i signs[i] * z**i,  z = exp(j*(align_phase - f_norm*align_phase))

    with i = 0..n-1 and signs (+1, -1, +1, -1, ...), balanced because ``n`` must be a power
    of 2 of at least 2.  ``align_phase`` is the interferer's carrier phase step between
    elements, 2*pi*(d/lambda)*sin(theta), which the combiner's phase shifts match exactly at
    the carrier: the exponent is then an exact 0 and the balanced sum too.  ``f_norm`` may be
    a scalar or ndarray; the result has its shape (0-d for a scalar).

    Horner's rule sums it with one ``exp`` per frequency in O(points) memory.
    """
    if n < 2 or (n & (n - 1)) != 0:
        raise ValueError(f"n_elements must be a power of 2 >= 2, got {n}")
    z = np.exp(1j * (align_phase - np.asarray(f_norm, dtype=float) * align_phase))
    return _signed_power_sum((1, -1) * (n // 2), z)
