"""Complex-baseband simulator for spatial interference cancellation.

An N-element receiver array is modeled from analytic waveforms through
per-element delay (quantized clock planning plus non-uniform sampling),
truncated-Hadamard row combining, equalization, and the measurement stack
(PSD, cancellation depth, conversion gain, EVM).

Each public name is declared once, in its module's ``__all__``; the package
re-exports all of them.
"""

__version__ = "0.1.0"

from . import arrays, experiments, metrics, ps_cancel, ttd, waveform
from .arrays import *  # noqa: F403
from .experiments import *  # noqa: F403
from .metrics import *  # noqa: F403
from .ps_cancel import *  # noqa: F403
from .ttd import *  # noqa: F403
from .waveform import *  # noqa: F403

__all__ = [
    "__version__",
    *arrays.__all__,
    *experiments.__all__,
    *metrics.__all__,
    *ps_cancel.__all__,
    *ttd.__all__,
    *waveform.__all__,
]
