"""Complex-baseband simulator for spatial interference cancellation.

An N-element receiver array is modeled from analytic waveforms through
per-element delay (quantized clock planning plus non-uniform sampling),
truncated-Hadamard row combining, equalization, and the measurement stack
(PSD, cancellation depth, conversion gain, EVM).
"""

__version__ = "0.1.0"

from .arrays import (
    ArrayGeometry,
    Scene,
    SceneMode,
    SourceSpec,
    aoa_to_delay,
    element_signal,
    lo_align,
)
from .experiments import (
    ConfigError,
    Experiment,
    ExperimentConfig,
    load_config,
    preset,
    preset_names,
    run_experiment,
)
from .metrics import (
    MeasurementError,
    PsdEstimate,
    band_power,
    cancellation_depth,
    conversion_gain_measured,
    evm_percent,
    recover_symbols,
    welch_psd,
)
from .ps_cancel import (
    PsCancelPlan,
    alternating_signs,
    ps_cancel_stream,
    ps_residual_gain,
)
from .ttd import (
    DEFAULT_SAMPLE_RATE,
    INTERLEAVE_STEP,
    PI_STEP,
    QUADRANT_STEP,
    ClockConfig,
    Quadrant,
    SampleFrame,
    ThmMatrix,
    config_total_delay,
    desired_conversion_gain,
    equalize,
    equalize_with_gain,
    mac_apply,
    plan_delay,
    sample_element,
    truncated_hadamard,
)
from .waveform import StreamTerm, ToneTerm, Waveform, map_qpsk, rrc_pulse

__all__ = [
    "__version__",
    "ArrayGeometry",
    "Scene",
    "SceneMode",
    "SourceSpec",
    "aoa_to_delay",
    "element_signal",
    "lo_align",
    "ConfigError",
    "Experiment",
    "ExperimentConfig",
    "load_config",
    "preset",
    "preset_names",
    "run_experiment",
    "MeasurementError",
    "PsdEstimate",
    "band_power",
    "cancellation_depth",
    "conversion_gain_measured",
    "evm_percent",
    "recover_symbols",
    "welch_psd",
    "PsCancelPlan",
    "alternating_signs",
    "ps_cancel_stream",
    "ps_residual_gain",
    "DEFAULT_SAMPLE_RATE",
    "INTERLEAVE_STEP",
    "PI_STEP",
    "QUADRANT_STEP",
    "ClockConfig",
    "Quadrant",
    "SampleFrame",
    "ThmMatrix",
    "config_total_delay",
    "desired_conversion_gain",
    "equalize",
    "equalize_with_gain",
    "mac_apply",
    "plan_delay",
    "sample_element",
    "truncated_hadamard",
    "StreamTerm",
    "ToneTerm",
    "Waveform",
    "map_qpsk",
    "rrc_pulse",
]
