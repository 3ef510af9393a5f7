"""Array geometry and per-element received-signal synthesis.

A Scene combines a uniform linear array with a desired source and any number
of undesired (interfering) sources.  Two synthesis modes are supported:

* ``BB_DIRECT``   - each source reaches element i as a pure envelope delay of
  its baseband waveform, matching a bench setup where generators apply the
  inter-element delays directly at baseband.
* ``RF_DERIVED``  - envelope delays plus the carrier-phase rotation each
  element would acquire at RF; a separate LO alignment stage (``lo_align``)
  supplies the per-element phasors that de-rotate one chosen source.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .waveform import Waveform

__all__ = [
    "SceneMode",
    "ArrayGeometry",
    "SourceSpec",
    "Scene",
    "aoa_to_delay",
    "element_signal",
    "lo_align",
]


class SceneMode(enum.Enum):
    BB_DIRECT = "BB_DIRECT"
    RF_DERIVED = "RF_DERIVED"


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear array: element count, spacing in wavelengths, carrier."""

    n_elements: int
    spacing_over_lambda: float
    carrier_freq: float

    def __post_init__(self):
        if self.n_elements < 2:
            raise ValueError(f"n_elements must be >= 2, got {self.n_elements}")
        if self.spacing_over_lambda <= 0.0:
            raise ValueError(
                f"spacing_over_lambda must be positive, got {self.spacing_over_lambda}"
            )
        if self.carrier_freq <= 0.0:
            raise ValueError(f"carrier_freq must be positive, got {self.carrier_freq}")


@dataclass(frozen=True)
class SourceSpec:
    """One far-field source: waveform plus either an angle or an explicit delay.

    ``explicit_delay_override``, when set, is used as the inter-element delay
    in seconds and the angle is ignored, mirroring a bench setup where the
    delay is dialed in directly.
    """

    waveform: Waveform
    aoa_deg: float = 0.0
    explicit_delay_override: float | None = None

    def __post_init__(self):
        if not -90.0 <= self.aoa_deg <= 90.0:
            raise ValueError(f"aoa_deg must be in [-90, 90], got {self.aoa_deg}")


@dataclass(frozen=True)
class Scene:
    geometry: ArrayGeometry
    desired: SourceSpec
    undesired: tuple = field(default_factory=tuple)
    element_mismatch: tuple | None = None
    mode: SceneMode = SceneMode.BB_DIRECT

    def __post_init__(self):
        object.__setattr__(self, "undesired", tuple(self.undesired))
        n = self.geometry.n_elements
        if self.element_mismatch is None:
            object.__setattr__(self, "element_mismatch", tuple([1.0 + 0.0j] * n))
        else:
            gains = tuple(complex(g) for g in self.element_mismatch)
            if len(gains) != n:
                raise ValueError(
                    f"element_mismatch length {len(gains)} != n_elements {n}"
                )
            object.__setattr__(self, "element_mismatch", gains)

    def source_delay(self, src: SourceSpec) -> float:
        """Inter-element delay for one source, honoring the explicit override."""
        if src.explicit_delay_override is not None:
            return float(src.explicit_delay_override)
        return aoa_to_delay(self.geometry, src.aoa_deg)


def aoa_to_delay(g: ArrayGeometry, theta_deg: float) -> float:
    """Inter-element arrival delay for a plane wave at ``theta_deg`` degrees.

    delta_t = (d / lambda) * sin(theta) / f_carrier.  Antisymmetric in theta.
    """
    if not -90.0 <= theta_deg <= 90.0:
        raise ValueError(f"theta_deg must be in [-90, 90], got {theta_deg}")
    return g.spacing_over_lambda * np.sin(np.radians(theta_deg)) / g.carrier_freq


def element_signal(scene: Scene, i: int) -> Waveform:
    """Received waveform at element ``i`` (1-based).

    BB_DIRECT: mismatch_i * sum of sources delayed by (i-1) * delta_t each.
    RF_DERIVED: additionally rotates each source by its per-element carrier
    phase exp(-j*2*pi*f_c*(i-1)*delta_t).
    """
    n = scene.geometry.n_elements
    if not 1 <= i <= n:
        raise ValueError(f"element index {i} out of range 1..{n}")
    k = i - 1
    fc = scene.geometry.carrier_freq
    parts = []
    for src in (scene.desired, *scene.undesired):
        dt = scene.source_delay(src)
        part = src.waveform.delayed(k * dt)
        if scene.mode is SceneMode.RF_DERIVED:
            part = part * np.exp(-2j * np.pi * fc * k * dt)
        parts.append(part)
    return Waveform(terms=tuple(parts), scale=scene.element_mismatch[k])


def lo_align(scene: Scene, target="undesired") -> np.ndarray:
    """Per-element phasors that cancel one source's carrier-phase progression.

    ``target`` selects the source: "desired" or "undesired" (the first
    interferer).  Only meaningful in RF_DERIVED mode; BB_DIRECT scenes carry
    no carrier phase to align.
    """
    if scene.mode is not SceneMode.RF_DERIVED:
        raise ValueError("lo_align requires RF_DERIVED mode")
    if target == "desired":
        src = scene.desired
    elif target == "undesired":
        if not scene.undesired:
            raise ValueError("scene has no undesired sources")
        src = scene.undesired[0]
    else:
        raise ValueError(f"unknown target selector: {target!r}")
    dt = scene.source_delay(src)
    fc = scene.geometry.carrier_freq
    idx = np.arange(scene.geometry.n_elements)
    return np.exp(2j * np.pi * fc * idx * dt)
