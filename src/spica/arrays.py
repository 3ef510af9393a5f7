"""Array geometry and per-element received-signal synthesis.

A Scene combines a uniform linear array with a desired source and any number
of undesired (interfering) sources.  Two synthesis modes are supported:

* ``BB_DIRECT``   - each source reaches element i as a pure envelope delay of
  its baseband waveform, matching a bench setup where generators apply the
  inter-element delays directly at baseband.
* ``RF_DERIVED``  - envelope delays plus the carrier-phase rotation each
  element would acquire at RF; a separate LO alignment stage (``lo_align``)
  supplies the per-element phasors that de-rotate the first interferer.
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
        gains = [1.0] * n if self.element_mismatch is None else self.element_mismatch
        if len(gains) != n:
            raise ValueError(f"element_mismatch length {len(gains)} != n_elements {n}")
        object.__setattr__(self, "element_mismatch", tuple(complex(g) for g in gains))

    def arrivals(self):
        """Each source's arrival delays ``tau`` and carrier rotations ``rot``, both ``(sources,
        elements)`` arrays with the desired source first.  A source at inter-element delay delta
        (its ``explicit_delay_override``, else its angle's) reaches element i (0-based) late by
        tau = i * delta and, in RF_DERIVED, rotated by rot = exp(-j*2*pi*f_c*i*delta), else 1.
        """
        delta = [aoa_to_delay(self.geometry, s.aoa_deg) if s.explicit_delay_override is None
                 else s.explicit_delay_override for s in (self.desired, *self.undesired)]
        idx, delta = np.arange(self.geometry.n_elements), np.array(delta, dtype=float)[:, None]
        if self.mode is SceneMode.BB_DIRECT:
            return idx * delta, np.ones((delta.size, idx.size), complex)
        return idx * delta, np.exp(-2j * np.pi * self.geometry.carrier_freq * idx * delta)


def aoa_to_delay(g: ArrayGeometry, theta_deg: float) -> float:
    """Inter-element arrival delay for a plane wave at ``theta_deg`` degrees.

    delta_t = (d / lambda) * sin(theta) / f_carrier.  Antisymmetric in theta.
    """
    if not -90.0 <= theta_deg <= 90.0:
        raise ValueError(f"theta_deg must be in [-90, 90], got {theta_deg}")
    return g.spacing_over_lambda * np.sin(np.radians(theta_deg)) / g.carrier_freq


def element_signal(scene: Scene, i: int) -> Waveform:
    """Received waveform at element ``i`` (1-based).

    mismatch_i * the sum of the sources, each delayed by its ``tau`` and, in RF_DERIVED,
    rotated by its carrier phase ``rot`` at the element (see ``Scene.arrivals``).
    """
    n = scene.geometry.n_elements
    if not 1 <= i <= n:
        raise ValueError(f"element index {i} out of range 1..{n}")
    tau, rot = scene.arrivals()
    sources = (scene.desired, *scene.undesired)
    parts = (s.waveform.delayed(t) * r for s, t, r in zip(sources, tau[:, i - 1], rot[:, i - 1]))
    return Waveform(terms=tuple(parts), scale=scene.element_mismatch[i - 1])


def lo_align(scene: Scene) -> np.ndarray:
    """Per-element phasors that cancel the first interferer's carrier-phase progression.

    Only meaningful in RF_DERIVED mode; BB_DIRECT scenes carry no carrier
    phase to align.
    """
    if scene.mode is not SceneMode.RF_DERIVED:
        raise ValueError("lo_align requires RF_DERIVED mode")
    if not scene.undesired:
        raise ValueError("scene has no undesired sources")
    return scene.arrivals()[1][1].conj()
