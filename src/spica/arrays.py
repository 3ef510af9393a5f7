"""Scenes and per-element received-signal synthesis.

A Scene combines an N-element array with a desired source and any number of
undesired (interfering) sources, each placed by its inter-element delay.  Two
synthesis modes are supported:

* ``BB_DIRECT``   - each source reaches element i as a pure envelope delay of
  its baseband waveform, matching a bench setup where generators apply the
  inter-element delays directly at baseband.
* ``RF_DERIVED``  - envelope delays plus the carrier-phase rotation each
  element would acquire at RF; the conjugate of the first interferer's
  rotations (``Scene.arrivals``) is the LO alignment that de-rotates it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .waveform import Waveform

__all__ = [
    "SceneMode",
    "SourceSpec",
    "Scene",
    "element_signal",
]


class SceneMode(enum.Enum):
    BB_DIRECT = "BB_DIRECT"
    RF_DERIVED = "RF_DERIVED"


@dataclass(frozen=True)
class SourceSpec:
    """One far-field source: its waveform and its inter-element arrival delay in seconds."""

    waveform: Waveform
    delay: float = 0.0


@dataclass(frozen=True)
class Scene:
    n_elements: int
    carrier_freq: float
    desired: SourceSpec
    undesired: tuple = field(default_factory=tuple)
    element_mismatch: tuple | None = None
    mode: SceneMode = SceneMode.BB_DIRECT

    def __post_init__(self):
        n = self.n_elements
        if n < 2:
            raise ValueError(f"n_elements must be >= 2, got {n}")
        if self.carrier_freq <= 0.0:
            raise ValueError(f"carrier_freq must be positive, got {self.carrier_freq}")
        object.__setattr__(self, "undesired", tuple(self.undesired))
        gains = [1.0] * n if self.element_mismatch is None else self.element_mismatch
        if len(gains) != n:
            raise ValueError(f"element_mismatch length {len(gains)} != n_elements {n}")
        object.__setattr__(self, "element_mismatch", tuple(complex(g) for g in gains))

    def arrivals(self):
        """Each source's arrival delays ``tau`` and carrier rotations ``rot``, both ``(sources,
        elements)`` arrays with the desired source first.  A source at inter-element delay delta
        reaches element i (0-based) late by tau = i * delta and, in RF_DERIVED, rotated by
        rot = exp(-j*2*pi*f_c*i*delta), else 1.
        """
        delta = [s.delay for s in (self.desired, *self.undesired)]
        idx, delta = np.arange(self.n_elements), np.array(delta, dtype=float)[:, None]
        if self.mode is SceneMode.BB_DIRECT:
            return idx * delta, np.ones((delta.size, idx.size), complex)
        return idx * delta, np.exp(-2j * np.pi * self.carrier_freq * idx * delta)


def element_signal(scene: Scene, i: int) -> Waveform:
    """Received waveform at element ``i`` (1-based).

    mismatch_i * the sum of the sources, each delayed by its ``tau`` and, in RF_DERIVED,
    rotated by its carrier phase ``rot`` at the element (see ``Scene.arrivals``).
    """
    n = scene.n_elements
    if not 1 <= i <= n:
        raise ValueError(f"element index {i} out of range 1..{n}")
    tau, rot = scene.arrivals()
    sources = (scene.desired, *scene.undesired)
    parts = (s.waveform.delayed(t) * r for s, t, r in zip(sources, tau[:, i - 1], rot[:, i - 1]))
    return Waveform(terms=tuple(parts), scale=scene.element_mismatch[i - 1])

