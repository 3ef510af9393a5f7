"""Scenes and every element's received frame.

A Scene combines an N-element array with a desired source and any number of
undesired (interfering) sources, each placed by its inter-element delay.  Two
synthesis modes are supported:

* ``BB_DIRECT``   - each source reaches element i as a pure envelope delay of
  its baseband waveform, matching a bench setup where generators apply the
  inter-element delays directly at baseband.
* ``RF_DERIVED``  - envelope delays plus the carrier-phase rotation each
  element would acquire at RF; the conjugate of the first interferer's
  rotations (``Scene.arrivals``) is the LO alignment that de-rotates it.

``element_signal`` samples a whole scene: each element's clock is delayed to
align the interferer, and every element's frame comes back as one array.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .waveform import StreamTerm, Waveform

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


def element_signal(scene: Scene, delays, fs: float, n: int, grid=None) -> np.ndarray:
    """Every element's noise-free frame of ``n`` samples at ``fs``, stacked ``(elements, ..., n)``.

    Element i's clock is delayed by ``delays[i]``, so with t = arange(n) / fs its frame is
    gain_i * sum_s rot_{s,i} * W_s(t + d_i - tau_{s,i}): ``tau`` and ``rot`` come from
    ``Scene.arrivals`` and gain_i is the element's mismatch times, in RF_DERIVED, its LO phasor.
    Unit tones at (k, 1) frequencies, beside silent sources, may come sampled on the undelayed
    grid as ``grid``: a tone at t + d - tau is its value at t times at d - tau, so every element
    is one broadcast.  Otherwise the frame is allocated once and each source written into it: a
    single stream on its grid for every element at once, a block of rows at a time, and any
    other source one element at a time.
    """
    if len(delays) != scene.n_elements:
        raise ValueError(f"{len(delays)} clock delays for {scene.n_elements} elements")
    tau, rot = scene.arrivals()
    aligned = scene.mode is SceneMode.RF_DERIVED and scene.undesired
    gain = np.asarray(scene.element_mismatch) * (rot[1].conj() if aligned else 1.0)
    sources = [s.waveform for s in (scene.desired, *scene.undesired)]
    if grid is not None:
        t, rot = (np.asarray(delays, dtype=float) - tau)[..., None, None], rot[..., None, None]
        gain = gain[:, None, None]
        return grid * (gain * sum(r * w.eval(ti) for w, ti, r in zip(sources, t, rot)))

    out = np.empty((len(delays), n), dtype=complex)
    clocks = np.asarray(delays, dtype=float)
    for s, w in enumerate(sources):
        for at, value in _placed(w, clocks, tau[s], rot[s], fs, n):
            if s:
                out[at] += value
            else:
                out[at] = value
    for i in np.flatnonzero(gain != 1.0):
        np.multiply(gain[i], out[i], out=out[i])
    return out


def _placed(w: Waveform, clocks, tau, rot, fs: float, n: int):
    """``(index, values)`` pairs that together give rot_i * w(arange(n) / fs + clocks_i - tau_i)
    for every element i, each factor taken where it is not 1 and in the float order of one
    element's evaluation: the scale, then the rotation.
    """
    term = w.terms[0] if len(w.terms) == 1 else None
    blocks = term._grid_sum(n, fs, clocks - tau - w.delay) if isinstance(term, StreamTerm) else None
    if blocks is not None:  # a stream on its grid: every element's rows at once
        turned = np.flatnonzero(rot != 1.0)
        for j, block in blocks:
            if w.scale != 1.0:
                np.multiply(w.scale, block, out=block)
            for i in turned:
                np.multiply(rot[i], block[i], out=block[i])
            yield (slice(None), slice(j, j + block.shape[1])), block
    elif not w.terms:  # a silent source: rotated zeros
        yield ..., (rot * 0j)[:, None]
    else:  # tones, several terms or a stream off its grid: one element at a time
        for i, clock in enumerate(clocks):
            value = w.eval(np.arange(n) / fs + clock - tau[i], fs)
            yield i, rot[i] * value if rot[i] != 1.0 else value
