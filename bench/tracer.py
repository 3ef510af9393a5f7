"""Span tracer that times spica's layers from outside the package.

Each layer is timed by replacing some of its functions, at the module
attribute their callers look up, with a wrapper that records a span
``(pass, id, parent id, name, start, end)`` in memory.  A span's layer is
the part of its name before the first dot; its self time is its duration
minus the durations of its direct children.  ``uninstall`` puts every
original back, so untraced passes run spica's own code unchanged.

Helpers that are not wrapped (``truncated_hadamard``, ``config_total_delay``,
``equalize_with_gain``, ``map_qpsk``, the private runners) count as self time
of the span that called them.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

import numpy as np

LAYERS = ("waveform", "arrays", "ttd", "ps_cancel", "metrics", "experiments")

# (object whose attribute is looked up by the caller, attribute, span name).
# ``experiments.X`` entries are the names the runners in spica.experiments
# call; the others are calls made inside a layer.  ``_write_csv`` is private
# but is the only boundary around CSV output.
TARGETS = (
    ("experiments", "run_experiment", "experiments.run_experiment"),
    ("experiments", "_write_csv", "experiments.write"),
    ("experiments", "element_signal", "arrays.element_signal"),
    ("experiments", "sample_element", "ttd.sample_element"),
    ("experiments", "mac_apply", "ttd.mac_apply"),
    ("experiments", "plan_delay", "ttd.plan_delay"),
    ("experiments", "desired_conversion_gain", "ttd.desired_conversion_gain"),
    ("ttd", "desired_conversion_gain", "ttd.desired_conversion_gain"),
    ("experiments", "equalize", "ttd.equalize"),
    ("experiments", "ps_residual_gain", "ps_cancel.ps_residual_gain"),
    ("experiments", "cancellation_depth", "metrics.cancellation_depth"),
    ("experiments", "conversion_gain_measured", "metrics.conversion_gain_measured"),
    ("metrics", "welch_psd", "metrics.welch_psd"),
    ("metrics", "band_power", "metrics.band_power"),
    ("experiments", "recover_symbols", "metrics.recover_symbols"),
    ("experiments", "evm_percent", "metrics.evm_percent"),
    ("waveform.Waveform", "eval", "waveform.eval"),
    ("waveform", "rrc_pulse", "waveform.rrc_pulse"),
    ("metrics", "rrc_pulse", "waveform.rrc_pulse"),
)

HOOK_SPAN = "trace.hook"


def _resolve(path: str):
    module, _, attr = path.partition(".")
    owner = importlib.import_module(f"spica.{module}")
    return getattr(owner, attr) if attr else owner


def _frame_key(samples: np.ndarray):
    """Content key of a frame that is equal for ``x`` and ``-x``."""
    first = samples[0]
    if first == 0:
        nonzero = np.flatnonzero(samples)
        first = samples[nonzero[0]] if nonzero.size else first
    if first.real < 0 or (first.real == 0 and first.imag < 0):
        samples = -samples
    # Adding 0.0 turns -0.0 into 0.0 so both signs of zero give equal bytes.
    return hash((samples + 0.0).tobytes())


class Tracer:
    """Records spans and counters for the passes run while installed."""

    def __init__(self):
        self.spans = []
        self.pass_id = 0
        self._stack = []
        self._next_id = 0
        self._patches = []
        self._counts = Counter()
        self._errors = Counter()
        self._frames = set()

    # -- wrapping -----------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "ttd.sample_element": self._count_samples,
            "metrics.welch_psd": self._count_welch,
        }
        for owner_path, attr, name in TARGETS:
            owner = _resolve(owner_path)
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name, hooks.get(name)))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute; raise if one was not restored."""
        patches, self._patches = self._patches, []
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        for owner, attr, original in patches:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"tracer wrapper left on {owner.__name__}.{attr}")

    def _wrap(self, original, name, hook):
        def wrapper(*args, **kwargs):
            self._counts[name] += 1
            if hook is not None:
                self._span(HOOK_SPAN, hook, args, kwargs)
            return self._span(name, original, args, kwargs)

        return wrapper

    def _span(self, name, fn, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self._errors[name.partition(".")[0]] += 1
            raise
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((self.pass_id, span_id, parent, name, start, end))

    def _count_samples(self, sig, delay, sample_rate, n, *args, **kwargs):
        self._counts["waveform.samples_evaluated"] += int(n)

    def _count_welch(self, frame, *args, **kwargs):
        self._counts["metrics.welch_psd_samples"] += len(frame)
        self._frames.add((len(frame), _frame_key(frame.samples)))

    # -- per-pass summary ---------------------------------------------------

    def start_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self._counts.clear()
        self._errors.clear()
        self._frames.clear()

    def finish_pass(self) -> dict:
        """Self seconds per span name, calls, errors and distinct Welch frames."""
        spans = [s for s in self.spans if s[0] == self.pass_id]
        child_ns = Counter()
        for _, _, parent, _, start, end in spans:
            child_ns[parent] += end - start
        self_ns = Counter()
        for _, span_id, _, name, start, end in spans:
            self_ns[name] += end - start - child_ns[span_id]
        return {
            "self_s": {name: ns / 1e9 for name, ns in self_ns.items()},
            "counts": dict(self._counts),
            "errors": {layer: self._errors[layer] for layer in LAYERS},
            "distinct_welch_frames": len(self._frames),
        }

    def write(self, path) -> None:
        """Write every recorded span as CSV, times in perf_counter nanoseconds."""
        with open(path, "w") as fh:
            fh.write("pass,span,parent,name,start_ns,end_ns\n")
            for span in self.spans:
                fh.write(",".join(map(str, span)) + "\n")
