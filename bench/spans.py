"""Span recorder for the traced benchmark run.

The traced run measures gwalsh layer by layer without editing it.  While
an op is traced, the names one gwalsh module uses from another (and the
``put``/``get`` methods of both channels) are rebound to wrappers that
record a span: name, op id, parent span, start and end, plus any counts
measured at that boundary.  The originals are restored as soon as the op
returns.  Spans stay in memory until the run ends.

A binding that no longer exists in the package (a later version may move
or inline a function) is skipped and listed in ``Recorder.missing``; the
metrics of its span then read 0.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field


def _transform_counts(args, result):
    """Work of one transform on N^q cells, from its array sizes.

    q * N^(q+1) multiplies.  The bytes are computed, not measured: each of
    the q stages and the digit-reversal gather reads and writes the whole
    array once, 2 (q + 1) N^q items.
    """
    data = result.coeffs if hasattr(result, "coeffs") else result.values
    n, q = result.base, result.q
    return {"multiplies": q * n ** (q + 1), "bytes": 2 * (q + 1) * n**q * data.itemsize}


def _result_bytes(args, result):
    return {"bytes": len(result)}


def _text_arg_bytes(args, result):
    return {"bytes": len(args[0])}


def _put_bytes(args, result):
    return {"bytes": len(args[2])}  # (self, name, text)


def _nfev(args, result):
    return {"nfev": int(result.nfev)}


def _accepted(args, result):
    return {"accepted": 1}  # only recorded when the solver returned a companion


_TRANSFORM_USERS = ("gwalsh.transform", "gwalsh.protocol", "gwalsh.series", "gwalsh.cli")

# (module, class or None, attribute, span name, counts taken at the boundary)
TARGETS = [
    *[(m, None, "dwt_fast", "transform.dwt_fast", _transform_counts) for m in _TRANSFORM_USERS],
    *[(m, None, "idwt", "transform.idwt", _transform_counts) for m in _TRANSFORM_USERS],
    *[(m, None, "digit_reversal_permutation", "basis.digit_reversal_permutation", None)
      for m in ("gwalsh.transform", "gwalsh.basis")],
    *[(m, None, "scaled_rows", "basis.scaled_rows", None) for m in ("gwalsh.transform", "gwalsh.basis")],
    *[(m, None, name, f"transform.{name}", counts)
      for m in ("gwalsh.transform", "gwalsh.protocol")
      for name, counts in (
          ("coefficients_to_text", _result_bytes),
          ("coefficients_from_text", _text_arg_bytes),
          ("signal_to_text", _result_bytes),
          ("signal_from_text", _text_arg_bytes),
      )],
    *[("gwalsh.protocol", cls, "put", "protocol.channel_put", _put_bytes)
      for cls in ("InMemoryChannel", "DirectoryChannel")],
    *[("gwalsh.protocol", cls, "get", "protocol.channel_get", _result_bytes)
      for cls in ("InMemoryChannel", "DirectoryChannel")],
    *[(m, None, "run_exchange", "protocol.run_exchange", None) for m in ("gwalsh.protocol", "gwalsh.cli")],
    *[(m, None, "pairing_check_rows", "protocol.pairing_check_rows", None)
      for m in ("gwalsh.protocol", "gwalsh.cli")],
    ("gwalsh.protocol", None, "least_squares", "protocol.least_squares", _nfev),
    *[(m, None, "grid_matrix", "basis.grid_matrix", None) for m in ("gwalsh.basis", "gwalsh.protocol")],
    ("gwalsh.basis", None, "dirichlet_kernel", "basis.dirichlet_kernel", None),
    ("gwalsh.basis", None, "kernel_deviation", "basis.kernel_deviation", None),
    ("gwalsh.basis", None, "gram_defect", "basis.gram_defect", None),
    ("gwalsh.series", None, "partial_sum", "series.partial_sum", None),
    *[(m, None, "validate", "matrix.validate", None) for m in ("gwalsh.matrix", "gwalsh.protocol")],
    ("gwalsh.cli", None, "build_parser", "cli.build_parser", None),
    *[("gwalsh.cli", None, f"cmd_{sub}", f"cli.cmd_{sub}", None)
      for sub in ("gen_matrix", "solve_b", "encode", "decode", "series", "verify", "exchange")],
    ("gwalsh.cli", None, "load_matrix", "matrix.load_matrix", None),
    ("gwalsh.cli", None, "save_matrix", "matrix.save_matrix", None),
    ("gwalsh.cli", None, "read_coefficients", "transform.read_coefficients", None),
    ("gwalsh.cli", None, "signal_from_digits", "transform.signal_from_digits", None),
    ("gwalsh.cli", None, "write_coefficients", "transform.write_coefficients", None),
    ("gwalsh.cli", None, "write_signal", "transform.write_signal", None),
    ("gwalsh.cli", None, "convergence_sweep", "series.convergence_sweep", None),
    ("gwalsh.cli", None, "martingale_check", "series.martingale_check", None),
    ("gwalsh.cli", None, "save_transcript", "protocol.save_transcript", None),
    ("gwalsh.cli", None, "pairing_check_basis", "protocol.pairing_check_basis", None),
    ("gwalsh.cli", None, "mask_constraints", "protocol.mask_constraints", None),
    ("gwalsh.cli", None, "solve_companion_numeric", "protocol.solve_companion_numeric", _accepted),
]


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    start_ns: int
    end_ns: int
    counts: dict = field(default_factory=dict)


class Recorder:
    """Collects spans of traced ops; wrappers exist only inside :meth:`tracing`."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self._open: list[int] = []
        self._op = -1
        self._bindings = []
        self.missing: list[str] = []
        for module_name, cls, attr, name, counts in TARGETS:
            owner = importlib.import_module(module_name)
            if cls is not None:
                owner = getattr(owner, cls, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.missing.append(".".join(p for p in (module_name, cls, attr) if p))
                continue
            self._bindings.append((owner, attr, original, self._wrap(name, original, counts)))

    def _wrap(self, name, fn, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._open[-1] if self._open else None
            self._open.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._open.pop()
                self.spans[index] = Span(name, self._op, parent, start, end)
            if counts is not None:
                self.spans[index].counts = counts(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def tracing(self, op: int):
        """Trace one op: install every wrapper, yield, restore the originals."""
        self._op = op
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, original, _ in self._bindings:
                setattr(owner, attr, original)

    def take(self) -> list[Span]:
        """Remove and return the spans recorded so far."""
        spans, self.spans = self.spans, []
        return spans


@dataclass
class Layer:
    """Everything recorded for one span name."""

    ms: list = field(default_factory=list)
    self_ms: list = field(default_factory=list)
    counts: dict = field(default_factory=lambda: defaultdict(int))

    @property
    def calls(self) -> int:
        return len(self.ms)

    def median_ms(self) -> float:
        return statistics.median(self.ms) if self.ms else 0.0

    def median_self_ms(self) -> float:
        return statistics.median(self.self_ms) if self.self_ms else 0.0


def summarize(spans: list[Span]) -> dict[str, Layer]:
    """Per span name: inclusive and self durations, and summed counts.

    Self time is a span's duration minus that of its direct children; the
    run is single-threaded, so children never overlap.
    """
    child_ns = defaultdict(int)
    for span in spans:
        if span.parent is not None:
            child_ns[span.parent] += span.end_ns - span.start_ns
    layers = defaultdict(Layer)
    for index, span in enumerate(spans):
        layer = layers[span.name]
        duration = span.end_ns - span.start_ns
        layer.ms.append(duration / 1e6)
        layer.self_ms.append((duration - child_ns[index]) / 1e6)
        for key, value in span.counts.items():
            layer.counts[key] += value
    return layers


def spans_to_json(spans: list[Span]) -> list[dict]:
    return [
        {"id": i, "name": s.name, "op": s.op, "parent": s.parent,
         "start_ns": s.start_ns, "end_ns": s.end_ns, **s.counts}
        for i, s in enumerate(spans)
    ]
