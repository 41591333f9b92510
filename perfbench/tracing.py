"""Spans around calls into qpolar, recorded from the benchmark's side.

The traced run wraps public functions where the library looks them up
(module attributes and class methods), for the length of the traced phase
only; the program's code is not changed.  A span is
``[name, start, end, parent, note]``: ``parent`` is the index of the
enclosing span (-1 for none) and ``note`` an optional number the wrapper
read from the call's arguments.  Spans stay in memory until the run ends.
Calls too frequent to span (field element arithmetic) are only counted.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "setup.import_s": "s",
    "gf.field_s": "s",
    "channel.construct_s": "s",
    "construct.info_set_s": "s",
    "sc.decode_batch_s": "s",
    "sc.decode_batch_share": "ratio",
    "rng.normals_s": "s",
    "channel.likelihood_s": "s",
    "rng.uniforms_s": "s",
    "channel.sample_s": "s",
    "code.encode_s": "s",
    "mc.self_s": "s",
    "mc.blocks": "count",
    "mc.batches": "count",
    "sc.minus_gather_bytes_computed": "bytes",
    "oracle.exact_ser_s": "s",
    "oracle.outputs_enumerated": "count",
    "oracle.outputs_with_mass": "count",
    "oracle.support_ratio": "ratio",
    "sc.decode_distribution_s": "s",
    "sc.decode_distribution_calls": "count",
    "gf.element_ops": "count",
    "symmetry.check_s": "s",
    "mc.mc_ser_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}
SETUP_PHASES = ("setup.import_s", "gf.field_s", "channel.construct_s",
                "construct.info_set_s")
ELEMENT_OPS = ("__add__", "__sub__", "__mul__", "__neg__", "__truediv__", "__pow__",
               "inverse")
CHECKS = ("check_equal_ser", "check_coset_invariance", "check_xi_invariance",
          "check_ser_bit_flip_symmetry", "check_message_invariance")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []
        self._undo = []

    def _patch(self, owner, attr, wrapper):
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, orig))
        setattr(owner, attr, functools.wraps(orig)(wrapper(orig)))

    def span(self, owner, attr, name, note=None):
        """Record a span for every call of ``owner.attr``.

        ``note(arguments)`` gets the call's bound arguments by name.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(orig):
            sig = inspect.signature(orig) if note else None

            def traced(*args, **kwargs):
                value = note(sig.bind(*args, **kwargs).arguments) if note else None
                rec = [name, clock(), 0.0, stack[-1] if stack else -1, value]
                stack.append(len(spans))
                spans.append(rec)
                try:
                    return orig(*args, **kwargs)
                finally:
                    rec[2] = clock()
                    stack.pop()
            return traced

        self._patch(owner, attr, wrapper)

    def count(self, owner, attr, name):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(orig):
            def counted(*args, **kwargs):
                counts[name] += 1
                return orig(*args, **kwargs)
            return counted

        self._patch(owner, attr, wrapper)

    @contextmanager
    def region(self, name, note=None):
        """A span opened by the benchmark itself, e.g. one timed round."""
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, note]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def restore(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


def install(tracer):
    """Wrap the layer boundaries of qpolar; undo with ``tracer.restore()``."""
    from qpolar import channel, construct, gf, mc, oracle, rng, sc, sim, symmetry

    tracer.span(mc, "sc_decode_batch", "sc.decode_batch", note=_minus_gather_bytes)
    tracer.span(rng, "uniforms", "rng.uniforms")
    tracer.span(rng, "normals", "rng.normals")
    tracer.span(mc, "polar_transform_indices", "code.encode")
    for cls in (channel.FiniteChannel, channel.AwgnBpskChannel):
        tracer.span(cls, "sample_batch", "channel.sample")
        tracer.span(cls, "likelihood_batch", "channel.likelihood")
    for module in (sim, oracle, construct):
        tracer.span(module, "decode_tallies", "mc.decode_tallies",
                    note=lambda a: a["stop"] - a["start"])
    tracer.span(oracle, "mc_ser", "mc.mc_ser")
    for module in (oracle, symmetry):
        tracer.span(module, "exact_ser", "oracle.exact_ser",
                    note=lambda a: a["ch"].num_outputs ** a["code"].n)
    for module in (oracle, symmetry, sc):
        tracer.span(module, "sc_decode_distribution", "sc.decode_distribution")
    for check in CHECKS:
        tracer.span(symmetry, check, "symmetry.check")
    for op in ELEMENT_OPS:
        tracer.count(gf.FieldElement, op, "gf.element_ops")


def _minus_gather_bytes(a):
    # the (B, n/2, q, q) float64 intermediate of the top-level minus rule
    b, n, q = a["T"].shape
    return b * (n // 2) * q * q * 8


def layer_metrics(spans, counts, phase_seconds):
    """Per-layer metrics of one traced phase lasting ``phase_seconds``."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]

    def parent_name(s):
        return spans[s[3]][0] if s[3] >= 0 else None

    def total(name, skip_parent=None):
        return sum(s[2] - s[1] for s in spans
                   if s[0] == name and parent_name(s) != skip_parent)

    def self_time(name):
        return sum(s[2] - s[1] - child[i] for i, s in enumerate(spans) if s[0] == name)

    def notes(name):
        return [s[4] for s in spans if s[0] == name]

    decode_s = total("sc.decode_batch")
    enumerated = sum(notes("oracle.exact_ser"))
    with_mass = sum(1 for s in spans if s[0] == "sc.decode_distribution"
                    and parent_name(s) == "oracle.exact_ser")
    return {
        "sc.decode_batch_s": decode_s,
        "sc.decode_batch_share": decode_s / phase_seconds,
        "rng.normals_s": total("rng.normals"),
        "channel.likelihood_s": total("channel.likelihood"),
        # uniforms drawn inside normals belong to the normals figure
        "rng.uniforms_s": total("rng.uniforms", skip_parent="rng.normals"),
        "channel.sample_s": total("channel.sample"),
        "code.encode_s": total("code.encode"),
        "mc.self_s": self_time("mc.decode_tallies"),
        "mc.blocks": sum(notes("mc.decode_tallies")),
        "mc.batches": len(notes("sc.decode_batch")),
        "sc.minus_gather_bytes_computed": max(notes("sc.decode_batch"), default=0),
        "oracle.exact_ser_s": self_time("oracle.exact_ser"),
        "oracle.outputs_enumerated": enumerated,
        "oracle.outputs_with_mass": with_mass,
        "oracle.support_ratio": with_mass / enumerated if enumerated else 0.0,
        "sc.decode_distribution_s": total("sc.decode_distribution"),
        "sc.decode_distribution_calls": len(notes("sc.decode_distribution")),
        "gf.element_ops": counts.get("gf.element_ops", 0),
        "symmetry.check_s": self_time("symmetry.check"),
        "mc.mc_ser_s": total("mc.mc_ser"),
    }
