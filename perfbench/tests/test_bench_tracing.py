"""The tracer records nested spans, computes self times and leaves qpolar as it found it."""

import json
import os
import types

import numpy as np
import qpolar
from qpolar import mc, oracle, sim, symmetry
from qpolar.gf import FieldElement

import bench_env
import run
import tracing


def test_spans_nest_and_self_time_excludes_children():
    spans = [
        ["mc.decode_tallies", 0.0, 10.0, -1, 100],
        ["sc.decode_batch", 1.0, 7.0, 0, 64],
        ["rng.normals", 7.0, 9.0, 0, None],
        ["rng.uniforms", 7.5, 8.0, 2, None],
        ["rng.uniforms", 9.0, 9.5, 0, None],
    ]
    m = tracing.layer_metrics(spans, {}, 20.0)
    assert m["mc.self_s"] == 10.0 - 6.0 - 2.0 - 0.5
    assert m["sc.decode_batch_share"] == 6.0 / 20.0
    assert m["rng.normals_s"] == 2.0
    assert m["rng.uniforms_s"] == 0.5          # the draw inside normals is not counted twice
    assert m["mc.blocks"] == 100 and m["mc.batches"] == 1
    assert m["sc.minus_gather_bytes_computed"] == 64
    assert m["oracle.support_ratio"] == 0.0


def test_wrapping_records_parents_and_restores():
    ns = types.SimpleNamespace()
    ns.inner = lambda x: x + 1
    ns.outer = lambda x: ns.inner(x) * 2
    orig = ns.inner
    t = tracing.Tracer()
    t.span(ns, "outer", "outer")
    t.span(ns, "inner", "inner", note=lambda a: a["x"])
    with t.region("round", 0):
        assert ns.outer(3) == 8
    t.restore()
    assert ns.inner is orig
    names = [(s[0], s[3], s[4]) for s in t.spans]
    assert names == [("round", -1, 0), ("outer", 0, None), ("inner", 1, 3)]


def test_install_is_transparent_and_undone():
    before = (mc.sc_decode_batch, sim.decode_tallies, oracle.exact_ser,
              symmetry.sc_decode_distribution, FieldElement.__add__)
    f2 = qpolar.default_field(2)
    code = qpolar.PolarCode(f2, 3, (3, 5, 6, 7))
    ch = qpolar.qsc(f2, 1 / 10)
    plain = mc.decode_tallies(code, ch, 9, 0, 300)
    t = tracing.Tracer()
    tracing.install(t)
    try:
        traced = sim.decode_tallies(code, ch, 9, 0, 300)
        oracle.exact_average_ser(qpolar.PolarCode(f2, 1, (1,)), ch)
    finally:
        t.restore()
    assert all(np.array_equal(a, b) for a, b in zip(plain, traced))
    assert before == (mc.sc_decode_batch, sim.decode_tallies, oracle.exact_ser,
                      symmetry.sc_decode_distribution, FieldElement.__add__)
    m = tracing.layer_metrics(t.spans, t.counts, 1.0)
    assert m["mc.blocks"] == 300 and m["mc.batches"] == 1
    assert m["oracle.outputs_enumerated"] == 4 and m["oracle.outputs_with_mass"] == 4
    assert m["gf.element_ops"] > 0


def test_benchmark_json_names_every_metric_the_code_reports():
    with open(os.path.join(bench_env.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER
