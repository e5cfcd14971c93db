"""Tests of the benchmark itself: generators, tracer and metric names.

Run from the root of the repository with ``python -m pytest perfbench -q``.
"""

import json
import math
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import generators as gen  # noqa: E402
import pytest  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from hodgecharts import gallery  # noqa: E402
from hodgecharts.serialize import cone_from_json  # noqa: E402


@pytest.mark.parametrize("seed", [1, 2])
def test_generated_cones_pass_validation(seed):
    rng = random.Random(seed)
    graphs = [(3, [1], ()), (2, [2], {0}), (2, [1, 1], ()), (4, [2, 3], {1})]
    cones = [gen.sp_cone(gen.graph_blocks(*gen.ear_graph(rng, *shape))) for shape in graphs]
    cones += [gen.sp_cone(gen.psd_blocks(rng, g, k)) for g, k in ((3, 3), (4, 4))]
    cones += [gen.k3_type_cone(gen.k3_vectors(rng, b, k)) for b, k in ((4, 3), (6, 4))]
    cones += [gen.sp_cone(gen.relabel_blocks(rng, gen.psd_blocks(rng, 3, 3)))]
    cones += [gen.k3_type_cone(gen.relabel_vectors(rng, gen.k3_vectors(rng, 4, 3)))]
    for data in cones:
        cone = cone_from_json(data)  # NilpotentCone validation raises on failure
        assert cone.k == len(data["generators"])
    for name in ("charts-wide", "charts-deep"):
        for data in run.make_workload(name).setup(random.Random(seed))[:10]:
            cone_from_json(data)


def test_graph_genus_and_edges():
    rng = random.Random(5)
    for cycle, ears, closed in ((3, [1], ()), (2, [2], {0}), (4, [1, 3], {1}), (2, [1, 1, 2], ())):
        n_vertices, edge_list = gen.ear_graph(rng, cycle, ears, closed)
        assert len(edge_list) == cycle + sum(ears)
        assert len(edge_list) - n_vertices + 1 == 1 + len(ears)
        assert all(u != v for u, v in edge_list)
        gammas = gen.cycle_vectors(n_vertices, edge_list)
        assert all(any(g) for g in gammas)  # no bridges


def test_theta_graph_is_the_genus2_gallery_cone():
    theta = cone_from_json(gen.theta_cone())
    ref = gallery.genus2_cone()
    assert (theta.dim, theta.weight, theta.form) == (ref.dim, ref.weight, ref.form)
    key = lambda m: m.entries  # noqa: E731
    assert sorted(theta.generators, key=key) == sorted(ref.generators, key=key)


def test_inputs_depend_only_on_the_seed():
    for name in run.WORKLOADS:
        first = run.make_workload(name).setup(random.Random(7))
        again = run.make_workload(name).setup(random.Random(7))
        other = run.make_workload(name).setup(random.Random(8))
        assert first == again and first != other


def _digests(workload, items):
    return [workload.check(item, workload.execute(item)).digest for item in items]


def test_wrapping_leaves_results_unchanged():
    import hodgecharts.cones as cones
    from hodgecharts import linalg

    charts = run.make_workload("charts-wide")
    numeric = run.make_workload("numeric-orbits")
    charts_items = [gen.theta_cone(), run.make_workload("charts-deep").setup(random.Random(3))[0]]
    numeric_items = numeric.warm_up_inputs(random.Random(3))
    before = _digests(charts, charts_items) + _digests(numeric, numeric_items)
    original_kernel, original_rref = cones.kernel, linalg.RationalMatrix.rref
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cones.kernel is not original_kernel
        traced = _digests(charts, charts_items) + _digests(numeric, numeric_items)
    finally:
        tracer.uninstall()
    assert traced == before
    assert cones.kernel is original_kernel is linalg.kernel
    assert linalg.RationalMatrix.rref is original_rref
    stats = spans.layer_stats(tracer.names, tracer.spans, tracer.repeats)
    for layer in ("linalg.rref", "linalg.kernel", "cones.relation_space",
                  "charts.build_atlas", "metrics.log_det_lambda", "positivity.numerical_dimension"):
        assert stats[layer]["calls"] > 0, layer
    assert all(s["self_s"] <= s["total_s"] + 1e-9 for s in stats.values())


def test_dispatch_tables_are_wrapped_and_restored():
    import hodgecharts.cli as cli

    original = dict(cli._RUNNERS)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(cli._RUNNERS[k] is not v for k, v in original.items())
    finally:
        tracer.uninstall()
    assert cli._RUNNERS == original


def test_self_time_subtracts_children():
    names = ["outer", "inner"]
    rows = [(0, 0.0, 10.0, -1, 0, 0), (1, 1.0, 4.0, 0, 0, 6), (1, 5.0, 6.0, 0, 0, 6)]
    stats = spans.layer_stats(names, rows, [False, False, True])
    assert stats["outer"]["self_s"] == pytest.approx(6.0)
    assert stats["inner"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0,
                              "size": 12, "size_max": 6, "repeats": 1}


def test_tail_is_the_harrell_davis_percentile():
    lat = [float(i) for i in range(1, 41)]
    estimate, beyond = run.tail(lat, 75)
    assert beyond == 10
    assert 30.0 < estimate < 31.5  # the population p75 of 1..40 is 30.75
    assert run.tail(lat, 50)[0] == pytest.approx(20.5)
    assert run.tail(lat[::-1], 99)[1] == 0
    assert run.tail([5.0], 50) == (5.0, 0)
    assert run.tail([1.0, 2.0, math.inf], 50)[0] == math.inf


def test_siegel_expectations_match_the_fixture_verdicts():
    cases = {  # fixture: (p, q, r, parabolic)
        "siegel_cl2.json": ((1, 0), (0, 1), (0, 0), "minimal"),
        "siegel_cl2_swapped.json": ((0, 1), (1, 0), (0, 0), "minimal"),
        "siegel_cl3.json": ((0, 1), (1, 0), (0, 0), "maximal"),
        "siegel_cl3_swapped.json": ((1, 0), (0, 1), (0, 0), "maximal"),
    }
    for fixture, (p, q, r, parabolic) in cases.items():
        got = workloads.siegel_expected(p, q, r, [(1, 1), (1, 0)], parabolic)
        assert got == workloads.SIEGEL_VERDICTS[fixture], fixture


def test_residue_closed_form_for_constant_g():
    t = 1e-5
    value = workloads.residue_closed_form({(0, 0): 1.0}, t)
    assert value == pytest.approx(2 * 3.141592653589793 * 11.512925464970229)


def test_benchmark_json_names_match_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    # numeric-orbits runs with --workload numeric-orbits or all, ungated (README).
    gated = [w for w in run.WORKLOADS if w != "numeric-orbits"]
    assert [w["name"] for w in spec["workloads"]] == gated
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        m: u for m, u in run.END_TO_END.items() if m not in run.NOT_IN_RESULT
    }
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        m: u for m, u in run.PER_LAYER.items() if m not in run.NOT_IN_RESULT
    }
    recorded = json.loads(workloads.DIGESTS_FILE.read_text())
    assert sorted(recorded) == sorted(workloads.FIXTURES)
    fixtures = sorted(p.name for p in (HERE.parent / "fixtures").glob("*.json"))
    assert fixtures == sorted(workloads.FIXTURES)
