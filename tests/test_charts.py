import json
import random
from pathlib import Path

import pytest

from hodgecharts.charts import (
    Chart,
    MonomialAtlas,
    binomial_relations,
    build_atlas,
    separation_check,
)
from hodgecharts.cli import run_charts
from hodgecharts.errors import InvalidSplit, SeparationFailure
from hodgecharts.gallery import equal_pair_cone, genus2_cone, single_cone
from hodgecharts.linalg import RationalMatrix, hnf_rows
from hodgecharts.serialize import cone_from_json

from .oracles import cone_to_json, per_index_set_relation_table, row_scan_witnesses
from .test_cones import (
    _gallery_cones,
    _graphic_cones,
    _oracle_cones,
    _pointed_k3_cone,
    _polarized_type_cones,
    _random_abelian_cone,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
CHARTS_FIXTURES = ("genus2_cone.json", "rank1_cone.json", "single_cone.json")

SEED = 913

PAPER_SIX_CHART = [(1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1), (2, 1, 1), (1, 1, 2)]
MAIN_TEXT_CHART = [(1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)]


def test_atlas_genus2_lattice():
    atlas = build_atlas(genus2_cone())
    assert len(atlas.exponents) == 6
    mine = hnf_rows([list(r) for r in atlas.exponents])
    printed = hnf_rows([list(r) for r in PAPER_SIX_CHART])
    assert mine == printed
    supports = [c.support for c in atlas.charts]
    assert supports == [(), (1,), (2,), (3,), (1, 2, 3)]
    # every exponent row extends over the closed polydisc
    assert all(e >= 0 for row in atlas.exponents for e in row)
    # rows of each chart annihilate the relation space exactly
    for chart in atlas.charts:
        for a in chart.space.basis.entries:
            for c in chart.exponents:
                assert sum(ai * ci for ai, ci in zip(a, c)) == 0


def test_atlas_single_generator():
    atlas = build_atlas(single_cone())
    by_support = {c.support: c.exponents for c in atlas.charts}
    assert by_support[()] == ((1,),)
    assert by_support[(1,)] == ()


def test_atlas_equal_pair():
    atlas = build_atlas(equal_pair_cone())
    by_support = {c.support: c.exponents for c in atlas.charts}
    assert len(by_support[()]) == 1  # rank-1 relation space
    assert hnf_rows([list(by_support[()][0])]) == [[1, 1]]


def test_certificate_chart_matches_main_text():
    atlas = build_atlas(genus2_cone())
    rows = atlas.certificate_chart()
    assert hnf_rows([list(r) for r in rows]) == hnf_rows(
        [list(r) for r in MAIN_TEXT_CHART]
    )
    rel = binomial_relations(rows)
    assert rel.vectors == ((1, 1, 1, -2),)
    assert rel.as_equations() == ("z1*z2*z3 = z4^2",)


def test_binomial_relations_examples():
    rel = binomial_relations(MAIN_TEXT_CHART)
    assert rel.vectors == ((1, 1, 1, -2),)
    assert binomial_relations([(1, 0), (0, 1)]).vectors == ()
    rng = random.Random(SEED)
    for _ in range(25):
        m, k = rng.randint(1, 5), rng.randint(1, 4)
        rows = [[rng.randint(0, 3) for _ in range(k)] for _ in range(m)]
        for u in binomial_relations(rows).vectors:
            combo = [sum(ui * rows[i][j] for i, ui in enumerate(u)) for j in range(k)]
            assert all(x == 0 for x in combo)


def test_relation_lattice_invariant_under_basis_change():
    """Adding one lattice row to another changes the chart but not the lattices."""
    rows = [list(r) for r in MAIN_TEXT_CHART]
    altered = [list(r) for r in rows]
    altered[3] = [a + b for a, b in zip(altered[3], altered[0])]  # still in lattice
    assert hnf_rows(altered) == hnf_rows(rows)


def test_separation_genus2_and_negative_control():
    atlas = build_atlas(genus2_cone())
    report = separation_check(atlas)
    assert report.separated and len(report.witnesses) == 10
    single = MonomialAtlas(atlas.k_map, (atlas.charts[0],))
    assert separation_check(single).separated  # vacuous
    duplicated = MonomialAtlas(atlas.k_map, (atlas.charts[1], atlas.charts[1]))
    with pytest.raises(SeparationFailure):
        separation_check(duplicated)


def test_fiber_tangency():
    """The log vector field with coefficients a is tangent to the fibers of
    the chart of K exactly when a . c = 0 for every exponent row c, which
    holds exactly when a lies in S_K (acceptance criterion 13 checks this on
    every stratum of the seeded cones)."""
    charts = build_atlas(genus2_cone()).relation_table
    for k, a, tangent in (
        ((1,), (1, 0, 0), True),
        ((), (1, 0, 0), False),
        ((), (0, 0, 0), True),
    ):
        _assert_tangency(charts[k], a, tangent)


def _assert_tangency(chart, a, tangent):
    assert all(sum(x * c for x, c in zip(a, row)) == 0 for row in chart.exponents) is tangent
    assert chart.space.contains_vector(a) is tangent


def test_decoupled_respects_stratum_relation_space():
    """On the genus-2 stratum K = (1,), the direction (0, 1, -1) lies in S_K
    and is tangent to the fibers of its chart; (0, 1, 1) is neither."""
    chart = build_atlas(genus2_cone()).relation_table[(1,)]
    _assert_tangency(chart, (0, 1, -1), True)
    _assert_tangency(chart, (0, 1, 1), False)


def test_atlas_names_the_stratum_of_a_cone_that_is_not_strictly_convex():
    """With N_3 = -N_1, N_K = 0 on K = (1, 3), so W_-1(ad N_K) = 0 misses N_1
    and S_K^perp does not vanish on K: the atlas refuses, naming K and N_1."""
    cones = list(_oracle_cones())
    for cone in (cones[11], cones[13]):
        assert cone.generators[2] == -cone.generators[0]
        with pytest.raises(InvalidSplit) as caught:
            build_atlas(cone)
        assert str(caught.value) == (
            "stratum K=(1, 3): N_1 is not in W_-1(ad N_K), so S_K^perp does not vanish on K"
        )


def test_atlas_deterministic():
    first = build_atlas(genus2_cone())
    second = build_atlas(genus2_cone())
    assert first.exponents == second.exponents
    assert first.relations().vectors == second.relations().vectors


def test_pipeline_on_four_generator_cone():
    """Genus-2 cone extended by the dependent generator N1 + N2."""
    from hodgecharts.filtrations import NilpotentCone
    from hodgecharts.gallery import symplectic_form_4

    base = genus2_cone()
    n4 = base.generators[0] + base.generators[1]
    cone = NilpotentCone(4, 1, symplectic_form_4(), list(base.generators) + [n4])
    atlas = build_atlas(cone)
    km = atlas.k_map
    # the dependent direction forces the relation (1, 1, 0, -1) at the bottom
    from hodgecharts.cones import relation_space

    assert relation_space(cone, ()).basis.entries == (
        (1, 1, 0, -1),
    ) or relation_space(cone, ()).dim == 1
    for index, support in km.table.items():
        assert set(index) <= set(support)
        assert km.table[support] == support
    assert separation_check(atlas).separated
    for chart in atlas.charts:
        assert all(e >= 0 for row in chart.exponents for e in row)
        for a in chart.space.basis.entries:
            for c in chart.exponents:
                assert sum(ai * ci for ai, ci in zip(a, c)) == 0
    for u in atlas.relations().vectors:
        combo = [
            sum(ui * row[j] for ui, row in zip(u, atlas.exponents))
            for j in range(cone.k)
        ]
        assert all(x == 0 for x in combo)


def _scaled_cones():
    """Seeded graphic, abelian sp(2g) and pointed K3-type cones up to k = 8."""
    rng = random.Random(SEED + 5)
    yield from _graphic_cones(rng)
    for g, k in ((2, 6), (2, 8), (3, 7)):
        yield _random_abelian_cone(rng, g, k)
    for b, k in ((3, 6), (4, 8)):
        yield _pointed_k3_cone(rng, b, k)


def test_separation_matches_the_row_scan():
    """Scanning charts gives the witnesses of the scan over every row, on
    gallery cones (single_cone's K = (1,) has no rows) and on seeded sp and
    K3-type cones; both refuse a duplicated stratum."""
    empty = 0
    for cone in (*_gallery_cones(), *_polarized_type_cones(), *_scaled_cones()):
        atlas = build_atlas(cone)
        assert list(separation_check(atlas).witnesses.items()) == list(
            row_scan_witnesses(atlas).items()
        )
        empty += any(not chart.exponents for chart in atlas.charts)
    assert empty
    # A built atlas has an empty chart only for K = {1..k}, which witnesses no
    # pair; a hand-built one can put an empty chart first that would.
    # Separation reads only each chart's support and exponent rows.
    charts = tuple(
        Chart(k, None, RationalMatrix.from_rows(rows, cols=2), (), ())
        for k, rows in (((1,), ()), ((), ((1, 1),)), ((2,), ((1, 0),)))
    )
    hand_built = MonomialAtlas(None, charts)
    assert separation_check(hand_built).witnesses == row_scan_witnesses(hand_built)
    atlas = build_atlas(genus2_cone())
    duplicated = MonomialAtlas(atlas.k_map, (atlas.charts[1], atlas.charts[1]))
    for check in (separation_check, row_scan_witnesses):
        with pytest.raises(SeparationFailure):
            check(duplicated)


def test_charts_table_matches_per_index_set_encoding():
    """One encoding per stratum writes the bytes of one encoding per index
    set, and the chart rows are plain ints, on the charts fixtures and on
    seeded cones up to k = 8."""
    inputs = [json.loads((FIXTURES / name).read_text()) for name in CHARTS_FIXTURES]
    inputs += [cone_to_json(cone) for cone in _scaled_cones()]
    for data in inputs:
        report = run_charts(data, None)[0]  # charts reads no option
        atlas = build_atlas(cone_from_json(data))
        assert all(type(x) is int for row in atlas.exponents for x in row)
        oracle = per_index_set_relation_table(atlas)
        assert json.dumps(report, sort_keys=True, indent=2) == json.dumps(
            {**report, "relation_table": oracle}, sort_keys=True, indent=2
        )
    assert max(len(data["generators"]) for data in inputs) == 8
