"""Acceptance criteria, one test per criterion, with stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line per
criterion including the elapsed time against its budget.
"""

import cmath
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from hodgecharts.charts import binomial_relations, build_atlas
from hodgecharts.cones import farkas_alternative, farkas_split, k_index_map, relation_space
from hodgecharts.errors import NotPolarized
from hodgecharts.filtrations import (
    adjoint_filtration,
    polarization_form,
    primitive_subspace,
    rwfp_consequence_check,
    weight_filtration,
)
from hodgecharts.gallery import (
    genus2_cone,
    twisted_weight1_orbit,
    weight2_inert_orbit,
    weight2_jordan3_orbit,
    weight2_twoblock_orbit,
)
from hodgecharts.linalg import RationalMatrix, Subspace, hnf_rows, rank
from hodgecharts.metrics import (
    augmented_log_det,
    curvature_limit_check,
    expansion_fit,
    log_det_lambda,
)
from hodgecharts.ncd import (
    DoubleCurve,
    NCDSurface,
    SurfacePiece,
    TriplePoint,
    build_weight_complexes,
    friedman_check,
    graded_dims,
    triple_point_check,
)
from hodgecharts.positivity import (
    CurvatureTriple,
    curvature_identity_check,
    sigma_weight1,
    sigma_weight2,
)
from hodgecharts.residue import residue_integral
from hodgecharts.siegel import ConeSpec, boundedness_probe

from .oracles import (
    farkas_branch_infeasible,
    filtration_satisfies_defining_properties,
    random_nilpotent,
    split_supports,
    subspace_sum,
)
from .test_cones import _gallery_cones, _oracle_cones, _polarized_type_cones
from .test_metrics import conifold_orbit, weight3_orbit


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.perf_counter()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        elapsed = time.perf_counter() - start
        status = "FAIL" if failed or elapsed >= budget_seconds else "PASS"
        print(
            f"ACCEPTANCE {number:2d} [{status}] {description}: "
            f"{elapsed:.2f}s (budget {budget_seconds:g}s)"
        )
        if not failed:
            assert elapsed < budget_seconds, f"criterion {number} exceeded budget"


def test_criterion_1_genus2_golden():
    with criterion(1, "genus-2 golden pipeline", 1.0):
        cone = genus2_cone()
        assert relation_space(cone, ()).dim == 0
        s1 = relation_space(cone, (1,))
        assert s1.orthogonal_complement() == Subspace.from_vectors(3, [[0, 1, 1]])
        assert relation_space(cone, (1, 2)) == Subspace.full(3)
        km = k_index_map(cone)
        assert km.table[()] == ()
        for i in (1, 2, 3):
            assert km.table[(i,)] == (i,)
        for other in ((1, 2), (1, 3), (2, 3), (1, 2, 3)):
            assert km.table[other] == (1, 2, 3)
        atlas = build_atlas(cone)
        rel = binomial_relations(atlas.certificate_chart())
        assert [list(u) for u in rel.vectors] == hnf_rows([[1, 1, 1, -2]])
        main_text = [(1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
        assert [list(u) for u in binomial_relations(main_text).vectors] == hnf_rows(
            [[1, 1, 1, -2]]
        )


def test_criterion_2_adjoint_membership():
    with criterion(2, "N3-N2-N1 in W_-1(ad N1)", 1.0):
        cone = genus2_cone()
        adj = adjoint_filtration(cone, (1,))
        diff = cone.generators[2] - cone.generators[1] - cone.generators[0]
        assert adj.contains(diff, -1)


def test_criterion_3_farkas_suite():
    with criterion(3, "Farkas/support-split suite, 200 subspaces", 30.0):
        rng = random.Random(20260809)
        mismatches = 0
        for trial in range(200):
            k = rng.randint(1, 6)
            nvecs = rng.randint(0, k)
            s = Subspace.from_vectors(
                k,
                [[Fraction(rng.randint(-3, 3)) for _ in range(k)] for _ in range(nvecs)],
            )
            split = farkas_split(s)
            # the exhaustive support enumeration must single out the same K
            if split_supports(s) != [split.support]:
                mismatches += 1
            # one Farkas alternative, re-verified: plug in the returned branch
            # and eliminate the other
            mu = s.orthogonal_complement().basis
            i = rng.randint(1, k)
            e_i = [Fraction(0)] * k
            e_i[i - 1] = Fraction(1)
            a = RationalMatrix.from_rows(list(mu.entries) + [e_i], cols=k)
            b = [Fraction(0)] * mu.rows + [Fraction(1)]
            res = farkas_alternative(a, b)
            if res.solution is not None:
                ok = all(x >= 0 for x in res.solution) and list(
                    a.mul_vec(res.solution)
                ) == b
                other = "certificate"
            else:
                y = res.certificate
                ok = all(
                    sum(a.entries[r][c] * y[r] for r in range(a.rows)) >= 0
                    for c in range(a.cols)
                ) and sum(yi * bi for yi, bi in zip(y, b)) < 0
                other = "solution"
            if not ok or not farkas_branch_infeasible(a, b, other):
                mismatches += 1
        assert mismatches == 0


def test_criterion_4_weight_filtration_suite():
    with criterion(4, "weight filtration characterization, 100 nilpotents", 30.0):
        rng = random.Random(20260810)
        for trial in range(100):
            dim = rng.randint(2, 8)
            n = random_nilpotent(rng, dim)
            w = weight_filtration(n, 0)
            assert filtration_satisfies_defining_properties(n, w)
            # uniqueness: every one-step perturbation violates a property
            for level in range(w.low, w.high):
                cur, above, below = w.step(level), w.step(level + 1), w.step(level - 1)
                if above.dim > cur.dim:
                    extra = next(
                        r for r in above.basis.entries if not cur.contains_vector(r)
                    )
                    bigger = subspace_sum(cur, Subspace.from_vectors(dim, [extra]))
                    assert not filtration_satisfies_defining_properties(
                        n, _with_step(w, level, bigger)
                    )
                if cur.dim > below.dim:
                    reps = [
                        r for r in cur.basis.entries if not below.contains_vector(r)
                    ]
                    smaller = subspace_sum(below, Subspace.from_vectors(dim, reps[1:]))
                    if smaller.dim < cur.dim:
                        assert not filtration_satisfies_defining_properties(
                            n, _with_step(w, level, smaller)
                        )


def _with_step(w, level, subspace):
    class Perturbed:
        center = w.center
        ambient_dim = w.ambient_dim
        low = min(level if subspace.dim else w.low, w.low)
        high = w.high

        @staticmethod
        def step(l):
            if l == level:
                return subspace
            return w.step(l)

    return Perturbed


def _tpf_fixtures():
    two = NCDSurface(
        [SurfacePiece("A", (1, 0, 1, 0, 1)), SurfacePiece("B", (1, 0, 1, 0, 1))],
        [DoubleCurve(("A", "B"), 2, (-3, 3))],
    )
    names = ["P1", "P2", "P3", "P4"]
    tetra = NCDSurface(
        [SurfacePiece(n, (1, 0, 3, 0, 1)) for n in names],
        [
            DoubleCurve((a, b), 0, (-1, -1))
            for i, a in enumerate(names)
            for b in names[i + 1 :]
        ],
        [
            TriplePoint((a, b, c))
            for i, a in enumerate(names)
            for j, b in enumerate(names[i + 1 :], i + 1)
            for c in names[j + 1 :]
        ],
    )
    triangle = NCDSurface(
        [SurfacePiece(n, (1, 0, 2, 0, 1)) for n in ("A", "B", "C")],
        [
            DoubleCurve(("A", "B"), 1, (0, -1)),
            DoubleCurve(("A", "C"), 0, (-1, 0)),
            DoubleCurve(("B", "C"), 0, (0, -1)),
        ],
        [TriplePoint(("A", "B", "C"))],
    )
    return [two, tetra, triangle]


def test_criterion_5_lmhs_complexes():
    with criterion(5, "NCD weight complexes and dual dimensions", 5.0):
        for surface in _tpf_fixtures():
            assert all(triple_point_check(surface).values())
            w = build_weight_complexes(surface)
            assert friedman_check(w)
            assert (w.r_mid @ w.g_mid + w.r2.transpose() @ w.r2).is_zero()
            dims = graded_dims(w)
            assert dims[4] == dims[0] and dims[3] == dims[1]
        # negative control: perturbed self-intersection breaks the square
        broken = NCDSurface(
            [SurfacePiece("A", (1, 0, 1, 0, 1)), SurfacePiece("B", (1, 0, 1, 0, 1))],
            [DoubleCurve(("A", "B"), 2, (-3, 4))],
        )
        assert not all(triple_point_check(broken).values())
        assert not friedman_check(build_weight_complexes(broken))


def test_criterion_6_residue_identity():
    with criterion(6, "residue-pairing slope and bounded case", 60.0):
        ts = [10.0 ** -k for k in range(2, 6)]
        vals = [residue_integral({(0, 0): 1.0}, t) for t in ts]
        logs = [math.log(1 / t) for t in ts]
        slope = float(np.polyfit(logs, vals, 1)[0])
        assert abs(slope / (2 * math.pi) - 1.0) < 0.02
        bounded = [residue_integral({(1, 0): 1.0}, t) for t in ts]
        assert max(bounded) < 2 * math.pi  # stays bounded as t -> 0


def test_criterion_7_curvature_restriction():
    with criterion(7, "curvature restriction along the twisted orbit", 60.0):
        orbit = twisted_weight1_orbit(eps=0.1)
        ts = [(10.0 ** -k,) for k in range(2, 7)]
        rep = curvature_limit_check(orbit, (1,), 0.0, ts)
        assert rep.decreasing
        assert rep.final_error < 1e-2


def test_criterion_8_expansion_exponents():
    with criterion(8, "logarithmic growth exponents 2/1/0", 60.0):
        expected = {
            2: weight2_jordan3_orbit(),
            1: weight2_twoblock_orbit(),
            0: weight2_inert_orbit(),
        }
        for power, orbit in expected.items():
            fit = expansion_fit(orbit, lambda tau: (tau,), 0.0)
            assert fit.power == power
            assert fit.residual < 1e-2


def test_criterion_9_siegel_probes():
    with criterion(9, "Siegel escape verdicts and slopes", 5.0):
        cl2 = ConeSpec([1, 0], [0, 1], [0, 0])
        rep2 = boundedness_probe(cl2, lambda t: (t, 1.0), "minimal")
        assert rep2.verdict == "escapes-every-Siegel-set"
        assert abs(rep2.slopes["exp_2(a-d)"] + 1.0) <= 0.05
        cl3 = ConeSpec([0, 1], [1, 0], [0, 0])
        rep3 = boundedness_probe(cl3, lambda t: (t, 1.0), "maximal")
        assert rep3.verdict == "escapes-every-Siegel-set"
        assert abs(rep3.slopes["norm_B1_4"] - 1.0) <= 0.05
        one = ConeSpec([1], [1], [0])
        assert boundedness_probe(one, lambda t: (t,), "minimal").verdict == "contained"


def _random_symmetric(rng, dim: int) -> RationalMatrix:
    rows = [[Fraction(rng.randint(-3, 3)) for _ in range(dim)] for _ in range(dim)]
    return RationalMatrix.from_rows(
        [[rows[i][j] + rows[j][i] for j in range(dim)] for i in range(dim)], cols=dim
    )


def test_criterion_10_positivity_checks():
    """sigma_weight1 is injective exactly on nonsingular quadrics.
    sigma_weight2 on a triple with independent slices and a nonsingular
    symmetric q is injective of rank dim_t, and a triple with dependent
    slices is refused.  The curvature identity holds exactly."""
    with criterion(10, "quadric contraction ranks and curvature identity", 10.0):
        rng = random.Random(20260811)
        injective_seen = 0
        while injective_seen < 50:
            dim = rng.choice((2, 3))
            q = _random_symmetric(rng, dim)
            if rank(q) == dim:
                assert sigma_weight1(q).injective
                injective_seen += 1
            else:
                assert not sigma_weight1(q).injective
        # degenerate quadrics of every rank stratum fail
        for diag in ([0, 0], [1, 0], [0, 0, 0], [1, 0, 0], [1, 1, 0]):
            d = len(diag)
            q = RationalMatrix.from_rows(
                [[Fraction(diag[i]) if i == j else Fraction(0) for j in range(d)] for i in range(d)]
            )
            assert not sigma_weight1(q).injective
        injective_seen = refused = 0
        while injective_seen < 50:
            dt, dw, du = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
            entries = [
                [[Fraction(rng.randint(-2, 2)) for _ in range(du)] for _ in range(dw)]
                for _ in range(dt)
            ]
            triple = CurvatureTriple(dt, dw, du, entries)
            q = _random_symmetric(rng, dw)
            if rank(q) < dw:
                continue
            slices = RationalMatrix.from_rows([sum(sl, []) for sl in entries], cols=dw * du)
            if rank(slices) < dt:
                with pytest.raises(ValueError):
                    sigma_weight2(triple, q)
                refused += 1
                continue
            rep = sigma_weight2(triple, q)
            assert rep.injective and rep.rank == dt
            injective_seen += 1
        assert refused
        for _ in range(100):
            dt, dw, du = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
            entries = [
                [[Fraction(rng.randint(-3, 3)) for _ in range(du)] for _ in range(dw)]
                for _ in range(dt)
            ]
            triple = CurvatureTriple(dt, dw, du, entries)
            e = [Fraction(rng.randint(-3, 3)) for _ in range(dw)]
            xi = [Fraction(rng.randint(-3, 3)) for _ in range(dt)]
            assert curvature_identity_check(triple, e, xi).match


def _nonempty_index_sets(k: int):
    return [index for size in range(1, k + 1) for index in combinations(range(1, k + 1), size)]


def test_criterion_11_polarization_on_primitive_pieces():
    """On the primitive piece P of Gr_{n+a} W(N_I), Q(u, N_I^a v) is
    (-1)^{n+a}-symmetric and nondegenerate, so its Gram matrix has rank dim P.
    This is sl2 algebra and holds for every nilpotent isometry, so the
    indefinite K3-type draws of the oracle cones are included."""
    with criterion(11, "polarization form on primitive pieces", 1.0):
        cases = nonzero = 0
        for cone in _oracle_cones():
            for index in _nonempty_index_sets(cone.k):
                for a in range(cone.weight + 1):
                    form = polarization_form(cone, index, a)
                    assert form.transpose() == form.scale((-1) ** (cone.weight + a))
                    dim = primitive_subspace(cone, index, a).representatives.rows
                    assert rank(form) == dim
                    cases += 1
                    nonzero += dim > 0
        assert cases == 185 and nonzero > cases // 2


def test_criterion_12_rwfp_consequence():
    """Relative weight filtration property (Cattani-Kaplan-Schmid): for
    nonempty I <= I' with N_{I'} in W_{-1}(ad N_I), W(N_I) = W(N_{I'}).
    Checked on a seeded half of the 1483 nested pairs of the gallery and
    polarized-type cones, where the premise holds on 801 of them.  It fails
    on the indefinite K3-type draws of the oracle cones (entries 11-14 of
    _oracle_cones: 6 of their 217 nested pairs), which are not polarized, so
    those cones are left out."""
    with criterion(12, "RWFP consequence on nested index sets", 1.5):
        pairs = [
            (cone, index, larger)
            for cone in (*_gallery_cones(), *_polarized_type_cones())
            for index in _nonempty_index_sets(cone.k)
            for larger in _nonempty_index_sets(cone.k)
            if set(index) <= set(larger)
        ]
        assert len(pairs) == 1483
        premises = set()
        for cone, index, larger in random.Random(12).sample(pairs, len(pairs) // 2):
            report = rwfp_consequence_check(cone, index, larger)
            assert report.holds, (index, larger)
            premises.add(report.premise)
        assert premises == {True, False}


def test_criterion_13_chart_fibers_are_relation_directions():
    """The chart of a stratum K is t -> (t^c) over the rows c of C_K, so the
    log vector field with coefficients a is tangent to its fibers exactly
    when C_K a = 0.  Those directions are S_K: C_K kills S_K and has rank
    k - dim S_K.  Seeded integer vectors a, two per stratum: a point of S_K,
    and one shifted by a random step in {-1, 0, 1}^k, lie in S_K exactly
    when C_K a = 0; both outcomes occur."""
    rng = random.Random(13)
    with criterion(13, "chart fibers are the S_K directions", 1.0):
        outcomes = set()
        for cone in (*_gallery_cones(), *_polarized_type_cones()):
            atlas = build_atlas(cone)
            for chart in atlas.charts:
                space = chart.space
                c = RationalMatrix.from_rows(chart.exponents, cols=cone.k)
                assert not any(x for v in space.basis.entries for x in c.mul_vec(v))
                assert rank(c) == cone.k - space.dim
                for step in (False, True):
                    a = [0] * cone.k
                    for row in space.basis.entries:
                        coeff = rng.randint(-3, 3)
                        a = [x + coeff * y for x, y in zip(a, row)]
                    scale = math.lcm(*(Fraction(x).denominator for x in a))
                    a = [int(x * scale) for x in a]
                    if step:
                        a = [x + rng.randint(-1, 1) for x in a]
                    inside = space.contains_vector(a)
                    assert inside is not any(c.mul_vec(a))
                    outcomes.add(inside)
        assert outcomes == {True, False}


def test_criterion_14_augmented_bundle_sees_the_degeneration():
    """The augmented Hodge bundle in closed form at weight 3.  Along the orbit
    of test_metrics.weight3_orbit, with y = log(1/|t|)/2 pi,
    augmented_log_det = log 8 + log(1 + y^2), while log_det_lambda stays
    log 2: the augmented bundle sees the degeneration and the top Hodge
    bundle does not.  28 points: |t| from 0.9 down to 1e-12, four arguments
    each."""
    with criterion(14, "augmented Hodge bundle in closed form at weight 3", 1.0):
        orbit = weight3_orbit()
        for r in (0.9, 0.5, 1e-1, 1e-2, 1e-3, 1e-6, 1e-12):
            y = math.log(1 / r) / (2 * math.pi)
            for arg in range(4):
                t = (r * cmath.exp(1j * (0.3 + arg * math.pi / 2)),)
                augmented = augmented_log_det(orbit, t, 0.0)
                assert abs(augmented - math.log(8) - math.log(1 + y * y)) < 1e-12
                assert abs(log_det_lambda(orbit, t, 0.0) - math.log(2)) < 1e-12


def test_criterion_15_augmented_bundle_on_a_horizontal_orbit():
    """The augmented Hodge bundle in closed form on a period map: the
    conifold orbit of test_metrics.conifold_orbit is horizontal, and with
    y = log(1/|t|)/2 pi, log_det_lambda = log 2 while
    augmented_log_det = log 8 + log y.  The top Hodge bundle sees no
    degeneration, as the h^{3,0} line sits in Gr_3^W; the augmented bundle
    sees it through the line e0 of F^2.  16 points: |t| from 0.5 down to
    1e-100, four arguments each.  With -N the flag is still horizontal, but
    its F^2 pairing has the wrong signature, and the augmented determinant
    is refused naming F^2."""
    with criterion(15, "augmented Hodge bundle on a horizontal conifold orbit", 1.0):
        orbit = conifold_orbit()
        orbit.check_horizontal()
        for r in (0.5, 1e-3, 1e-12, 1e-100):
            y = math.log(1 / r) / (2 * math.pi)
            for arg in range(4):
                t = (r * cmath.exp(1j * (0.3 + arg * math.pi / 2)),)
                assert abs(log_det_lambda(orbit, t, 0.0) - math.log(2)) < 1e-12
                augmented = augmented_log_det(orbit, t, 0.0)
                assert abs(augmented - math.log(y) - math.log(8)) < 1e-12
        flipped = conifold_orbit(-1)
        flipped.check_horizontal()
        for r in (0.5, 1e-3, 1e-12):
            with pytest.raises(NotPolarized, match=r"^F\^2 pairing"):
                augmented_log_det(flipped, (r,), 0.0)
