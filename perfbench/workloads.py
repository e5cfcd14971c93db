"""The four benchmark workloads.

Each workload makes its inputs from a seeded ``random.Random`` (``inputs``),
runs one operation on one input (``execute``, the timed part), and checks the
operation's output (``check``, untimed), returning a report digest and a list
of problems.  An operation with a problem counts as failed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import generators as gen

HERE = Path(__file__).resolve().parent


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Outcome:
    """What ``check`` found: a report digest, problems, and the work done."""

    __slots__ = ("digest", "problems", "index_sets", "strata")

    def __init__(self, digest, problems, index_sets=0, strata=0):
        self.digest = digest
        self.problems = problems
        self.index_sets = index_sets
        self.strata = strata


# ---------------------------------------------------------------------------
# Exact atlases: charts-wide and charts-deep.


def _support(v) -> set[int]:
    return {i + 1 for i, x in enumerate(v) if x}


def atlas_problems(atlas, separation) -> list[str]:
    """Verify every stratum's certificates with plain Fraction arithmetic.

    The witness v must lie in S (the RREF basis reproduces it from its pivot
    entries), be nonnegative and have support exactly K; the cowitness must be
    orthogonal to S, nonnegative, with support K^c; each positive-basis row
    must be orthogonal to S, zero on K and positive off K.
    """
    problems = []
    if not separation.separated:
        problems.append("strata are not separated")
    for support, entry in atlas.relation_table.items():
        k = len(entry.witness)
        rows = entry.space.basis.entries
        pivots = [next(j for j, x in enumerate(row) if x) for row in rows]
        v, vt = entry.witness, entry.cowitness
        rebuilt = [sum((v[p] * row[j] for p, row in zip(pivots, rows)), Fraction(0)) for j in range(k)]
        if tuple(rebuilt) != tuple(v):
            problems.append(f"witness of K={support} is not in S")
        if min(v, default=0) < 0 or _support(v) != set(support):
            problems.append(f"witness of K={support} has the wrong sign or support")
        off = set(range(1, k + 1)) - set(support)
        if min(vt, default=0) < 0 or _support(vt) != off:
            problems.append(f"cowitness of K={support} has the wrong sign or support")
        for vec in (vt, *entry.basis.entries):
            if any(sum((a * b for a, b in zip(row, vec)), Fraction(0)) for row in rows):
                problems.append(f"a vector of K={support} is not orthogonal to S")
        for row in entry.basis.entries:
            if any(row[i - 1] for i in support) or any(row[i - 1] <= 0 for i in off):
                problems.append(f"a positive-basis row of K={support} has the wrong signs")
    return problems


class ChartsWorkload:
    """Atlases of generated cones, each rebuilt fresh from its JSON.

    ``mix`` lists one maker per cone of a round; a maker turns the run's
    ``random.Random`` into a cone.  Every round relabels each cone of the mix
    anew and runs them in a seeded order.
    """

    rounds = 12

    def __init__(self, mix, warm_up_input):
        self.mix = mix
        self.warm_up_input = warm_up_input

    def setup(self, rng) -> list:
        inputs = []
        for _ in range(self.rounds):
            batch = [make(rng) for make in self.mix]
            rng.shuffle(batch)
            inputs.extend(batch)
        return inputs

    def warm_up_inputs(self, rng) -> list:
        return [self.warm_up_input]

    def execute(self, data):
        """The CLI's charts pipeline, minus writing JSON."""
        from hodgecharts.charts import binomial_relations, build_atlas, separation_check
        from hodgecharts.serialize import cone_from_json

        cone = cone_from_json(data)
        atlas = build_atlas(cone)
        relations = atlas.relations()
        separation = separation_check(atlas)
        cert = atlas.certificate_chart()
        return cone.k, atlas, relations, separation, cert, binomial_relations(cert)

    def check(self, data, out) -> Outcome:
        k, atlas, relations, separation, cert, cert_relations = out
        report = {
            "table": sorted([list(i), list(kk)] for i, kk in atlas.k_map.table.items()),
            "charts": [[list(c.support), [list(r) for r in c.exponents]] for c in atlas.charts],
            "relations": [list(u) for u in relations.vectors],
            "certificate": [list(r) for r in cert],
            "certificate_relations": [list(u) for u in cert_relations.vectors],
            "witnesses": sorted([list(a), list(b), i] for (a, b), i in separation.witnesses.items()),
        }
        problems = atlas_problems(atlas, separation)
        if len(atlas.k_map.table) != 2**k:
            problems.append("the relation table does not cover every index set")
        return Outcome(digest(report), problems, 2**k, len(atlas.k_map.image))


# The cones of a round are fixed random draws from these design seeds; a run's
# seed relabels them by an isometry and reorders their generators.  So every
# round costs the same whatever the seed, and the spread between runs is the
# machine's, not the inputs'.


def _sp_maker(blocks):
    return lambda rng: gen.sp_cone(gen.relabel_blocks(rng, blocks))


def _k3_maker(vectors):
    return lambda rng: gen.k3_type_cone(gen.relabel_vectors(rng, vectors))


def charts_wide() -> ChartsWorkload:
    """Graphic cones, six per round: four genus-2 theta graphs (a triangle
    plus a chord) and one genus-2 figure eight (two 2-cycles on one vertex),
    each with 16 index sets on sp(4), and one genus-3 graph of four parallel
    edges (16 index sets on sp(6), 12 strata)."""
    design = random.Random("charts-wide")
    theta = gen.graph_blocks(*gen.ear_graph(design, 3, [1]))
    eight = gen.graph_blocks(*gen.ear_graph(design, 2, [2], closed={0}))
    banana = gen.graph_blocks(*gen.ear_graph(design, 2, [1, 1]))
    mix = [_sp_maker(b) for b in [theta] * 4 + [eight, banana]]
    return ChartsWorkload(mix, gen.theta_cone())


def charts_deep() -> ChartsWorkload:
    """Five cones per round: abelian sp(6) cones with k = 2, 3, 3 (a
    21-dimensional isometry algebra) and two K3-type cones in o(1, 4, 1) with
    k = 3 (15-dimensional): four or eight index sets, two or three strata.

    Both k = 3 sp(6) cones relabel one design, so the slowest two fifths of
    the mix are one cost class and op_tail_ms (p80) sits in its middle.  A
    second k = 3 design took 0.7x as long, and a tail percentile between the
    two classes moved with how many of each a run fitted."""
    design = random.Random("charts-deep")
    small, large, _ = (gen.psd_blocks(design, 3, k) for k in (2, 3, 3))
    mix = [_sp_maker(b) for b in (small, large, large)]
    mix += [_k3_maker(gen.k3_vectors(design, 4, 3)) for _ in range(2)]
    warm = gen.k3_type_cone(gen.k3_vectors(random.Random(0), 2, 2))
    return ChartsWorkload(mix, warm)


# ---------------------------------------------------------------------------
# The CLI on the shipped fixtures.

FIXTURES = {
    "genus2_cone.json": "charts",
    "rank1_cone.json": "charts",
    "single_cone.json": "charts",
    "ncd_tetrahedron.json": "lmhs",
    "ncd_two_components.json": "lmhs",
    "theta_graph.json": "lmhs",
    "orbit_twisted_weight1.json": "curvature",
    "orbit_weight2_caseC_expansion.json": "curvature",
    "residue_constant.json": "curvature",
    "siegel_cl2.json": "siegel",
    "siegel_cl2_swapped.json": "siegel",
    "siegel_cl3.json": "siegel",
    "siegel_cl3_swapped.json": "siegel",
    "siegel_one_variable.json": "siegel",
    "positivity_ndim.json": "positivity",
    "positivity_sigma1.json": "positivity",
}
ESCAPES, CONTAINED = "escapes-every-Siegel-set", "contained"
SIEGEL_VERDICTS = {
    "siegel_cl2.json": ESCAPES,
    "siegel_cl2_swapped.json": CONTAINED,
    "siegel_cl3.json": ESCAPES,
    "siegel_cl3_swapped.json": ESCAPES,
    "siegel_one_variable.json": CONTAINED,
}
DIGESTS_FILE = HERE / "cli_digests.json"


def fixture_facts(name: str, body: dict) -> list[str]:
    """The semantic facts the repository's CLI tests assert per fixture."""
    facts = {
        "genus2_cone.json": lambda: body["certificate_chart"]["equations"] == ["z1*z2*z3 = z4^2"]
        and body["separation"]["separated"] is True
        and body["atlas"]["size"] == 6,
        "rank1_cone.json": lambda: body["separation"]["separated"] is True,
        "single_cone.json": lambda: {
            tuple(c["K"]): len(c["exponents"]) for c in body["atlas"]["charts"]
        } == {(): 1, (1,): 0},
        "ncd_tetrahedron.json": lambda: body["graded_dims"] == [1, 0, 4, 0, 1],
        "ncd_two_components.json": lambda: body["kind"] == "surface",
        "theta_graph.json": lambda: body["graded_dims"] == [2, 0, 2],
        "orbit_twisted_weight1.json": lambda: body["decreasing"] is True
        and body["final_error"] < 1e-2
        and abs(body["boundary_value"] + 0.25) < 1e-6,
        "orbit_weight2_caseC_expansion.json": lambda: body["power"] == 2,
        "residue_constant.json": lambda: abs(body["normalized_slope"] - 1) < 0.02,
        "positivity_ndim.json": lambda: body["rho"] == 2 and body["numerical_dimension"] == 3,
        "positivity_sigma1.json": lambda: body["injective"] is True,
    }
    if name in SIEGEL_VERDICTS:
        ok = body["verdict"] == SIEGEL_VERDICTS[name]
    else:
        ok = facts[name]()
    return [] if ok else [f"{name}: report contradicts the expected facts"]


def _rounded(obj):
    """Floats to nine significant digits, so digests survive last-bit noise
    from a different BLAS build while exact reports keep every digit."""
    if isinstance(obj, float):
        return format(obj, ".9g")
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_rounded(v) for v in obj]
    return obj


def cli_report_digest(report: dict) -> str:
    return digest(_rounded({k: v for k, v in report.items() if k != "library_version"}))


class CliResult:
    __slots__ = ("code", "stdout", "stderr", "rss_kb")

    def __init__(self, code, stdout, stderr, rss_kb):
        self.code, self.stdout, self.stderr, self.rss_kb = code, stdout, stderr, rss_kb


def run_child(cmd, env, cwd) -> CliResult:
    """Run one child to completion and return its exit code, output and peak
    resident memory (from its own rusage)."""
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=cwd
    )
    try:
        out = proc.stdout.read()
        err = proc.stderr.read()
    finally:
        proc.stdout.close()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return CliResult(proc.returncode, out, err, usage.ru_maxrss)


def child_env(root: Path) -> dict:
    """The environment for children: the checkout's ``src`` first on the path,
    so the tree under test runs and not an installed copy."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class CliWorkload:
    """``hodgecharts <subcommand> --input F`` per fixture, one fresh process
    per invocation, one client in a closed loop, seeded order per round."""

    rounds = 8

    def __init__(self, root: Path):
        self.root = root
        self.env = child_env(root)
        self.expected = json.loads(DIGESTS_FILE.read_text())
        self.traced_to = None  # a directory: run the traced child instead
        self.span_files: list[Path] = []
        self.max_rss_kb = 0

    def setup(self, rng) -> list:
        names = sorted(FIXTURES)
        inputs = []
        for _ in range(self.rounds):
            batch = list(names)
            rng.shuffle(batch)
            inputs.extend(batch)
        return inputs

    def warm_up_inputs(self, rng) -> list:
        return ["positivity_sigma1.json"]

    def command(self, name: str) -> list[str]:
        args = [FIXTURES[name], "--input", str(self.root / "fixtures" / name)]
        if self.traced_to is not None:
            spans_path = self.traced_to / f"cli-{len(self.span_files)}.json"
            self.span_files.append(spans_path)
            return [sys.executable, str(HERE / "cli_child.py"), str(spans_path), *args]
        return [sys.executable, "-m", "hodgecharts.cli", *args]

    def execute(self, name: str) -> CliResult:
        result = run_child(self.command(name), self.env, self.root)
        self.max_rss_kb = max(self.max_rss_kb, result.rss_kb)
        return result

    def check(self, name: str, out: CliResult) -> Outcome:
        if out.code != 0:
            err = out.stderr.decode(errors="replace").strip().splitlines()[-1:]
            return Outcome("", [f"{name}: exit {out.code} {err}"])
        report = json.loads(out.stdout)
        got = cli_report_digest(report)
        problems = fixture_facts(name, report["report"])
        if got != self.expected.get(name):
            problems.append(f"{name}: report digest {got} != recorded {self.expected.get(name)}")
        return Outcome(got, problems)


# ---------------------------------------------------------------------------
# The float engine and the small verifiers, called in process.


def residue_closed_form(coefficients, t: complex) -> float:
    """2 pi sum_m |A_m|^2 J_m with A_m = sum_{i-j=m} c_ij t^j and
    J_m = log(1/|t|) for m = 0, (1 - |t|^{2m}) / (2m) otherwise."""
    r = abs(t)
    by_m: dict[int, complex] = {}
    for (i, j), c in coefficients.items():
        by_m[i - j] = by_m.get(i - j, 0) + c * t**j
    total = 0.0
    for m, a in by_m.items():
        weight = math.log(1 / r) if m == 0 else (1 - r ** (2 * m)) / (2 * m)
        total += abs(a) ** 2 * weight
    return 2 * math.pi * total


def _poly(coeffs, terms) -> dict[int, int]:
    """sum_j coeffs[j] * c_j T^{a_j} as {exponent: coefficient}."""
    out: dict[int, int] = {}
    for x, (c, a) in zip(coeffs, terms):
        out[a] = out.get(a, 0) + x * c
    return {e: c for e, c in out.items() if c}


def _mul(f, g) -> dict[int, int]:
    out: dict[int, int] = {}
    for a, x in f.items():
        for b, y in g.items():
            out[a + b] = out.get(a + b, 0) + x * y
    return {e: c for e, c in out.items() if c}


def _sub(f, g) -> dict[int, int]:
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, 0) - c
    return {e: c for e, c in out.items() if c}


def _positive_on_grid(f, grid) -> bool:
    return bool(f) and all(sum(c * t**e for e, c in f.items()) > 0 for t in grid)


SIEGEL_GRID = tuple(10**k for k in range(1, 7))


def siegel_expected(p, q, r, terms, parabolic: str) -> str | None:
    """The verdict from leading exponents in T, or None when the family leaves
    the probe's domain somewhere on the grid.

    Minimal parabolic: e^{2d} = p and e^{2(a-d)} = (pq - r^2) / p^2 must not
    decay.  Maximal parabolic: |B_1|^4 = q^2 / (pq - r^2) and |B_2|^4 =
    p^2 / (pq - r^2) must not grow.  Exponents are integers, so the probe's
    slope threshold of 1/2 separates them.
    """
    fp, fq, fr = (_poly(x, terms) for x in (p, q, r))
    disc = _sub(_mul(fp, fq), _mul(fr, fr))
    if not (_positive_on_grid(fp, SIEGEL_GRID) and _positive_on_grid(disc, SIEGEL_GRID)):
        return None
    deg_p, deg_disc = max(fp), max(disc)
    if parabolic == "minimal":
        return ESCAPES if deg_disc - 2 * deg_p < 0 else CONTAINED
    if not _positive_on_grid(fq, SIEGEL_GRID):
        return None
    return ESCAPES if 2 * max(max(fq), deg_p) - deg_disc > 0 else CONTAINED


def _twisted(rng):
    ks = sorted(rng.sample(range(2, 16), 7)) + [16]
    return ("twisted", round(rng.uniform(0.05, 0.3), 6), [10.0**-k for k in ks])


def _genus2(rng):
    # N_I has full rank on the top piece only for two or more generators.
    index = sorted(rng.sample((1, 2, 3), rng.randint(2, 3)))
    steps = [tuple(10.0 ** -rng.randint(2, 8) for _ in range(3)) for _ in range(3)]
    return ("genus2", index, steps)


def _expansion(orbit):
    return lambda rng: ("expansion", orbit, round(rng.uniform(0.5, 2.0), 6))


def _residue(rng):
    monomials = rng.sample([(i, j) for i in range(3) for j in range(3)], rng.randint(1, 3))
    coeffs = [[m[0], m[1], rng.uniform(-1, 1), rng.uniform(-1, 1)] for m in monomials]
    t = 10.0 ** -rng.uniform(2, 12)
    phase = rng.uniform(0, 2 * math.pi)
    return ("residue", coeffs, [t * math.cos(phase), t * math.sin(phase)])


def _siegel(rng):
    while True:
        gens = []
        while len(gens) < 2:
            a, b = rng.randint(0, 2), rng.randint(0, 2)
            if a or b:
                gens.append((a * a, b * b, rng.choice((1, -1)) * a * b))
        p, q, r = (tuple(g[i] for g in gens) for i in range(3))
        terms = [(rng.randint(1, 3), rng.randint(0, 2)) for _ in range(2)]
        parabolic = rng.choice(("minimal", "maximal"))
        expected = siegel_expected(p, q, r, terms, parabolic)
        if expected is not None:
            return ("siegel", [p, q, r], terms, parabolic, expected)


def _ndim(rng):
    """A(xi) e with A = sum_r e_r (x) b_r (x) e_{c_r}: the slice map has rank
    #{r : b_r . e != 0}, so the generic rank is R."""
    dim_t, dim_w, dim_u = rng.randint(2, 4), rng.randint(2, 4), rng.randint(2, 4)
    rank_r = rng.randint(1, min(dim_t, dim_u))
    cols = rng.sample(range(dim_u), rank_r)
    entries = [[[0] * dim_u for _ in range(dim_w)] for _ in range(dim_t)]
    for r in range(rank_r):
        b = [0] * dim_w
        while not any(b):
            b = [rng.randint(-2, 2) for _ in range(dim_w)]
        for i in range(dim_w):
            entries[r][i][cols[r]] = b[i]
    return ("ndim", [dim_t, dim_w, dim_u], entries, rank_r)


EXPANSION_CLOSED_FORMS = {  # orbit -> (growth order, amplitude)
    "jordan3": (2, 2 / (2 * math.pi) ** 2),
    "twoblock": (1, 4 / (2 * math.pi)),
    "inert": (0, 2.0),
}


class NumericWorkload:
    """Float-engine and verifier calls on seeded inputs, one call per
    operation; a round holds every kind in a fixed proportion."""

    rounds = 60
    mix = (
        _twisted,
        _twisted,
        _genus2,
        _expansion("jordan3"),
        _expansion("twoblock"),
        _expansion("inert"),
        _residue,
        _residue,
        _siegel,
        _siegel,
        _ndim,
        _ndim,
    )

    def setup(self, rng) -> list:
        inputs = []
        for _ in range(self.rounds):
            batch = [make(rng) for make in self.mix]
            rng.shuffle(batch)
            inputs.extend(batch)
        return inputs

    def execute(self, item):
        from hodgecharts import gallery
        from hodgecharts.metrics import curvature_limit_check, expansion_fit, residue_integral
        from hodgecharts.positivity import CurvatureTriple, numerical_dimension
        from hodgecharts.siegel import ConeSpec, boundedness_probe

        kind = item[0]
        if kind == "twisted":
            _, eps, ts = item
            orbit = gallery.twisted_weight1_orbit(eps)
            return curvature_limit_check(orbit, (1,), 0.0, [(t,) for t in ts])
        if kind == "genus2":
            _, index, steps = item
            return curvature_limit_check(gallery.genus2_orbit(), tuple(index), 0.0, steps)
        if kind == "expansion":
            _, name, scale = item
            orbit = getattr(gallery, f"weight2_{name}_orbit")()
            return expansion_fit(orbit, lambda tau: (scale * tau,), 0.0)
        if kind == "residue":
            _, coeffs, t = item
            return residue_integral({(i, j): complex(a, b) for i, j, a, b in coeffs}, complex(*t))
        if kind == "siegel":
            _, (p, q, r), terms, parabolic, _expected = item
            family = lambda big_t: tuple(c * float(big_t) ** a for c, a in terms)  # noqa: E731
            return boundedness_probe(ConeSpec(p, q, r), family, parabolic)
        _, (dim_t, dim_w, dim_u), entries, _rank = item
        return numerical_dimension(CurvatureTriple(dim_t, dim_w, dim_u, entries))

    def check(self, item, out) -> Outcome:
        kind = item[0]
        problems = []
        if kind == "twisted":
            eps, ts = item[1], item[2]
            analytic = [eps**2 / (2 * (-math.log(t) / (2 * math.pi))) for t in ts]
            if abs(out.boundary + 0.25) > 1e-6 or not out.decreasing:
                problems.append("twisted boundary value is not -1/4 with decreasing errors")
            if any(abs(e - a) > 1e-6 for e, a in zip(out.errors, analytic)):
                problems.append("twisted errors differ from eps^2 / (2 Im z)")
            report = [out.boundary, out.interior, out.errors]
        elif kind == "genus2":
            if abs(out.boundary) > 1e-8 or any(abs(v) > 1e-8 for v in out.interior):
                problems.append("untwisted genus-2 curvature is not zero")
            report = [out.boundary, out.interior]
        elif kind == "expansion":
            power, amplitude = EXPANSION_CLOSED_FORMS[item[1]]
            if out.power != power or abs(out.amplitude - amplitude) > 1e-6:
                problems.append(f"{item[1]} growth is not {power} with amplitude {amplitude}")
            report = [out.power, out.amplitude, out.residual]
        elif kind == "residue":
            coeffs, t = item[1], complex(*item[2])
            exact = residue_closed_form({(i, j): complex(a, b) for i, j, a, b in coeffs}, t)
            if abs(out - exact) > 1e-9 * max(1.0, abs(exact)):
                problems.append(f"residue integral {out} != closed form {exact}")
            report = out
        elif kind == "siegel":
            if out.verdict != item[4]:
                problems.append(f"Siegel verdict {out.verdict} != {item[4]}")
            report = [out.verdict, sorted(out.slopes.items())]
        else:
            dim_w, rank_r = item[1][1], item[3]
            if tuple(out) != (rank_r, dim_w - 1 + rank_r):
                problems.append(f"numerical dimension {out} != {(rank_r, dim_w - 1 + rank_r)}")
            report = list(out)
        return Outcome(digest(report), problems)

    def warm_up_inputs(self, rng) -> list:
        return [make(rng) for make in self.mix]
