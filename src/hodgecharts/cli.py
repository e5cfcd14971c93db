"""Command-line frontend: JSON in, JSON (+ optional CSV) out.

Subcommands: charts | lmhs | curvature | siegel | positivity.
Exit codes: 0 ok, 2 schema or exact input-validation error or an unwritable
report, 3 generator-count cap exceeded, 4 floating-point domain error.
Reports embed the input hash, library version, and seed, and are
byte-identical for identical inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from math import log, pi

from . import __version__, _slope
from .errors import ConeTooLarge, HodgeChartsError, NumericDomainError, SchemaError
from .serialize import (
    MAX_NDIM_SAMPLES,
    _array_from_json,
    _complex_from_json,
    _float_from_json,
    _int_from_json,
    _object_from_json,
    _rational_from_json,
    cone_from_json,
    dual_graph_from_json,
    matrix_from_json,
    matrix_to_json,
    orbit_from_json,
    parse_family,
    ray_from_json,
    residue_coefficients_from_json,
    siegel_cone_from_json,
    surface_from_json,
    triple_from_json,
)


def _object_without_repeats(pairs: list) -> dict:
    """A JSON object from its pairs, refused if it repeats a key (json.loads keeps the last)."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for key in keys if keys.count(key) > 1)
        raise SchemaError(f"an input object repeats the key {repeated!r}")
    return obj


def _load_input(path: str) -> tuple[dict, str]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read input: {exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()
    try:
        return json.loads(raw, object_pairs_hook=_object_without_repeats), digest
    # ValueError: bad JSON, bad UTF-8 or too many digits; RecursionError: deep nesting
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"input is not valid JSON: {exc}") from exc


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise SchemaError(f"cannot write output: {exc}") from exc


def _emit(report: dict, args) -> None:
    try:
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:  # allow_nan=False rejects NaN and infinities
        raise NumericDomainError(f"report holds a non-finite value: {exc}") from exc
    if args.output:
        _write(args.output, text)
        return
    # Flushed here, so that a full disk or a closed pipe (ENOSPC, EPIPE) exits
    # 2 like an unwritable --output, not at the interpreter's final flush.
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        # The unwritten text stays buffered, and the flush at exit would fail
        # again: point stdout's descriptor at the null device for it.
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        raise SchemaError(f"cannot write output: {exc}") from exc


def _emit_csv(rows: list[list], header: list[str], path: str | None) -> None:
    if not path:
        return
    lines = [",".join(header)]
    lines += [",".join(repr(x) if isinstance(x, float) else str(x) for x in row) for row in rows]
    _write(path, "\n".join(lines) + "\n")


def run_charts(data, args) -> tuple[dict, list, list]:
    from .charts import binomial_relations, build_atlas, monomial_strings, separation_check

    cone = cone_from_json(data)
    atlas = build_atlas(cone)
    km = atlas.k_map
    relations = atlas.relations()
    separation = separation_check(atlas)
    cert_rows = atlas.certificate_chart()
    # One fragment per K, shared by the rows of every index set in its stratum.
    fragments = {
        c.support: {
            "K": list(c.support),
            "S_basis": matrix_to_json(c.space.basis),
            "C": [list(r) for r in c.exponents],
            "certificates": {
                "v": [str(x) for x in c.witness],
                "v_tilde": [str(x) for x in c.cowitness],
            },
        }
        for c in atlas.charts
    }
    table = [
        {"I": list(index), **fragments[km.table[index]]}
        for index in sorted(km.table, key=lambda t: (len(t), t))
    ]
    report = {
        "relation_table": table,
        "atlas": {
            "charts": [
                {"K": list(c.support), "exponents": [list(r) for r in c.exponents]}
                for c in atlas.charts
            ],
            "relations": [list(u) for u in relations.vectors],
            "monomials": list(monomial_strings(atlas.exponents)),
            "size": len(atlas.exponents),
        },
        "binomial_relations": {
            "vectors": [list(u) for u in relations.vectors],
            "equations": list(relations.as_equations()),
        },
        "certificate_chart": {
            "exponents": [list(r) for r in cert_rows],
            "monomials": list(monomial_strings(cert_rows)),
            "equations": list(binomial_relations(cert_rows).as_equations()),
        },
        "separation": {
            "separated": separation.separated,
            "witnesses": [
                {"pair": [list(a), list(b)], "coordinate": idx}
                for (a, b), idx in sorted(separation.witnesses.items())
            ],
        },
    }
    return report, [], []


def run_lmhs(data, args) -> tuple[dict, list, list]:
    from .ncd import (
        build_weight_complexes,
        curve_lmhs,
        friedman_check,
        graded_dims,
        monodromy_graded_maps,
        triple_point_check,
    )

    kind = data.get("kind", "surface") if isinstance(data, dict) else "surface"
    if kind not in ("surface", "curve"):
        raise SchemaError(f"unknown lmhs kind {kind!r}")
    if kind == "curve":
        vertices, edges = dual_graph_from_json(data)
        gr = curve_lmhs(vertices, edges)
        return {"kind": "curve", "graded_dims": list(gr)}, [], []
    surface = surface_from_json(data)
    complexes = build_weight_complexes(surface)
    tpf = triple_point_check(surface)
    report = {
        "kind": "surface",
        "triple_point_formula": {
            "per_curve": [{"curve": list(k), "holds": v} for k, v in sorted(tpf.items())],
            "all_hold": all(tpf.values()),
        },
        "friedman": friedman_check(complexes),
    }
    if report["friedman"]:
        dims = graded_dims(complexes)
        mono = monodromy_graded_maps(complexes)
        report["graded_dims"] = list(dims)
        report["monodromy"] = {"even_iso": mono.even_iso, "odd_iso": mono.odd_iso}
    return report, [], []


def run_curvature(data, args) -> tuple[dict, list, list]:
    mode = data.get("mode", "limit") if isinstance(data, dict) else "limit"
    if args.csv and mode == "expansion":
        raise SchemaError("--csv: expansion mode writes no table")
    if mode == "residue":
        from .residue import residue_integral  # not metrics: residue mode loads no numpy

        _object_from_json(data, "curvature input", (), ("mode", "coefficients", "t_values"))
        coeffs = residue_coefficients_from_json(data.get("coefficients", {}))
        t_values = _array_from_json(
            data.get("t_values", [10.0**-k for k in range(2, 6)]), "t_values", _float_from_json
        )
        values = [residue_integral(coeffs, t) for t in t_values]  # refuses a t off its range
        logs = [log(1 / abs(t)) for t in t_values]
        if len(set(logs)) < 2:
            raise SchemaError("a slope fit needs t_values with at least 2 distinct log(1/|t|)")
        try:
            slope = _slope(logs, values)
        except OverflowError as exc:  # int division rounding beyond the float range
            raise NumericDomainError("the residue slope leaves the float range") from exc
        report = {
            "mode": "residue",
            "t_values": t_values,
            "integrals": values,
            "slope": slope,
            "normalized_slope": slope / (2 * pi),
        }
        rows = [[t, v] for t, v in zip(t_values, values)]
        return report, rows, ["t", "integral"]
    if mode == "expansion":
        _object_from_json(data, "curvature input", ("orbit",), ("mode", "ray", "w", "taus"))
    elif mode == "limit":
        _object_from_json(data, "curvature input", ("orbit", "t_sequence"), ("mode", "index", "w0"))
    else:
        raise SchemaError(f"unknown curvature mode {mode!r}")
    from .metrics import EXPANSION_TAUS, curvature_limit_check, expansion_fit

    orbit = orbit_from_json(data["orbit"])
    k = orbit.cone.k
    if mode == "expansion":
        ray = ray_from_json(data.get("ray", [{}] * k))
        w = _complex_from_json(data.get("w", 0.0), "w")
        taus = _array_from_json(data.get("taus", EXPANSION_TAUS), "taus", _float_from_json)
        fit = expansion_fit(orbit, ray, w, taus)
        return (
            {
                "mode": "expansion",
                "power": fit.power,
                "amplitude": fit.amplitude,
                "residual": fit.residual,
            },
            [],
            [],
        )
    index = _array_from_json(data.get("index", list(range(1, k + 1))), "index", _int_from_json)
    w0 = _complex_from_json(data.get("w0", 0.0), "w0")
    t_seq = _array_from_json(
        data["t_sequence"],
        "t_sequence",
        lambda t, what: _array_from_json(t, f"{what} point", _complex_from_json, k),
    )
    for j in range(1, k + 1):
        if j not in index and len({pt[j - 1] for pt in t_seq}) > 1:
            raise SchemaError(f"t_sequence moves t_{j}, a coordinate outside index {list(index)}")
    rep = curvature_limit_check(orbit, index, w0, t_seq)
    report = {
        "mode": "limit",
        "boundary_value": rep.boundary,
        "interior_values": list(rep.interior),
        "errors": list(rep.errors),
        "decreasing": rep.decreasing,
        "final_error": rep.final_error,
    }
    rows = [[*pt, v, rep.boundary, e] for pt, v, e in zip(rep.points, rep.interior, rep.errors)]
    return report, rows, [f"t{i + 1}_abs" for i in range(k)] + ["value", "boundary_value", "error"]


def run_siegel(data, args) -> tuple[dict, list, list]:
    from .siegel import DEFAULT_GRID, boundedness_probe

    _object_from_json(data, "siegel input", ("cone", "family", "parabolic"), ("grid",))
    cone = siegel_cone_from_json(data["cone"])
    family = parse_family(data["family"])
    grid = _array_from_json(data.get("grid", DEFAULT_GRID), "grid", _float_from_json)
    rep = boundedness_probe(cone, family, data["parabolic"], grid)
    report = {
        "verdict": rep.verdict,
        "parabolic": rep.parabolic,
        "family": data["family"],
        "slopes": dict(sorted(rep.slopes.items())),
        "monitored": {k: list(v) for k, v in sorted(rep.monitored.items())},
        "grid": list(rep.grid),
    }
    names = sorted(rep.monitored)
    rows = [
        [t] + [rep.monitored[n][i] for n in names] for i, t in enumerate(rep.grid)
    ]
    return report, rows, ["T"] + names


def run_positivity(data, args) -> tuple[dict, list, list]:
    from .positivity import (
        curvature_identity_check,
        numerical_dimension,
        sigma_weight1,
        sigma_weight2,
    )

    mode = data.get("mode") if isinstance(data, dict) else None
    if mode in ("sigma1", "sigma2"):
        required = ("mode", "quadric", "triple") if mode == "sigma2" else ("mode", "quadric")
        _object_from_json(data, "positivity input", required)
        quadric = matrix_from_json(data["quadric"], "quadric")
        triple = triple_from_json(data["triple"]) if mode == "sigma2" else None
        rep = sigma_weight1(quadric) if triple is None else sigma_weight2(triple, quadric)
        return {"mode": mode, "rank": rep.rank, "injective": rep.injective}, [], []
    if mode == "ndim":
        _object_from_json(data, "positivity input", ("mode", "triple"), ("samples",))
        triple = triple_from_json(data["triple"])
        samples = _int_from_json(data.get("samples", 20), "samples")
        if samples > MAX_NDIM_SAMPLES:
            raise ConeTooLarge(f"samples is {samples}, above the cap {MAX_NDIM_SAMPLES}")
        rho, n = numerical_dimension(triple, samples=samples, seed=args.seed)
        return {"mode": mode, "rho": rho, "numerical_dimension": n}, [], []
    if mode != "identity":
        raise SchemaError(f"unknown positivity mode {mode!r}")
    _object_from_json(data, "positivity input", ("mode", "triple", "e", "xi"))
    triple = triple_from_json(data["triple"])
    e = _array_from_json(data["e"], "e", _rational_from_json, triple.dim_w)
    xi = _array_from_json(data["xi"], "xi", _rational_from_json, triple.dim_t)
    chk = curvature_identity_check(triple, e, xi)
    return {"mode": mode, "lhs": str(chk.lhs), "rhs": str(chk.rhs), "match": chk.match}, [], []


_RUNNERS = {
    "charts": run_charts,
    "lmhs": run_lmhs,
    "curvature": run_curvature,
    "siegel": run_siegel,
    "positivity": run_positivity,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hodgecharts",
        description="Boundary charts, graded degenerations, and metric asymptotics",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--input", required=True, help="input JSON path")
        p.add_argument("--output", help="report JSON path (default stdout)")
        p.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
        if name in ("curvature", "siegel"):
            p.add_argument("--csv", help="optional CSV path for tabular output")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        data, digest = _load_input(args.input)
        report, rows, header = _RUNNERS[args.subcommand](data, args)
        report = {
            "subcommand": args.subcommand,
            "library_version": __version__,
            "input_sha256": digest,
            "seed": args.seed,
            "report": report,
        }
        _emit(report, args)
        _emit_csv(rows, header, getattr(args, "csv", None))
    except HodgeChartsError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
