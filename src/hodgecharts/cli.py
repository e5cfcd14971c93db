"""Command-line frontend: JSON in, JSON (+ optional CSV) out.

Subcommands: charts | lmhs | curvature | siegel | positivity.
Exit codes: 0 ok, 2 schema or exact input-validation error, 3 generator-count
cap exceeded, 4 floating-point domain error.  Reports embed the input hash,
library version, and seed, and are byte-identical for identical inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys

from . import __version__
from .charts import (
    binomial_relations,
    build_atlas,
    monomial_strings,
    separation_check,
)
from .errors import (
    ConeTooLarge,
    HodgeChartsError,
    NumericDomainError,
    SchemaError,
)
from .ncd import (
    build_weight_complexes,
    curve_lmhs,
    friedman_check,
    graded_dims,
    monodromy_graded_maps,
    triple_point_check,
)
from .positivity import (
    CurvatureTriple,
    curvature_identity_check,
    numerical_dimension,
    sigma_weight1,
    sigma_weight2,
)
from .serialize import (
    cone_from_json,
    dual_graph_from_json,
    int_matrix_to_json,
    matrix_from_json,
    matrix_to_json,
    orbit_from_json,
    siegel_cone_from_json,
    surface_from_json,
)

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_SIZE = 3
EXIT_NUMERIC = 4


def _load_input(path: str) -> tuple[dict, str]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read input: {exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()
    try:
        return json.loads(raw), digest
    except json.JSONDecodeError as exc:
        raise SchemaError(f"input is not valid JSON: {exc}") from exc


def _emit(report: dict, args) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_csv(rows: list[list], header: list[str], path: str | None) -> None:
    if not path:
        return
    lines = [",".join(header)]
    lines += [",".join(repr(x) if isinstance(x, float) else str(x) for x in row) for row in rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def run_charts(data, args) -> tuple[dict, list, list]:
    cone = cone_from_json(data)
    atlas = build_atlas(cone)
    km = atlas.k_map
    relations = atlas.relations()
    separation = separation_check(atlas)
    cert_rows = atlas.certificate_chart()
    table = []
    for index in sorted(km.table, key=lambda t: (len(t), t)):
        entry = atlas.relation_table.get(km.table[index])
        table.append(
            {
                "I": list(index),
                "K": list(km.table[index]),
                "S_basis": matrix_to_json(entry.space.basis),
                "C": int_matrix_to_json(entry.basis.entries),
                "certificates": {
                    "v": [str(x) for x in entry.witness],
                    "v_tilde": [str(x) for x in entry.cowitness],
                },
            }
        )
    report = {
        "relation_table": table,
        "atlas": {
            "charts": [
                {"K": list(c.support), "exponents": [list(r) for r in c.exponents]}
                for c in atlas.charts
            ],
            "relations": [list(u) for u in relations.vectors],
            "monomials": [m for c in atlas.charts for m in c.monomial_strings()],
            "size": atlas.size,
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
    kind = data.get("kind", "surface") if isinstance(data, dict) else "surface"
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
        report["graded_dims"] = list(dims.dims)
        report["monodromy"] = {"even_iso": mono.even_iso, "odd_iso": mono.odd_iso}
    return report, [], []


def _parse_ray(spec) -> callable:
    spec = spec or [{"scale": 1.0, "power": 1.0}]
    try:
        scales = [float(c.get("scale", 1.0)) for c in spec]
        powers = [float(c.get("power", 1.0)) for c in spec]
    except (AttributeError, TypeError, ValueError) as exc:
        raise SchemaError(f"ray must be an array of {{scale, power}} objects: {exc}") from exc

    def ray(tau: float):
        return tuple(c * tau**p for c, p in zip(scales, powers))

    return ray


def _numbers(values, what: str, kind=float) -> tuple:
    try:
        return tuple(kind(x) for x in values)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{what} must be an array of numbers: {exc}") from exc


def _complex_field(data: dict, name: str) -> complex:
    try:
        return complex(*data.get(name, [0.0, 0.0]))
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{name} must be an [re, im] pair: {exc}") from exc


def run_curvature(data, args) -> tuple[dict, list, list]:
    from .metrics import curvature_limit_check, expansion_fit, residue_integral

    if not isinstance(data, dict):
        raise SchemaError("curvature input must be an object")
    mode = data.get("mode", "limit")
    if args.tol is not None and mode != "expansion":
        raise SchemaError("--tol applies to expansion mode only")
    if args.csv and mode == "expansion":
        raise SchemaError("--csv: expansion mode writes no table")
    if mode == "residue":
        coeffs = {}
        coeff_data = data.get("coefficients", {})
        if not isinstance(coeff_data, dict):
            raise SchemaError("coefficients must be an object keyed by \"i,j\"")
        for key, val in coeff_data.items():
            try:
                i, j = (int(x) for x in key.split(","))
                coeffs[(i, j)] = complex(val[0], val[1]) if isinstance(val, list) else complex(val)
            except (IndexError, TypeError, ValueError) as exc:
                raise SchemaError(f"bad coefficient {key!r}: {val!r}") from exc
        t_values = _numbers(data.get("t_values", [10.0**-k for k in range(2, 6)]), "t_values")
        for t in t_values:
            if not 0 < abs(t) < 1:
                raise SchemaError(f"t_values must satisfy 0 < |t| < 1, not {t!r}")
        values = [residue_integral(coeffs, t) for t in t_values]
        import numpy as np

        logs = [float(np.log(1 / t)) for t in t_values]
        slope = float(np.polyfit(logs, values, 1)[0]) if len(values) > 1 else 0.0
        report = {
            "mode": "residue",
            "t_values": t_values,
            "integrals": values,
            "slope": slope,
            "normalized_slope": slope / (2 * float(np.pi)),
        }
        rows = [[t, v] for t, v in zip(t_values, values)]
        return report, rows, ["t", "integral"]
    orbit = orbit_from_json(data.get("orbit"))
    if mode == "expansion":
        ray = _parse_ray(data.get("ray"))
        w = _complex_field(data, "w")
        kwargs = {}
        if data.get("taus"):
            kwargs["taus"] = _numbers(data["taus"], "taus")
        if args.tol is not None:
            if args.tol <= 0:
                raise SchemaError("--tol must be positive")
            kwargs["residual_threshold"] = args.tol
        fit = expansion_fit(orbit, ray, w, **kwargs)
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
    if mode != "limit":
        raise SchemaError(f"unknown curvature mode {mode!r}")
    k = orbit.cone.k
    index = _numbers(data.get("index", range(1, k + 1)), "index", int)
    if not all(1 <= i <= k for i in index):
        raise SchemaError(f"index {list(index)} leaves the generator range 1..{k}")
    w0 = _complex_field(data, "w0")
    t_seq = data.get("t_sequence")
    if not t_seq:
        raise SchemaError("curvature limit mode needs a t_sequence")
    try:
        t_seq = [tuple(complex(x[0], x[1]) if isinstance(x, list) else float(x) for x in t)
                 for t in t_seq]
    except (IndexError, TypeError, ValueError) as exc:
        raise SchemaError(f"t_sequence must hold arrays of numbers: {exc}") from exc
    rep = curvature_limit_check(orbit, index, w0, t_seq)
    report = {
        "mode": "limit",
        "boundary_value": rep.boundary,
        "interior_values": list(rep.interior),
        "errors": list(rep.errors),
        "decreasing": rep.decreasing,
        "final_error": rep.final_error,
    }
    rows = [
        [*pt, val, rep.boundary, err]
        for pt, val, err in zip(rep.points, rep.interior, rep.errors)
    ]
    header = [f"t{i + 1}_abs" for i in range(len(rep.points[0]))] + [
        "value",
        "boundary_value",
        "error",
    ]
    return report, rows, header


_FAMILY_RE = re.compile(r"^y\s*=\s*\((?P<body>[^)]*)\)$")


def parse_family(text: str):
    """Parse family strings like "y=(T,1)" or "y=(2*T^2, 3)"."""
    m = _FAMILY_RE.match(text.strip())
    if not m:
        raise SchemaError(f"cannot parse family {text!r}")
    terms = []
    for part in m.group("body").split(","):
        part = part.strip()
        tm = re.match(
            r"^(?:(?P<coef>[0-9.]+)\s*\*\s*)?T(?:\^(?P<pow>[0-9.]+))?$|^(?P<const>[0-9.]+)$",
            part,
        )
        if not tm:
            raise SchemaError(f"cannot parse family component {part!r}")
        if tm.group("const") is not None:
            terms.append((float(tm.group("const")), 0.0))
        else:
            coef = float(tm.group("coef")) if tm.group("coef") else 1.0
            power = float(tm.group("pow")) if tm.group("pow") else 1.0
            terms.append((coef, power))

    def family(t_val: float):
        return tuple(c * t_val**p for c, p in terms)

    return family


def run_siegel(data, args) -> tuple[dict, list, list]:
    from .siegel import boundedness_probe

    if not isinstance(data, dict):
        raise SchemaError("siegel input must be an object")
    cone = siegel_cone_from_json(data.get("cone", data))
    family_text = args.family or data.get("family")
    if not family_text:
        raise SchemaError("siegel needs a family (flag --family or input field)")
    family = parse_family(family_text)
    components = len(family(1.0))
    if components != cone.size:
        raise SchemaError(
            f"family {family_text!r} has {components} components, the cone {cone.size}"
        )
    parabolic = args.parabolic or data.get("parabolic")
    if parabolic not in ("minimal", "maximal"):
        raise SchemaError("siegel needs --parabolic minimal|maximal")
    grid = _numbers(data.get("grid", tuple(10.0**k for k in range(1, 7))), "grid")
    rep = boundedness_probe(cone, family, parabolic, grid)
    report = {
        "verdict": rep.verdict,
        "parabolic": rep.parabolic,
        "family": family_text,
        "slopes": dict(sorted(rep.slopes.items())),
        "monitored": {k: list(v) for k, v in sorted(rep.monitored.items())},
        "grid": list(rep.grid),
    }
    names = sorted(rep.monitored)
    rows = [
        [t] + [rep.monitored[n][i] for n in names] for i, t in enumerate(rep.grid)
    ]
    return report, rows, ["T"] + names


def _triple_from_json(data) -> CurvatureTriple:
    try:
        return CurvatureTriple(
            int(data["dim_t"]),
            int(data["dim_w"]),
            int(data["dim_u"]),
            data["entries"],
            matrix_from_json(data["metric"], "metric") if data.get("metric") else None,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad curvature triple: {exc}") from exc


def run_positivity(data, args) -> tuple[dict, list, list]:
    if not isinstance(data, dict):
        raise SchemaError("positivity input must be an object")
    mode = args.mode or data.get("mode")
    if mode == "sigma1":
        try:
            rep = sigma_weight1(matrix_from_json(data.get("quadric"), "quadric"))
        except ValueError as exc:
            raise SchemaError(str(exc)) from exc
        return (
            {"mode": mode, "rank": rep.rank, "injective": rep.injective},
            [],
            [],
        )
    if mode == "sigma2":
        try:
            rep = sigma_weight2(
                _triple_from_json(data.get("triple")),
                matrix_from_json(data.get("quadric"), "quadric"),
            )
        except ValueError as exc:
            raise SchemaError(str(exc)) from exc
        return (
            {"mode": mode, "rank": rep.rank, "injective": rep.injective},
            [],
            [],
        )
    if mode == "ndim":
        triple = _triple_from_json(data.get("triple"))
        try:
            samples = int(data.get("samples", 20))
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"samples must be an integer: {exc}") from exc
        rho, n = numerical_dimension(triple, samples=samples, seed=args.seed)
        return {"mode": mode, "rho": rho, "numerical_dimension": n}, [], []
    if mode == "identity":
        triple = _triple_from_json(data.get("triple"))
        chk = curvature_identity_check(triple, data.get("e"), data.get("xi"))
        return (
            {"mode": mode, "lhs": str(chk.lhs), "rhs": str(chk.rhs), "match": chk.match},
            [],
            [],
        )
    raise SchemaError(f"unknown positivity mode {mode!r}")


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
        p.add_argument("--input", required=(name != "siegel"), help="input JSON path")
        p.add_argument("--output", help="report JSON path (default stdout)")
        p.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
        if name in ("curvature", "siegel"):
            p.add_argument("--csv", help="optional CSV path for tabular output")
        if name == "curvature":
            p.add_argument(
                "--tol", type=float, default=None, help="expansion-fit residual threshold"
            )
        if name == "siegel":
            p.add_argument("--cone", dest="input", help="alias for --input")
            p.add_argument("--family", help='family string, e.g. "y=(T,1)"')
            p.add_argument("--parabolic", choices=["minimal", "maximal"])
        if name == "positivity":
            p.add_argument(
                "--mode", choices=["sigma1", "sigma2", "ndim", "identity"]
            )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not args.input:
        sys.stderr.write("error: an input file is required (--input or --cone)\n")
        return EXIT_SCHEMA
    try:
        data, digest = _load_input(args.input)
        report, rows, header = _RUNNERS[args.subcommand](data, args)
    except ConeTooLarge as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_SIZE
    except NumericDomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERIC
    except SchemaError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_SCHEMA
    except HodgeChartsError as exc:  # exact validation failures
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_SCHEMA
    report = {
        "subcommand": args.subcommand,
        "library_version": __version__,
        "input_sha256": digest,
        "seed": args.seed,
        "report": report,
    }
    try:
        _emit(report, args)
        _emit_csv(rows, header, getattr(args, "csv", None))
    except OSError as exc:
        sys.stderr.write(f"error: cannot write output: {exc}\n")
        return EXIT_SCHEMA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
