"""Command-line interface.

Commands: space, check, flat, exists, classify-hpc, orbits, catalog,
verify-paper.  JSON in, JSON (or text) out; rationals travel as "p/q"
strings.  Exit codes: 0 success or certificate, 1 honest negative or
refusal, 2 input error, 3 internal invariant violation.
TORSIONLAB_MAX_N (default 12) caps the ambient dimension.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from . import reporting
from .algebras import LinearSubalgebra
from .builders import build, builder_names, catalog
from .engine import (
    AlmostAbelian,
    Certificate,
    characteristic_subalgebra,
    check_torsion_free,
    connection_space,
    first_prolongation,
    flat_certificate,
    obstruction_space,
    tableau,
)
from .existence import (
    admits_torsion_free,
    classify_hyperparacomplex,
    hpc_flatness,
    orbit_catalog,
)
from .linalg import Mat, ShapeError
from .profiles import NoRuleApplies, closed_form_F, crosscheck
from .verify import verify_paper


class InputError(ValueError):
    pass


def _max_n():
    return int(os.environ.get("TORSIONLAB_MAX_N", "12"))


def _load_json_arg(text):
    if text.strip().startswith(("{", "[")):
        return json.loads(text)
    with open(text) as fh:
        return json.load(fh)


def parse_algebra(spec_text) -> LinearSubalgebra:
    """Builder shorthand 'name:key=val,...', inline JSON, or a JSON file."""
    if spec_text.strip().startswith("{") or os.path.exists(spec_text):
        spec = _load_json_arg(spec_text)
    else:
        name, _, params = spec_text.partition(":")
        if name not in builder_names():
            raise InputError(
                f"unknown algebra {name!r}; builders: {', '.join(builder_names())}"
            )
        kv = {}
        if params:
            for piece in params.split(","):
                key, _, val = piece.partition("=")
                if not val:
                    raise InputError(f"malformed builder parameter {piece!r}")
                kv[key.strip()] = val.strip()
        spec = {"builder": name, "params": kv}
    try:
        h = build(spec)
    except (KeyError, ValueError) as exc:
        raise InputError(str(exc)) from exc
    if h.n > _max_n():
        raise InputError(f"ambient dimension {h.n} exceeds TORSIONLAB_MAX_N={_max_n()}")
    return h


def parse_matrix(text) -> Mat:
    data = _load_json_arg(text)
    if isinstance(data, dict) and "f" in data:
        data = data["f"]
    try:
        return reporting.mat_from_json(data)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a matrix of rationals: {exc}") from exc


def parse_vector(text):
    try:
        return tuple(reporting.rational_from_str(x) for x in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a vector of rationals: {text!r}") from exc


def parse_transversal(text, n):
    """--v as a vector of R^n outside the hyperplane R^{n-1}; None when absent."""
    if not text:
        return None
    v = parse_vector(text)
    if len(v) != n or v[n - 1] == 0:
        raise InputError(f"--v must have {n} entries with a nonzero last entry (a transversal to R^{n - 1})")
    return v


def _emit(report, fmt):
    if fmt == "json":
        print(reporting.dumps(report))
    else:
        _emit_text(report)


def _emit_text(report, indent=0):
    pad = "  " * indent
    if isinstance(report, dict):
        for key in sorted(report):
            value = report[key]
            if isinstance(value, (dict, list)):
                print(f"{pad}{key}:")
                _emit_text(value, indent + 1)
            else:
                print(f"{pad}{key}: {value}")
    elif isinstance(report, list):
        for value in report:
            if isinstance(value, (dict, list)):
                _emit_text(value, indent + 1)
            else:
                print(f"{pad}- {value}")


def cmd_space(args):
    h = parse_algebra(args.algebra)
    v = parse_transversal(args.v, h.n)
    spaces = {
        "k_tilde": characteristic_subalgebra(h),
        "tableau": tableau(h),
        "K1": first_prolongation(h),
        "D": connection_space(h),
        "F": obstruction_space(h, v),
    }
    report = {
        "algebra": h.name,
        "n": h.n,
        "dim_h": h.dim,
        "dims": {key: s.dim for key, s in spaces.items()},
    }
    try:
        _, rule = closed_form_F(h)
        report["closed_form_rule"] = rule
    except NoRuleApplies:
        report["closed_form_rule"] = None
    if args.with_bases:
        report["bases"] = {key: reporting.subspace_to_json(s) for key, s in spaces.items()}
    _emit(report, args.format)
    return 0


def cmd_check(args):
    h = parse_algebra(args.algebra)
    f = parse_matrix(args.f)
    if f.rows != h.n - 1:
        raise InputError(f"f must be {h.n - 1} x {h.n - 1} for this algebra")
    t = parse_matrix(args.hyperplane_map) if args.hyperplane_map else None
    aa = AlmostAbelian(f)
    result = check_torsion_free(h, aa, hyperplane_map=t, v=parse_transversal(args.v, h.n))
    if isinstance(result, Certificate):
        report = {"algebra": h.name, "verdict": "torsion-free"}
        if args.with_bases:
            report["certificate"] = reporting.certificate_to_json(result, h.n)
        else:
            report["residuals"] = {k: reporting.rational_to_str(v) for k, v in result.residuals.items()}
        _emit(report, args.format)
        return 0
    report = {"algebra": h.name, "verdict": "refused", **reporting.refusal_to_json(result)}
    _emit(report, args.format)
    return 1


def cmd_flat(args):
    h = parse_algebra(args.algebra)
    f = parse_matrix(args.f)
    if f.rows != h.n - 1:
        raise InputError(f"f must be {h.n - 1} x {h.n - 1} for this algebra")
    aa = AlmostAbelian(f)
    result = flat_certificate(h, aa)
    if isinstance(result, Certificate):
        report = {"algebra": h.name, "verdict": "left-invariantly-flat"}
        if args.with_bases:
            report["certificate"] = reporting.certificate_to_json(result, h.n)
        else:
            report["residuals"] = {k: reporting.rational_to_str(v) for k, v in result.residuals.items()}
        _emit(report, args.format)
        return 0
    report = {"algebra": h.name, "verdict": "refused", **reporting.refusal_to_json(result)}
    _emit(report, args.format)
    return 1


def _basis_payload(res):
    out = dict(res)
    for key in ("basis", "conjugated", "A"):
        if isinstance(out.get(key), Mat):
            out[key] = reporting.mat_to_json(out[key])
    for key in ("w1", "w2"):
        if key in out and out[key] is not None:
            out[key] = reporting.vector_to_json(out[key])
    for key in ("a", "lam", "mu"):
        if key in out and isinstance(out[key], Fraction):
            out[key] = reporting.rational_to_str(out[key])
    return out


def cmd_exists(args):
    f = parse_matrix(args.f)
    n = f.rows + 1
    if n > _max_n():
        raise InputError(f"ambient dimension {n} exceeds TORSIONLAB_MAX_N={_max_n()}")
    aa = AlmostAbelian(f)
    if args.mode == "product":
        if args.p is None or not 1 <= args.p <= n - 1:
            raise InputError(f"product existence needs --p with 1 <= p <= {n - 1}")
        res = admits_torsion_free("product", aa, p=args.p)
        res["detail"] = _basis_payload(res["detail"])
    elif args.mode == "tangent":
        if n % 2:
            raise InputError("tangent structures need even total dimension")
        res = admits_torsion_free("tangent", aa)
        res["detail"] = _basis_payload(res["detail"])
    elif args.mode == "hpc":
        if n % 2:
            raise InputError("hyperparacomplex structures need even total dimension")
        res = _basis_payload(classify_hyperparacomplex(aa))
        res = {"group": "hpc", "overall": res["verdict"], "detail": res}
    elif args.mode == "family":
        if not args.group:
            raise InputError("family existence needs --group")
        try:
            res = admits_torsion_free(args.group, aa, p=args.p)
        except (KeyError, ValueError) as exc:
            raise InputError(str(exc)) from exc
    else:
        raise InputError(f"unknown existence mode {args.mode!r}")
    if args.type is not None:
        label = f"[U{args.type}]"
        matching = [t for t in res.get("types", []) if t["type"] == label]
        if not matching:
            raise InputError(f"no orbit type {label} for this mode")
        res = {"group": res.get("group"), "types": matching, "overall": matching[0]["verdict"]}
    _emit(res, args.format)
    overall = res.get("overall")
    if overall == "yes" or str(overall).startswith("yes"):
        return 0
    return 1


def cmd_classify_hpc(args):
    f = parse_matrix(args.f)
    n = f.rows + 1
    if n % 2:
        raise InputError("hyperparacomplex structures need even total dimension")
    if n > _max_n():
        raise InputError(f"ambient dimension {n} exceeds TORSIONLAB_MAX_N={_max_n()}")
    aa = AlmostAbelian(f)
    res = classify_hyperparacomplex(aa)
    report = _basis_payload(res)
    if res["verdict"].startswith("yes"):
        flat = hpc_flatness(aa, res)
        report["flatness"] = {
            "flat": flat["flat"],
            **(
                {"witness": reporting.vector_to_json(flat["witness"]),
                 "expected_eigenvalue": reporting.rational_to_str(flat["expected_eigenvalue"])}
                if not flat["flat"]
                else {}
            ),
        }
    if not args.with_bases:
        report.pop("basis", None)
        report.pop("conjugated", None)
    _emit(report, args.format)
    return 0 if res["verdict"].startswith("yes") else 1


def cmd_orbits(args):
    if args.n > _max_n():
        raise InputError(f"ambient dimension {args.n} exceeds TORSIONLAB_MAX_N={_max_n()}")
    try:
        cat = orbit_catalog(args.group, args.n, p=args.p)
    except (KeyError, ValueError) as exc:
        raise InputError(str(exc)) from exc
    reps = list(cat.reps)
    if args.type is not None:
        reps = [rep for rep in reps if rep["label"] == f"[U{args.type}]"]
        if not reps:
            raise InputError(f"no orbit type [U{args.type}] for this group")
    report = {
        "group": cat.group,
        "reps": [
            {
                "label": rep["label"],
                "subspace": reporting.subspace_to_json(rep["subspace"]),
                "T": reporting.mat_to_json(rep["T"]),
            }
            for rep in reps
        ],
    }
    _emit(report, args.format)
    return 0


def cmd_catalog(args):
    rows = []
    for h in catalog():
        entry = {"name": h.name, "n": h.n, "dim": h.dim}
        if args.crosscheck:
            rep = crosscheck(h)
            entry["engine_dim"] = rep["engine_dim"]
            entry["rules"] = [
                {"rule": r["rule"], "dim": r["dim"], "equal": r["equal"]} for r in rep["rules"]
            ]
        rows.append(entry)
    _emit({"catalog": rows}, args.format)
    return 0


def cmd_verify_paper(args):
    try:
        results = verify_paper(targets=args.target or None, seed=args.seed)
    except KeyError as exc:
        raise InputError(str(exc)) from exc
    failed = 0
    if args.format == "json":
        print(reporting.dumps({"checks": results, "passed": sum(r["ok"] for r in results), "total": len(results)}))
    for r in results:
        mark = "PASS" if r["ok"] else "FAIL"
        if args.format == "text":
            line = f"[{mark}] {r['name']}"
            if r["detail"]:
                line += f" -- {r['detail']}"
            print(line)
        if not r["ok"]:
            failed += 1
    return 0 if failed == 0 else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="torsionlab",
        description="Exact obstruction spaces for torsion-free structures on almost Abelian Lie algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, algebra=False, f=False, v=False, with_bases=False):
        """Add the shared flags, each only where the subcommand reads it."""
        if algebra:
            p.add_argument("--algebra", required=True, help="builder shorthand, JSON file, or inline JSON")
        if f:
            p.add_argument("--f", required=True, help="matrix of f as JSON (file or inline)")
        if v:
            p.add_argument("--v", help="transversal vector, comma-separated rationals")
        if with_bases:
            p.add_argument("--with-bases", action="store_true")
        p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("space", help="dims/bases of k~, K, K^(1), D, F")
    common(p, algebra=True, v=True, with_bases=True)
    p.set_defaults(fn=cmd_space)

    p = sub.add_parser("check", help="torsion-free certificate or refusal for f")
    common(p, algebra=True, f=True, v=True, with_bases=True)
    p.add_argument("--hyperplane-map", help="invertible matrix T straightening the hyperplane type")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("flat", help="left-invariantly-flat certificate (f in k~)")
    common(p, algebra=True, f=True, with_bases=True)
    p.set_defaults(fn=cmd_flat)

    p = sub.add_parser("exists", help="existence of torsion-free structures of any type")
    p.add_argument("mode", choices=("product", "tangent", "hpc", "family"))
    common(p, f=True)
    p.add_argument("--p", type=int, help="product signature parameter")
    p.add_argument("--group", help="family label: gl_C, sl_C, sp_C, u, su, gl_H")
    p.add_argument("--type", type=int, help="restrict to the orbit type [Uk]")
    p.set_defaults(fn=cmd_exists)

    p = sub.add_parser("classify-hpc", help="hyperparacomplex normal-form classification")
    common(p, f=True, with_bases=True)
    p.set_defaults(fn=cmd_classify_hpc)

    p = sub.add_parser("orbits", help="hyperplane-orbit representatives for a group")
    p.add_argument("--group", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int)
    p.add_argument("--type", type=int, help="show only the orbit type [Uk]")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(fn=cmd_orbits)

    p = sub.add_parser("catalog", help="list the built-in verification catalog")
    p.add_argument("--crosscheck", action="store_true", help="also run closed-form/engine comparisons")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(fn=cmd_catalog)

    p = sub.add_parser("verify-paper", help="run the full cross-verification suite")
    p.add_argument("--target", action="append", help="restrict to named check groups")
    p.add_argument("--seed", type=int, default=None, help="override the randomized-sweep seed")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(fn=cmd_verify_paper)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        code = args.fn(args)
    except (InputError, ShapeError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    except AssertionError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        code = 3
    # stdout stays byte-identical per job; timing goes to stderr
    print(f"runtime: {time.monotonic() - start:.3f}s", file=sys.stderr)
    sys.exit(code)


if __name__ == "__main__":
    main()
