"""Command-line interface.

Commands: space, check, flat, exists, classify-hpc, orbits, catalog,
verify-paper.  JSON in, JSON (or text) out; rationals travel as "p/q"
strings.  Each command hands its raw result to ``_emit``, which writes it
as ``reporting.view`` converts it, node by node, in either format.  Exit
codes: 0 success or certificate, 1 honest negative, refusal, or a reader
that closed stdout, 2 input error (malformed JSON included), 3 internal
invariant violation.
TORSIONLAB_MAX_N (default 12) caps the ambient dimension.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from . import reporting
from .algebras import LinearSubalgebra
from .builders import DEFAULT_MAX_N, ambient_dim, build, catalog
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
    GROUPS,
    admits_torsion_free,
    classify_hyperparacomplex,
    existence_group,
    hpc_flatness,
    orbit_catalog,
)
from .linalg import Mat, ShapeError
from .profiles import NoRuleApplies, closed_form_F, crosscheck
from .verify import verify_paper


class InputError(ValueError):
    pass


def _check_max_n(n):
    text = os.environ.get("TORSIONLAB_MAX_N", str(DEFAULT_MAX_N))
    try:
        max_n = int(text)
    except ValueError:
        raise InputError(f"TORSIONLAB_MAX_N must be an integer, not {text!r}") from None
    if n > max_n:
        raise InputError(f"ambient dimension {n} exceeds TORSIONLAB_MAX_N={max_n}")


def _load_json_arg(text):
    """Inline JSON or a JSON file; a malformed document, an integer past
    Python's int-string digit limit or an unreadable file is an InputError."""
    try:
        if text.strip().startswith(("{", "[")):
            return json.loads(text)
        with open(text) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {text!r}: {exc.strerror}") from exc
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def parse_algebra(spec_text) -> LinearSubalgebra:
    """Builder shorthand 'name:key=val,...', inline JSON, or a JSON file."""
    if spec_text.strip().startswith("{") or os.path.exists(spec_text):
        spec = _load_json_arg(spec_text)
    else:
        name, _, params = spec_text.partition(":")
        kv = {}
        if params:
            for piece in params.split(","):
                key, _, val = piece.partition("=")
                if not val:
                    raise InputError(f"malformed builder parameter {piece!r}")
                kv[key.strip()] = val.strip()
        spec = {"builder": name, "params": kv}
    try:
        _check_max_n(ambient_dim(spec))
        return build(spec)
    except KeyError as exc:
        raise InputError(exc.args[0]) from exc
    except (TypeError, ValueError) as exc:
        raise InputError(str(exc)) from exc


def parse_matrix(text) -> Mat:
    data = _load_json_arg(text)
    if isinstance(data, dict) and "f" in data:
        data = data["f"]
    try:
        return reporting.mat_from_json(data)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a matrix of rationals: {exc}") from exc


def parse_f(text, h) -> Mat:
    """--f as an endomorphism of the hyperplane R^{n-1} of h."""
    f = parse_matrix(text)
    if f.rows != h.n - 1:
        raise InputError(f"f must be {h.n - 1} x {h.n - 1} for this algebra")
    return f


def _emit(report, fmt):
    """Write a raw result as it is converted, JSON by reporting.dump, text by
    _emit_text; every input is parsed, so the int-string digit limit is lifted."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        if fmt == "json":
            reporting.dump(report, sys.stdout.write)
            sys.stdout.write("\n")
        else:
            _emit_text(report)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _emit_text(report, indent=0):
    """Print report a key or a "-" per line, each node through reporting.view."""
    pad = "  " * indent
    items = [(f"{key}:", report[key]) for key in sorted(report)] if isinstance(report, dict) else [("-", v) for v in report]
    for label, value in items:
        value = reporting.view(value)
        if isinstance(value, (list, tuple)) and (
            set(map(type, value)) <= {str}  # a basis line, tested in C
            or not any(isinstance(reporting.view(x), (dict, list, tuple)) for x in value)
        ):
            print(f"{pad}{label} [{', '.join(map(str, value))}]")  # scalars, such as a matrix row, on one line
        elif isinstance(value, (dict, list, tuple)):
            print(f"{pad}{label}")
            _emit_text(value, indent + 1)
        else:
            print(f"{pad}{label} {value}")


def cmd_space(args):
    h = parse_algebra(args.algebra)
    spaces = {
        "k_tilde": characteristic_subalgebra(h),
        "tableau": tableau(h),
        "K1": first_prolongation(h),
        "D": connection_space(h),
        "F": obstruction_space(h),
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
        report["bases"] = spaces
    _emit(report, args.format)
    return 0


def _report_certificate(h, result, verdict, args):
    """Emit a certificate (exit 0) or a refusal (exit 1)."""
    if isinstance(result, Certificate):
        report = {"algebra": h.name, "verdict": verdict}
        if args.with_bases:
            report["certificate"] = {"kind": result.kind, "nabla": result.nabla, "residuals": result.residuals}
        else:
            report["residuals"] = result.residuals
        _emit(report, args.format)
        return 0
    report = {"algebra": h.name, "verdict": "refused", "refused": True, "reason": result.reason, "residual": result.residual}
    _emit(report, args.format)
    return 1


def cmd_check(args):
    h = parse_algebra(args.algebra)
    f = parse_f(args.f, h)
    t = parse_matrix(args.hyperplane_map) if args.hyperplane_map else None
    result = check_torsion_free(h, AlmostAbelian(f), hyperplane_map=t)
    return _report_certificate(h, result, "torsion-free", args)


def cmd_flat(args):
    h = parse_algebra(args.algebra)
    f = parse_f(args.f, h)
    return _report_certificate(h, flat_certificate(h, AlmostAbelian(f)), "left-invariantly-flat", args)


def _existence_group(name, n, p=None, type_index=None):
    """The GROUPS entry for name once n fits it; --p and --type are read
    only where the table gives them a meaning."""
    try:
        group = existence_group(name)
        group.check(n, p)
    except (KeyError, ValueError) as exc:
        raise InputError(exc.args[0]) from exc
    if type_index is not None and f"[U{type_index}]" not in [o.label for o in group.orbits]:
        raise InputError(f"no orbit type [U{type_index}] for group {name}")
    return group


def cmd_exists(args):
    f = parse_matrix(args.f)
    n = f.rows + 1
    _check_max_n(n)
    if args.mode != "family" and args.group is not None:
        raise InputError(f"--group is read only by 'exists family'; 'exists {args.mode}' decides {args.mode}")
    if args.mode == "family" and not args.group:
        raise InputError("family existence needs --group")
    name = args.group or args.mode
    _existence_group(name, n, args.p, args.type)
    res = admits_torsion_free(name, AlmostAbelian(f), p=args.p)
    if args.type is not None:
        matching = [t for t in res["types"] if t["type"] == f"[U{args.type}]"]
        res = {"group": name, "types": matching, "overall": matching[0]["verdict"]}
    _emit(res, args.format)
    return 0 if str(res["overall"]).startswith("yes") else 1


def cmd_classify_hpc(args):
    f = parse_matrix(args.f)
    n = f.rows + 1
    _check_max_n(n)
    _existence_group("hpc", n)
    aa = AlmostAbelian(f)
    res = classify_hyperparacomplex(aa)
    yes = res["verdict"].startswith("yes")
    if yes:
        res["flatness"] = hpc_flatness(aa, res)
    if not args.with_bases:
        res.pop("basis", None)
        res.pop("conjugated", None)
    _emit(res, args.format)
    return 0 if yes else 1


def cmd_orbits(args):
    _check_max_n(args.n)
    if not _existence_group(args.group, args.n, args.p, args.type).orbits:
        raise InputError(f"group {args.group} has no orbit types")
    reps = orbit_catalog(args.group, args.n, p=args.p).reps
    if args.type is not None:
        reps = [rep for rep in reps if rep["label"] == f"[U{args.type}]"]
    _emit({"group": args.group, "reps": reps}, args.format)
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
        _emit({"checks": results, "passed": sum(r["ok"] for r in results), "total": len(results)}, "json")
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


@functools.lru_cache(maxsize=1)
def build_parser():
    parser = argparse.ArgumentParser(
        prog="torsionlab",
        description="Exact obstruction spaces for torsion-free structures on almost Abelian Lie algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, algebra=False, f=False, with_bases=False):
        """Add the shared flags, each only where the subcommand reads it."""
        if algebra:
            p.add_argument("--algebra", required=True, help="builder shorthand, JSON file, or inline JSON")
        if f:
            p.add_argument("--f", required=True, help="matrix of f as JSON (file or inline)")
        if with_bases:
            p.add_argument("--with-bases", action="store_true")
        p.add_argument("--format", choices=("json", "text"), default="json")

    group_rules = "; ".join(
        f"{g.name} ({g.rule}{', --p' if g.signature else ''}{f', --type 1..{len(g.orbits)}' if g.orbits else ''})"
        for g in GROUPS.values()
    )

    def group_flags(p, group_help=None):
        """--p and --type, read only for groups with a signature or orbit types."""
        if group_help:
            p.add_argument("--group", help=group_help)
        p.add_argument("--p", type=int, help="signature 1 <= p <= n-1 (groups marked --p)")
        p.add_argument("--type", type=int, help="restrict to the orbit type [Uk]")

    p = sub.add_parser("space", help="dims/bases of k~, K, K^(1), D, F")
    common(p, algebra=True, with_bases=True)
    p.set_defaults(fn=cmd_space)

    p = sub.add_parser("check", help="torsion-free certificate or refusal for f")
    common(p, algebra=True, f=True, with_bases=True)
    p.add_argument("--hyperplane-map", help="invertible matrix T straightening the hyperplane type")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("flat", help="left-invariantly-flat certificate (f in k~)")
    common(p, algebra=True, f=True, with_bases=True)
    p.set_defaults(fn=cmd_flat)

    p = sub.add_parser("exists", help="existence of torsion-free structures of any type")
    p.add_argument("mode", choices=("product", "tangent", "hpc", "family"), help="a group, or family with --group")
    common(p, f=True)
    group_flags(p, group_help="family only; one of " + group_rules)
    p.set_defaults(fn=cmd_exists)

    p = sub.add_parser("classify-hpc", help="hyperparacomplex normal-form classification")
    common(p, f=True, with_bases=True)
    p.set_defaults(fn=cmd_classify_hpc)

    p = sub.add_parser("orbits", help="hyperplane-orbit representatives for a group")
    p.add_argument("--group", required=True, help="one of " + group_rules)
    p.add_argument("--n", type=int, required=True)
    group_flags(p)
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
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: send what is still buffered to devnull,
        # so the flush at exit cannot fail again, and exit 1 as on EPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    except (InputError, ShapeError) as exc:
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
