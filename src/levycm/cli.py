"""Command-line front end.

Subcommands: ``eval``, ``spine``, ``factor``, ``fluct``, ``mc``, ``verify``.
Spec files are JSON documents (see :mod:`levycm.specio`); ``preset:NAME``
refers to a bundled example.  All numeric output is JSON with floats at 17
significant digits; exit codes are 0 (success), 1 (verification failures,
report still written) and 2 (input errors, JSON error envelope on stdout).
"""

from __future__ import annotations

import argparse
import sys

from .errors import LevycmError, ValidationError
from .fluctuation import _pr_route, kappa_ratio_tau, kappa_ratio_xi, pr_laplace, sup_tail
from .montecarlo import (
    JointQuery,
    LaplaceQuery,
    TailQuery,
    mc_estimates,
    simulate_sup_samples,
)
from .rogers import eval_f, shift_spec, validate_spec
from .specio import (
    complex_to_dict,
    dumps_canonical,
    format_float,
    load_spec,
    preset_names,
    spec_to_dict,
)
from .spine import build_spine_table
from .verify import SUITES, default_spine_range, run_suite
from .wiener_hopf import wh_product, wh_ratio

__all__ = ["main"]


def _emit(obj, out_path=None):
    text = dumps_canonical(obj, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _error(code, message, field=""):
    sys.stdout.write(dumps_canonical({"code": code, "message": message, "field": field}) + "\n")
    return 2


def _parse_complex(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValidationError("xi", "expected 're,im'")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise ValidationError("xi", f"malformed number: {exc}") from exc


def _cmd_eval(args):
    spec = validate_spec(load_spec(args.spec))
    xi = _parse_complex(args.xi)
    val = eval_f(spec, xi)
    _emit(
        {"spec": spec_to_dict(spec), "xi": complex_to_dict(xi), "value": complex_to_dict(val)},
        args.out,
    )
    return 0


def _cmd_spine(args):
    spec = validate_spec(load_spec(args.spec))
    r_lo, r_hi = default_spine_range(spec)
    r_min = r_lo if args.rmin is None else args.rmin
    r_max = r_hi if args.rmax is None else args.rmax
    table = build_spine_table(spec, r_min, r_max, args.n)
    s = table.samples
    rows = ["r,theta,re_zeta,im_zeta,lambda,in_Z"]
    for *values, in_z in zip(s.r, s.theta, s.zeta.real, s.zeta.imag, s.lam, s.in_Z):
        rows.append(",".join([*map(format_float, values), "1" if in_z else "0"]))
    csv_text = "\n".join(rows) + "\n"
    out_csv = args.out or "spine.csv"
    with open(out_csv, "w") as fh:
        fh.write(csv_text)
    _emit(
        {
            "csv": out_csv,
            "grid": {"r_min": r_min, "r_max": r_max, "n": args.n},
            "z_intervals": [[lo, hi] for lo, hi in table.z_intervals],
        }
    )
    return 0


def _cmd_factor(args):
    spec = validate_spec(load_spec(args.spec))
    if args.tau:
        spec = shift_spec(spec, args.tau)
    cross_method = "phi" if args.method == "bd" else "bd"
    if args.product:
        value = wh_product(spec, args.method, args.xi1, args.xi2)
        cross = wh_product(spec, cross_method, args.xi1, args.xi2)
    else:
        value = wh_ratio(spec, args.method, args.side, args.xi1, args.xi2)
        cross = wh_ratio(spec, cross_method, args.side, args.xi1, args.xi2)
    _emit(
        {
            "method": args.method,
            "side": args.side,
            "xi1": args.xi1,
            "xi2": args.xi2,
            "tau": args.tau,
            "product": bool(args.product),
            "value": value,
            # cross-method discrepancy as an honest accuracy indicator
            "err_estimate": abs(value - cross),
        },
        args.out,
    )
    return 0


def _cmd_fluct(args):
    spec = validate_spec(load_spec(args.spec))
    chain = []
    if args.query in ("sup-laplace", "pr") and args.xi is None:
        raise ValidationError("xi", f"{args.query} needs --xi")
    if args.query == "sup-laplace":
        value = pr_laplace(spec, args.sigma, 0.0, args.xi, args.side, args.method)
        chain = list(_pr_route(0.0, args.xi, args.method))
        q = {"query": "sup-laplace", "sigma": args.sigma, "xi": args.xi, "side": args.side}
    elif args.query == "sup-tail":
        value = sup_tail(spec, args.sigma, args.x)
        chain = ["wh_boundary_measure"]  # axis values of f_sigma and the phi-route f_sigma^-
        q = {"query": "sup-tail", "sigma": args.sigma, "x": args.x}
    elif args.query == "pr":
        value = pr_laplace(spec, args.sigma, args.tau, args.xi, args.side, args.method)
        chain = list(_pr_route(args.tau, args.xi, args.method))
        q = {
            "query": "pr",
            "sigma": args.sigma,
            "tau": args.tau,
            "xi": args.xi,
            "side": args.side,
        }
    elif args.query == "kappa-ratio":
        if args.tau1 is not None or args.tau2 is not None:
            if args.tau1 is None or args.tau2 is None or args.xi is None:
                raise ValidationError("tau1", "temporal ratio needs --tau1 --tau2 --xi")
            value = kappa_ratio_tau(spec, args.xi, args.tau1, args.tau2, args.side)
            chain = ["kappa_ratio_tau"]
            q = {
                "query": "kappa-ratio-tau",
                "xi": args.xi,
                "tau1": args.tau1,
                "tau2": args.tau2,
                "side": args.side,
            }
        else:
            if args.xi1 is None or args.xi2 is None:
                raise ValidationError("xi1", "spatial ratio needs --xi1 --xi2 (and --tau)")
            value = kappa_ratio_xi(spec, args.tau, args.xi1, args.xi2, args.side, args.method)
            chain = ["kappa_ratio_xi"]
            q = {
                "query": "kappa-ratio-xi",
                "tau": args.tau,
                "xi1": args.xi1,
                "xi2": args.xi2,
                "side": args.side,
            }
    else:
        raise ValidationError("query", f"unknown fluct query {args.query!r}")
    _emit({"query": q, "value": value, "method_chain": chain}, args.out)
    return 0


def _cmd_mc(args):
    spec = validate_spec(load_spec(args.spec))
    queries = [LaplaceQuery(xi) for xi in args.laplace or []]
    queries += [TailQuery(x) for x in args.tail or []]
    for pair in args.joint or []:
        try:
            xi, tau = (float(v) for v in pair.split(","))
        except ValueError as exc:
            raise ValidationError("joint", f"expected 'xi,tau', got {pair!r}") from exc
        queries.append(JointQuery(xi, tau))
    samples = simulate_sup_samples(spec, args.sigma, args.n, args.seed)
    if args.dump:
        with open(args.dump, "w") as fh:
            fh.write("sup_value,argmax_time,horizon,killed\n")
            for sup, tmax, horizon, killed in zip(
                samples.sup_value, samples.argmax_time, samples.horizon, samples.killed
            ):
                fh.write(
                    f"{format_float(sup)},{format_float(tmax)},"
                    f"{format_float(horizon)},{1 if killed else 0}\n"
                )
    if not queries:
        queries = [LaplaceQuery(1.0)]
    ests = mc_estimates(samples, queries, seed=args.seed)
    _emit(
        {
            "sigma": args.sigma,
            "n": args.n,
            "seed": args.seed,
            "estimates": [
                {
                    "query": e.query,
                    "mean": e.mean,
                    "std_error": e.std_error,
                    "n": e.n,
                }
                for e in ests
            ],
        },
        args.out,
    )
    return 0


def _cmd_verify(args):
    spec = load_spec(args.spec)
    kwargs = {}
    if args.tol is not None:
        kwargs["tol"] = args.tol
    report = run_suite(args.suite, spec, **kwargs)
    _emit(report.to_dict(), args.out)
    return 0 if report.passed else 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="levycm",
        description=(
            "Numerical toolkit for exponents of Levy processes with "
            "completely monotone jumps"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec(p):
        p.add_argument(
            "spec",
            help=f"spec JSON path or preset:NAME (presets: {', '.join(preset_names())})",
        )
        p.add_argument("--out", default=None, help="write JSON artifact here")

    p = sub.add_parser("eval", help="evaluate the exponent at a complex point")
    add_spec(p)
    p.add_argument("--xi", required=True, help="complex point as 're,im'")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("spine", help="sample the spine onto a CSV table")
    add_spec(p)
    p.add_argument("--rmin", type=float, default=None)
    p.add_argument("--rmax", type=float, default=None)
    p.add_argument("--n", type=int, default=200)
    p.set_defaults(fn=_cmd_spine)

    p = sub.add_parser("factor", help="Wiener-Hopf factor ratios and products")
    add_spec(p)
    p.add_argument("--method", choices=("bd", "spine", "phi"), default="bd")
    p.add_argument("--side", choices=("plus", "minus"), default="plus")
    p.add_argument("--xi1", type=float, required=True)
    p.add_argument("--xi2", type=float, required=True)
    p.add_argument("--tau", type=float, default=0.0, help="temporal shift of the exponent")
    p.add_argument("--product", action="store_true", help="compute f+(xi1) f-(xi2)")
    p.set_defaults(fn=_cmd_factor)

    p = sub.add_parser("fluct", help="space-time fluctuation quantities")
    add_spec(p)
    p.add_argument("query", choices=("sup-laplace", "sup-tail", "pr", "kappa-ratio"))
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--xi", type=float, default=None)
    p.add_argument("--x", type=float, default=1.0)
    p.add_argument("--xi1", type=float, default=None)
    p.add_argument("--xi2", type=float, default=None)
    p.add_argument("--tau1", type=float, default=None)
    p.add_argument("--tau2", type=float, default=None)
    p.add_argument("--side", choices=("plus", "minus"), default="plus")
    p.add_argument("--method", choices=("bd", "spine", "phi"), default="bd")
    p.set_defaults(fn=_cmd_fluct)

    p = sub.add_parser("mc", help="exact-path Monte Carlo sampling")
    add_spec(p)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dump", default=None, help="write raw samples to this CSV")
    p.add_argument("--laplace", type=float, action="append")
    p.add_argument("--tail", type=float, action="append")
    p.add_argument("--joint", action="append", help="'xi,tau' pair; repeatable")
    p.set_defaults(fn=_cmd_mc)

    p = sub.add_parser("verify", help="run a verification suite")
    add_spec(p)
    p.add_argument("--suite", choices=tuple(SUITES), default="core")
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ValidationError as exc:
        return _error("validation", exc.message, exc.field)
    except OSError as exc:  # a path that is missing, a directory or unreadable
        return _error("io", str(exc), "spec")
    except LevycmError as exc:
        return _error(type(exc).__name__, str(exc))


if __name__ == "__main__":
    sys.exit(main())
