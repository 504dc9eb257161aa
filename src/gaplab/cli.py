"""Command-line front end: model/graph selection, every computation, the
verification battery, and JSON/CSV emission."""

from __future__ import annotations

import argparse
import ast
import contextlib
import math
import sys
from fractions import Fraction

import numpy as np

from . import bounds, discrete, galerkin, reporting, verify
from .simulate import autocorr_gap_estimate
from .models import (MODEL_IDS, RhoSpec, build_graph, model_from_id,
                     rate_by_name, rate_from_table)


# ---------------------------------------------------------------------------
# argument helpers
# ---------------------------------------------------------------------------

def _omega_range(text: str) -> list:
    """'3' -> [3]; '1:8' -> [1..8]; '1,3,5' -> [1, 3, 5]."""
    try:
        if ":" not in text:
            return [int(v) for v in text.split(",")]
        lo, hi = (int(v) for v in text.split(":"))
    except ValueError:
        raise ValueError(f"malformed --omega {text!r}: expected an integer total N, "
                         "a range LO:HI or a list A,B,C") from None
    if lo > hi:
        raise ValueError(f"empty range of totals --omega {text}: {lo} > {hi}")
    return list(range(lo, hi + 1))


def _rational(flag: str, text):
    """The Fraction a rational flag gives (None when unset); bad text names the flag."""
    try:
        return None if text is None else Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"invalid {flag} {text!r}: expected a rational such as 3/2") from None


def _data_rows(path: str, parse, form: str) -> list:
    """`parse` of each data line, blank and '#' lines skipped; a line it refuses
    with ValueError raises one naming the file, the line and the expected `form`."""
    rows = []
    with open(path) as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                rows.append(parse(line))
            except ValueError:
                raise ValueError(f"{path}, line {number}: expected {form}, "
                                 f"got {line!r}") from None
    return rows


def _table_row(line: str) -> tuple:
    k, v = line.split(",")
    return int(k), float(v)


def _fourier_row(line: str):
    parts = [float(v) for v in line.replace(",", " ").split()]
    if len(parts) > 2:
        raise ValueError
    return parts[0] if len(parts) == 1 else complex(*parts)


def _resolve_g(name: str):
    if name.startswith("table:"):
        path = name.split(":", 1)[1]
        return rate_from_table(_data_rows(path, _table_row, "'k,g(k)'"), name=path)
    return rate_by_name(name)


_SAFE_FUNCS = {"sin": math.sin, "cos": math.cos, "tan": math.tan,
               "exp": math.exp, "sqrt": math.sqrt, "abs": abs, "pi": math.pi}


def _safe_expression(expr: str):
    """Arithmetic-only evaluator for density expressions in the variable theta."""
    tree = ast.parse(expr, mode="eval")
    allowed = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Call, ast.Name,
               ast.Load, ast.Constant, ast.Add, ast.Sub, ast.Mult, ast.Div,
               ast.Pow, ast.USub, ast.UAdd, ast.Mod)
    for node in ast.walk(tree):
        if not isinstance(node, allowed):
            raise ValueError(f"disallowed syntax in expression: {ast.dump(node)[:40]}")
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _SAFE_FUNCS:
                raise ValueError("only sin/cos/tan/exp/sqrt/abs calls are allowed")
        if isinstance(node, ast.Name) and node.id not in _SAFE_FUNCS and node.id != "theta":
            raise ValueError(f"unknown name {node.id!r} in expression")
    code = compile(tree, "<density>", "eval")

    def density(theta: float) -> float:
        return float(eval(code, {"__builtins__": {}}, {**_SAFE_FUNCS, "theta": theta}))

    return density


def _resolve_rho(spec: str) -> RhoSpec:
    """The angle density of --rho; `RhoSpec` refuses one that is not a density."""
    if spec in (None, "uniform"):
        return RhoSpec.uniform()
    if spec.startswith("fourier:"):
        path = spec.split(":", 1)[1]
        coeffs = _data_rows(path, _fourier_row, "'re' or 're, im'")
        return RhoSpec(coefficients=coeffs, name=path)
    if spec.startswith("density:"):
        return RhoSpec(density=_safe_expression(spec.split(":", 1)[1]), name=spec)
    raise ValueError(f"unknown rho spec {spec!r} (uniform | fourier:FILE | density:EXPR)")


def _config_of(args) -> dict:
    cfg = {}
    for k, v in vars(args).items():
        if k in ("fn", "out", "format") or callable(v):
            continue
        cfg[k] = v if isinstance(v, (int, float, str, bool, type(None))) else str(v)
    return cfg


def _emit(args, command: str, results: list, references: list) -> None:
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        if args.format == "csv":
            reporting.write_csv(out, results)
        else:
            config = {"command": command, **_config_of(args)}
            reporting.write_json(out, reporting.payload(config, results, references))
    finally:
        if args.out:
            out.close()


def _graph_from_args(args):
    return build_graph(args.graph, d=args.d, N=args.N)


def _model_from_args(args):
    """The ModelSpec of --model; a --g, --gamma or --rho the model does not read is refused."""
    g = _resolve_g(args.g) if getattr(args, "g", None) is not None else None
    return model_from_id(args.model, g=g, gamma=_rational("--gamma", args.gamma),
                         rho=_resolve_rho(args.rho) if args.rho else None)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_graph(args) -> int:
    g = _graph_from_args(args)
    rec = {"model": "-", "graph": reporting.graph_header(g),
           "n_sites": g.n_sites, "n_edges": g.n_edges,
           "pair_scaling": g.pair_scaling, "method": "graph"}
    _emit(args, "graph", [rec], [])
    return 0


def cmd_states(args) -> int:
    g = _resolve_g(args.g)
    graph = _graph_from_args(args)
    states = discrete.enumerate_states(graph.n_sites, args.omega)
    measure = discrete.stationary_weights(g, states)
    rec = {"model": f"weights[{g.name}]",
           "graph": reporting.graph_header(graph),
           "omega": args.omega, "dim": len(states),
           "max_weight": float(measure.weights.max()),
           "min_weight": float(measure.weights.min()),
           "method": "states"}
    _emit(args, "states", [rec], [])
    return 0


def cmd_gap_exact(args) -> int:
    model = _model_from_args(args)
    graph = _graph_from_args(args)
    results = []
    for om in _omega_range(args.omega_range):
        gap, kappa, dim, solve = discrete.exact_solve(model, graph, om)
        results.append(reporting.exact_record(args.model, graph, om, gap, kappa, dim, solve))
    _emit(args, "gap-exact", results, ["pairwise generator, exact diagonalization"])
    return 0


#: gap-galerkin's --model ids and the sector model each one assembles
SECTOR_MODELS = {"kac": "kac-uniform", "kac-rho": "kac-rho", "gamma-exchange": "gamma"}


def cmd_gap_galerkin(args) -> int:
    model = _model_from_args(args)
    graph = _graph_from_args(args)
    pair = galerkin.assemble_galerkin(SECTOR_MODELS[args.model], graph, degree=args.degree,
                                      mode=args.basis_mode, rho=model.rho,
                                      gamma=model.exchange.gamma if model.exchange else None)
    rep = galerkin.galerkin_eigensystem(pair)
    rec = reporting.galerkin_record(args.model, graph, args.degree,
                                    f"{args.basis_mode} deg<={args.degree}",
                                    rep, pair.assembly)
    _emit(args, "gap-galerkin", [rec], ["Rayleigh quotient on the polynomial sector"])
    return 0


def cmd_gap_mc(args) -> int:
    model = _model_from_args(args)
    graph = _graph_from_args(args)
    omegas = _omega_range(args.omega_range)
    if len(omegas) != 1:
        raise ValueError(f"gap-mc runs one total, not --omega {args.omega_range}")
    om = omegas[0]
    observable = _observable_by_name(args.observable, model, graph, om)
    stream = (reporting.SampleStreamWriter(
        args.stream, [args.observable],
        meta={"model": args.model, "seed": args.seed, "dt": args.dt})
        if args.stream else contextlib.nullcontext())
    with stream as w:
        est = autocorr_gap_estimate(
            model, graph, observable, omega=om, dt=args.dt,
            n_samples=args.samples, seed=args.seed, stream_writer=w)
    rec = reporting.mc_record(args.model, graph, om, est)
    _emit(args, "gap-mc", [rec], ["autocorrelation decay estimator"])
    return 0


def _observable_by_name(name, model, graph, omega):
    if name == "site-0":
        return lambda cfg: float(cfg[0])
    if name == "sum-squares":
        return lambda cfg: float(np.dot(cfg, cfg))
    if name == "sum-fourth":
        return lambda cfg: float(np.sum(np.asarray(cfg, dtype=float) ** 4))
    if name == "gap-eigenfunction":
        if model.is_discrete:
            return verify.gap_observable(model, graph, omega)[1]
        raise ValueError("gap-eigenfunction observable needs a discrete model")
    raise ValueError(f"unknown observable {name!r}")


def cmd_two_site(args) -> int:
    model = _model_from_args(args)
    if model.family in ("kac-uniform", "kac-rho"):
        # rotation models: angle modes give the pair spectrum in closed form
        res = galerkin.two_site_fourier_gap(model.angle_density())
        results = [{"model": args.model, "mode": n, "gap": rate,
                    "method": "two-site fourier"} for n, rate in res.modes]
        results.append({"model": args.model, "mode": f"extremes over 1..{len(res.modes)}",
                        "gap": res.gap, "kappa": res.kappa,
                        "method": f"two-site fourier ({res.note})"})
        _emit(args, "two-site", results, ["two-site reduction"])
        return 0
    omegas = _omega_range(args.omega_range)
    table = discrete.two_site_spectrum(model, omegas)
    results = [{"model": args.model, "omega": r.omega,
                "gap": reporting._scalar(r.gap), "kappa": reporting._scalar(r.kappa),
                "method": "two-site"}
               for r in table.rows]
    results.append({"model": args.model, "omega": "inf over range",
                    "gap": reporting._scalar(table.inf_gap),
                    "kappa": reporting._scalar(table.sup_kappa),
                    "solver": table.solver, "max_residual": table.max_residual,
                    "method": f"two-site ({table.trend}; {table.note})"})
    _emit(args, "two-site", results, ["two-site reduction"])
    return 0


def cmd_kernel(args) -> int:
    g = _resolve_g(args.g)
    ext = discrete.kernel_spectrum_extremes(g, args.n_max)
    results = [{"model": f"kernel[{g.name}]", "n": n, "min": lo, "max": hi,
                "method": "kernel"}
               for n, lo, hi in ext.table]
    results.append({"model": f"kernel[{g.name}]", "n": f"<= {args.n_max}",
                    "min": ext.mu1, "max": ext.mu2, "method": "kernel extremes"})
    _emit(args, "kernel", results, ["one-site kernel"])
    return 0


def cmd_bounds(args) -> int:
    chain = bounds.certificate(_rational("--lambda3", args.lambda3),
                               _rational("--lambda2", args.lambda2), args.d)
    _emit(args, "bounds", [chain.to_json()], [s.rule for s in chain.steps])
    return 0


def cmd_audit(args) -> int:
    g = _resolve_g(args.g)
    graph = _graph_from_args(args)
    states = discrete.enumerate_states(graph.n_sites, args.omega)
    measure = discrete.stationary_weights(g, states)
    rep = bounds.lemma_audit(states, measure,
                             graph if graph.kind == "lattice" else None,
                             n_functions=args.functions, seed=args.seed)
    rec = {"model": f"audit[{g.name}]",
           "graph": reporting.graph_header(graph),
           "omega": args.omega, "checks": rep.checks_run,
           "violations": len(rep.violations),
           "max_ratio_transfer": rep.max_ratio_transfer,
           "max_ratio_swap": rep.max_ratio_swap,
           "observed_swap_constant": rep.observed_swap_constant,
           "max_ratio_path": rep.max_ratio_path,
           "method": "audit"}
    _emit(args, "audit", [rec], ["Lemma 1.5", "Lemma 1.6"])
    return 0 if rep.passed else 1


def cmd_verify_all(args) -> int:
    outcomes = verify.run_all(fast=args.fast, only=args.only or None)
    for oc in outcomes:
        print(oc.line())
    n_fail = sum(1 for oc in outcomes if not oc.passed)
    print(f"{len(outcomes) - n_fail}/{len(outcomes)} checks passed")
    return 0 if n_fail == 0 else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gaplab",
        description="spectral gaps of conservative binary-collision dynamics: "
                    "exact, polynomial-sector and Monte Carlo computations "
                    "plus certified comparison bounds")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, graph=True, model=False, omega=False):
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        if graph:
            sp.add_argument("--graph", choices=("complete", "lattice"), default="complete")
            sp.add_argument("--d", type=int, default=1)
            sp.add_argument("--N", type=int, default=3)
        if model:
            sp.add_argument("--model", choices=sorted(MODEL_IDS), default="zero-range")
            sp.add_argument("--g", default=None,
                            help="rate function of zero-range and simple-average: "
                                 "constant-one (default) | identity | table:FILE")
            sp.add_argument("--gamma", default=None, help="shape parameter")
            sp.add_argument("--rho", default=None,
                            help="angle density: uniform | fourier:FILE | density:EXPR")
        if omega:
            sp.add_argument("--omega", "--omega-range", dest="omega_range",
                            default="1", help="total: single, lo:hi, or comma list")

    sp = sub.add_parser("graph", help="vertex/edge structure and pair scaling")
    common(sp)
    sp.set_defaults(fn=cmd_graph)

    sp = sub.add_parser("states", help="state count and stationary weights")
    common(sp)
    sp.add_argument("--g", default="constant-one")
    sp.add_argument("--omega", type=int, default=1)
    sp.set_defaults(fn=cmd_states)

    sp = sub.add_parser("gap-exact", help="exact diagonalization gap")
    common(sp, model=True, omega=True)
    sp.set_defaults(fn=cmd_gap_exact)

    sp = sub.add_parser("gap-galerkin", help="polynomial-sector gap")
    common(sp)
    sp.add_argument("--model", choices=tuple(SECTOR_MODELS), default="kac")
    sp.add_argument("--gamma", default=None, help="shape parameter")
    sp.add_argument("--rho", default=None,
                    help="angle density: uniform | fourier:FILE | density:EXPR")
    sp.add_argument("--degree", type=int, default=4)
    sp.add_argument("--basis-mode", choices=("full", "symmetric"), default="full")
    sp.set_defaults(fn=cmd_gap_galerkin)

    sp = sub.add_parser("gap-mc", help="autocorrelation gap estimate")
    common(sp, model=True, omega=True)
    sp.add_argument("--observable", default="gap-eigenfunction",
                    choices=("gap-eigenfunction", "site-0", "sum-squares", "sum-fourth"))
    sp.add_argument("--dt", type=float, default=0.5, help="sampling stride")
    sp.add_argument("--samples", type=int, default=5000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--stream", default=None,
                    help="also write the estimator's sampled series, burn-in included, "
                         "to this binary stream file")
    sp.set_defaults(fn=cmd_gap_mc)

    sp = sub.add_parser("two-site", help="pair spectrum sweep over totals")
    common(sp, graph=False, model=True, omega=True)
    sp.set_defaults(fn=cmd_two_site)

    sp = sub.add_parser("kernel", help="conditional kernel spectra and extremes")
    common(sp, graph=False)
    sp.add_argument("--g", default="constant-one")
    sp.add_argument("--n-max", type=int, default=40)
    sp.set_defaults(fn=cmd_kernel)

    sp = sub.add_parser("bounds", help="certified bound chain from gap inputs")
    sp.add_argument("--lambda3", required=True, help="three-site gap (fraction ok)")
    sp.add_argument("--lambda2", required=True, help="two-site gap (fraction ok)")
    sp.add_argument("--d", type=int, default=1)
    sp.add_argument("--out", default=None)
    sp.add_argument("--format", choices=("json",), default="json")
    sp.set_defaults(fn=cmd_bounds)

    sp = sub.add_parser("audit", help="random-function inequality audit")
    common(sp)
    sp.add_argument("--g", default="constant-one")
    sp.add_argument("--omega", type=int, default=2)
    sp.add_argument("--functions", type=int, default=200)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_audit)

    sp = sub.add_parser("verify-all", help="run the acceptance battery")
    sp.add_argument("--fast", action="store_true",
                    help="reduced Monte Carlo repetitions and sweep ranges")
    sp.add_argument("--only", nargs="*", default=None,
                    help="subset of check names")
    sp.set_defaults(fn=cmd_verify_all)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, ArithmeticError, RuntimeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
