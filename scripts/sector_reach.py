"""Reach of the sector engine: sectors on K_N, or on lattices, at growing N.

    python3 scripts/sector_reach.py [--mode symmetric|full] [--Ns 10,100,300,1000]
                                    [--degree 4] [--graph complete|lattice] [--d 2]
                                    [--out reach.json]

For each N it assembles and solves the sector of kac-uniform and of the
redistribution model at gamma = 1 and 2, and prints one JSON object per
instance: basis size (the dimension of the degree <= D sector, counted, not
built), kept and deflated dimensions (the kept dimension is the summed size
of the blocks solved, whose elements alone are listed; the rest of the
sector is deflated), the number of blocks and the size of the largest,
seconds for the graph, the assembly and the solve, the gap and its distance
from the closed form, (N+2)/(4N) for kac-uniform at degree >= 4 and
(gamma N + 1)/(N (2 gamma + 1)) for the redistribution model, the gap
eigenpair's residual and condition number, and peak RSS in MB.  Each
instance runs in a fresh process on one BLAS thread (scripts/runner.py), so
its times and peak are its own.  Below degree 4 the kac-uniform rows carry
null for the closed form and its distance.  The symmetric (orbit-sum) mode
defaults to N = 10, 100, 300, 1000; the full (monomial) mode, whose
rotation blocks are the parity classes of each degree, to N = 3..10.

`--graph lattice` solves the same models on the d-dimensional lattice of
side N, in full mode (orbit sums are invariant only on K_N), for N = 3..5 by
default; no closed form is known there, so those fields are null.  A size
the preflight refuses is an error row (scripts/runner.py).
"""

from __future__ import annotations

import sys
from fractions import Fraction
from time import perf_counter

import runner

CASES = (("kac-uniform", None), ("gamma", Fraction(1)), ("gamma", Fraction(2)))


DEFAULT_NS = {"symmetric": "10,100,300,1000", "full": "3,4,5,6,7,8,9,10", "lattice": "3,4,5"}


def mode(args) -> str:
    """The basis mode: symmetric by default on K_N, and always full on lattices."""
    if args.graph == "lattice":
        if args.mode == "symmetric":
            raise SystemExit("--graph lattice runs --mode full only: orbit sums are "
                             "invariant only on the complete graph")
        return "full"
    return args.mode or "symmetric"


def cases(args) -> list:
    """model/KN, or model/ZdNN on lattices, with /gammaG for the redistribution model, for each N."""
    m = mode(args)
    lattice = args.graph == "lattice"
    Ns = (args.Ns or DEFAULT_NS["lattice" if lattice else m]).split(",")
    return [f"{model}/" + (f"Z{args.d}N{N}" if lattice else f"K{N}")
            + (f"/gamma{gamma}" if gamma is not None else "")
            for N in Ns for model, gamma in CASES]


def cell(case: str, args) -> dict:
    from gaplab import galerkin, verify
    from gaplab.models import build_graph

    model, graph_label, *tail = case.split("/")
    lattice = args.graph == "lattice"
    N = int(graph_label.split("N")[1] if lattice else graph_label[1:])
    degree, basis = args.degree, mode(args)
    gamma = Fraction(tail[0][len("gamma"):]) if tail else None
    kwargs = {"gamma": gamma} if gamma is not None else {}
    t0 = perf_counter()
    graph = (build_graph("lattice", d=args.d, N=N) if lattice
             else build_graph("complete", N=N))
    graph_s = perf_counter() - t0
    t0 = perf_counter()
    pair = galerkin.assemble_galerkin(model, graph, degree=degree, mode=basis, **kwargs)
    t1 = perf_counter()
    rep = galerkin.galerkin_eigensystem(pair)
    t2 = perf_counter()
    # the Kac walk's closed form holds from degree 4; lattices have none
    known = not lattice and (model == "gamma" or degree >= 4)
    ref = float(verify.sector_closed_form(model, N, gamma)) if known else None
    return {
        "case": f"{model}/{graph_label}/deg{degree}/{basis}"
                + (f"/gamma{gamma}" if gamma is not None else ""),
        "N": N,
        "basis_size": rep.kept_dim + rep.deflated,
        "kept_dim": rep.kept_dim,
        "deflated": rep.deflated,
        "blocks": rep.blocks,
        "block_max": rep.block_max,
        "graph_s": graph_s,
        "assemble_s": t1 - t0,
        "solve_s": t2 - t1,
        "gap": rep.gap,
        "closed_form": ref,
        "abs_error": abs(rep.gap - ref) if ref is not None else None,
        "eig_residual": rep.eig_residual,
        "eig_condition": rep.eig_condition,
    }


def options(ap) -> None:
    ap.add_argument("--mode", choices=("symmetric", "full"), default=None,
                    help="symmetric by default on K_N; lattices run full only")
    ap.add_argument("--Ns", default=None, help="comma-separated N (default by mode)")
    ap.add_argument("--degree", type=int, default=4)
    ap.add_argument("--graph", choices=("complete", "lattice"), default="complete")
    ap.add_argument("--d", type=int, default=2, help="lattice dimension")


def main(argv=None) -> int:
    return runner.run(__file__, __doc__, options, cases, cell, argv)


if __name__ == "__main__":
    sys.exit(main())
