"""Command-line interface: basis listing, fitting, encoding, verification, studies.

Every command emits one report.  The JSON envelope is
``{"config": ..., "report": ..., "meta": ...}`` where ``config`` is the fully
resolved run configuration, ``report`` carries the deterministic payload, and
``meta`` holds the volatile fields (timestamp, wall time, version).  Given
identical flags and seed, ``config`` and ``report`` serialize byte-identically;
only ``meta`` varies.

A command only computes: it returns ``(resolved, report, exit_code)``, or
``None`` once it has written plain text (``basis --format text``) or CSV
(``study --format csv``) itself.  :func:`main` runs ``cmd_<command>``,
looked up by name when it is called, reads the clock, writes the envelope
through ``json.dumps`` with :func:`polyscore.reports.default` (numpy values
and dataclasses are written as they are, not copied first), and builds
``config`` by one rule: every parsed flag except ``--out``, argparse
defaults applied, updated with what the command resolved.
The resolved values are ``fit``'s quadrature ``grid`` spec (null for SM),
``encode``'s ``alpha`` and ``beta``, and ``study``'s parsed ``Ns`` list and
``family``; ``basis`` and ``verify`` resolve nothing.  A flag a command does
not read is still recorded as given: ``fit --estimator sm`` ignores the grid
flags, and the hardness suite reads ``--points-per-axis`` but not
``--radius``, since its box is fixed at [-2, 2].  So under ``verify --suite
all`` a ``--points-per-axis`` without ``--radius`` is the hardness suite's,
and the bounds suite keeps its family grid.

Exit codes: 0 success / all checks hold, 1 I/O or malformed input file,
2 usage, 3 numerical failure or a failed verify check, 4 non-convergence.
Commands raise; :func:`main` alone maps a failure to its exit code (see
``polyscore.errors``) and a one-line ``error:`` message.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .errors import InputError, NumericalError, PolyscoreError, UsageError
from .estimators import convergence_study, fit_mle, fit_score_matching, study_csv
from .expfam import (
    QuadratureGrid,
    build_grid,
    family_grid,
    load_param,
    random_params,
    verify_1d_moment_bound,
    verify_int_concentration,
)
from .fisher import verify_bounds
from .hardness import (
    default_params,
    encode,
    encoded_to_json,
    hardness_grid,
    load_fixture,
    mean_sign_experiment,
    orthant_mass,
    pad_with_duplicates,
    parse_dimacs,
    satisfying_assignments,
    verify_roots,
    zgap_experiment,
)
from .polybasis import (
    check_mon_l2_bound,
    enumerate_basis,
    from_legendre,
    legendre_indices,
    to_legendre,
)
from .reports import BoundCheck, default
from .sampler import _stream, load_samples

EXIT_OK = 0

# desk-scale surrogate for the hardness experiments; validated by the
# quadrature convergence gate on every run
DEFAULT_HARDNESS_SCALE = 0.01


def _write(out: str | None, text: str) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit(out: str | None, config: dict, report: dict, t0: float) -> None:
    doc = {
        "config": config,
        "report": report,
        "meta": {
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "wall_time_s": time.perf_counter() - t0,
            "version": __version__,
        },
    }
    try:
        text = json.dumps(doc, sort_keys=True, indent=2, default=default, allow_nan=False)
    except ValueError as e:  # a report writes an undefined number as None, never NaN or infinity
        raise NumericalError(f"report is not strict JSON: {e}") from e
    _write(out, text + "\n")


def _family_flags(p: argparse.ArgumentParser, need_B: bool = True):
    p.add_argument("--n", type=int, required=True, help="number of variables")
    p.add_argument("--d", type=int, required=True, help="polynomial degree (odd)")
    if need_B:
        p.add_argument("--B", type=float, default=1.0, help="coefficient box radius")


def _grid_flags(p: argparse.ArgumentParser):
    p.add_argument("--radius", type=float, default=None, help="quadrature box half-width")
    p.add_argument("--points-per-axis", type=int, default=None)


def _pair(args, first: str, second: str) -> tuple | None:
    """The values of two flags that come together, or None when neither is given."""
    a, b = getattr(args, first), getattr(args, second)
    if (a is None) != (b is None):
        flags = [f"--{name.replace('_', '-')}" for name in (first, second)]
        raise UsageError(f"{flags[0]} and {flags[1]} must be given together")
    return None if a is None else (a, b)


def _resolve_grid(args, basis, B: float) -> tuple[QuadratureGrid, dict]:
    box = _pair(args, "radius", "points_per_axis")
    grid = family_grid(basis, B) if box is None else build_grid(basis.n, *box)
    return grid, grid.spec()


def _couplings(args, n: int, m: int, mode: str | None) -> tuple[float, float, dict | None]:
    """(alpha, beta, prescription): the --alpha/--beta pair if given, else mode's prescription at --scale."""
    pair = _pair(args, "alpha", "beta")
    if pair is not None:
        return *pair, None
    if mode is None:
        raise UsageError("give either --alpha/--beta or --mode")
    pp = default_params(n, m, mode, scale=args.scale)
    return pp.alpha, pp.beta, {"mode": pp.mode, "scale": pp.scale}


# ---------------------------------------------------------------------------
# subcommands


def cmd_basis(args):
    basis = enumerate_basis(args.n, args.d)
    names = basis.monomial_names()
    M = basis.size + 1  # the constant slot is implicit
    if args.format == "text" and not args.out:
        sys.stdout.write("".join(name + "\n" for name in names) + f"M={M}\n")
        return None
    report = {
        "n": basis.n,
        "d": basis.d,
        "M": M,
        "indices": [list(idx) for idx in basis.indices],
        "names": names,
    }
    return {}, report, EXIT_OK


def cmd_fit(args):
    basis = enumerate_basis(args.n, args.d)
    samples = load_samples(args.samples)
    if samples.n != basis.n:
        raise UsageError(f"samples have n={samples.n} but --n {basis.n} was given")
    grid_spec = None
    if args.estimator == "sm":
        fit = fit_score_matching(samples, basis)
    else:
        grid, grid_spec = _resolve_grid(args, basis, args.B)
        fit = fit_mle(samples, basis, grid, tol=args.tol)
    return {"grid": grid_spec}, {**vars(fit), "monomials": basis.monomial_names()}, EXIT_OK


def cmd_encode(args):
    formula = parse_dimacs(Path(args.cnf).read_text())
    alpha, beta, prescription = _couplings(args, formula.n, formula.m, args.mode)
    report = encoded_to_json(encode(formula, alpha, beta))
    report["prescription"] = prescription
    return {"alpha": alpha, "beta": beta}, report, EXIT_OK


def _suite_polybasis(args) -> dict:
    rng = _stream(args.seed, 0)
    checks = []
    for _ in range(20):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 6))
        idxs = legendre_indices(n, d)
        f = from_legendre(rng.standard_normal(len(idxs)), n, d)
        checks.append(check_mon_l2_bound(f, n, d))
    n, d = 2, 4
    c0 = rng.standard_normal(len(legendre_indices(n, d)))
    err = float(np.max(np.abs(to_legendre(from_legendre(c0, n, d), d=d) - c0)))
    checks.append(
        BoundCheck("legendre_roundtrip", err, 1e-9, err <= 1e-9, note="max abs coefficient error")
    )
    return {"checks": checks, "all_hold": all(c.holds for c in checks)}


def _suite_bounds(args) -> dict:
    basis = enumerate_basis(args.n, args.d)
    p = random_params(args.n, args.d, args.B, seed=args.seed)
    if args.suite == "all" and args.radius is None:  # a lone --points-per-axis is the hardness suite's
        grid = family_grid(basis, args.B)
        grid_spec = grid.spec()
    else:
        grid, grid_spec = _resolve_grid(args, basis, args.B)
    rep = verify_bounds(p, grid, corrupt=args.corrupt, seed=args.seed)
    checks = list(rep.checks)
    checks += [
        verify_int_concentration(2.2e5, 0.03, 1),
        verify_int_concentration(2.0e5, 0.035, 2),
        verify_int_concentration(6.5e5, 0.02, 3),
    ]
    checks += verify_1d_moment_bound(350.0)
    return {
        "family": {"n": args.n, "d": args.d, "B": args.B},
        "grid": grid_spec,
        "spectrum": {
            "lambda_min": rep.lambda_min,
            "lambda_max": rep.lambda_max,
            "C_P": rep.C_P,
            "gamma_bound": rep.gamma_bound,
        },
        "checks": checks,
        "all_hold": all(c.holds for c in checks),
    }


def _suite_hardness(args) -> dict:
    formula = parse_dimacs(Path(args.cnf).read_text()) if args.cnf else load_fixture("uniq3")
    n = formula.n
    sections: dict = {}
    checks: list[BoundCheck] = []

    alpha_r, beta_r, presc = _couplings(args, n, formula.m, "zeroth")
    roots = verify_roots(encode(formula, alpha_r, beta_r), seed=args.seed)
    sections["roots"] = roots
    checks.append(
        BoundCheck(
            "roots_certified",
            0.0,
            1.0 if roots["holds"] else 0.0,
            bool(roots["holds"]),
            note="vertex zero set matches the satisfying assignments",
        )
    )
    if n > 3:
        sections["note"] = "quadrature experiments need n <= 3; only roots were checked"
        return {"sections": sections, "checks": checks, "all_hold": all(c.holds for c in checks)}

    def grid(beta: float):
        return hardness_grid(n, beta, points_per_axis=args.points_per_axis)

    if not args.cnf:  # the fixture's satisfiable/unsatisfiable pair
        a, b, _ = _couplings(args, n, 8, "zeroth")
        pair = (pad_with_duplicates(formula, 8), load_fixture("unsat8"))
        zrep = zgap_experiment(pair[0], pair[1], a, b, grid(b))
        sections["zgap"] = zrep
        checks += zrep["checks"]
    sols = satisfying_assignments(formula)
    if len(sols) == 1:
        a, b, _ = _couplings(args, n, formula.m, "first")
        mrep = mean_sign_experiment(formula, a, b, grid(b))
        sections["mean_sign"] = mrep
        checks += mrep["checks"]
    else:
        sections["mean_sign"] = {
            "skipped": f"formula has {len(sols)} satisfying assignments, need exactly 1"
        }
    a, b, _ = _couplings(args, n, formula.m, "sampling")
    orep = orthant_mass(formula, a, b, grid(b))
    sections["orthant"] = orep
    checks += orep["checks"]
    return {
        "formula": {"n": n, "m": formula.m},
        "prescription": presc,
        "sections": sections,
        "checks": checks,
        "all_hold": all(c.holds for c in checks),
    }


def cmd_verify(args):
    _pair(args, "alpha", "beta")  # refused before any suite runs
    suites = ["polybasis", "bounds", "hardness"] if args.suite == "all" else [args.suite]
    run = {"polybasis": _suite_polybasis, "bounds": _suite_bounds, "hardness": _suite_hardness}
    report: dict = {"suites": {name: run[name](args) for name in suites}}
    report["all_hold"] = all(s["all_hold"] for s in report["suites"].values())
    return {}, report, EXIT_OK if report["all_hold"] else NumericalError.exit_code


def cmd_study(args):
    theta_star = load_param(args.theta_file)
    Ns = [int(t) for t in args.Ns.split(",")]
    estimators = ["SM", "MLE"] if args.estimator == "both" else [args.estimator.upper()]
    notes = []
    if args.trials == 1:
        notes.append("slope from a single trial per N; the confidence interval is wide")
    if len(Ns) < 2:
        notes.append("a rate slope needs at least two sample sizes")
    studies = [convergence_study(theta_star, Ns, args.trials, estimator=name, seed=args.seed)
               for name in estimators]
    if args.format == "csv":
        _write(args.out, study_csv(*studies))
        return None
    results = {
        res.estimator: {
            "slope": res.slope,
            "medians": {str(k): v for k, v in res.medians.items()},
            "Ns": list(res.Ns),
            "trials": res.trials,
        }
        for res in studies
    }
    resolved = {"Ns": Ns, "family": {"n": theta_star.n, "d": theta_star.d, "B": theta_star.B}}
    return resolved, {"estimators": results, "notes": notes}, EXIT_OK


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once per process; every :func:`main` call reuses it.

    Reuse is safe because the tree reads nothing that changes at run time,
    and ``parse_args`` fills a fresh namespace on every call and leaves no
    state on the parser.  Building it costs about 1 ms against tens of
    microseconds for a parse, so callers that run :func:`main` many times in
    one process (tests, benchmarks, scripts) pay it once; a cold ``polyscore``
    process builds it once either way.  The tree names no command function:
    :func:`main` looks up ``cmd_<command>`` in this module at call time.
    """
    parser = argparse.ArgumentParser(
        prog="polyscore",
        description="Estimation and verification for exponential families of polynomial type.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", help="list the monomial sufficient statistics")
    _family_flags(p, need_B=False)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("fit", help="fit a family member to a samples file")
    p.add_argument("--estimator", choices=["sm", "mle"], required=True)
    p.add_argument("--samples", type=str, required=True)
    _family_flags(p)
    _grid_flags(p)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("encode", help="compile a DIMACS 3-CNF into a family member")
    p.add_argument("--cnf", type=str, required=True)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--mode", choices=["zeroth", "first", "sampling"], default=None)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=["polybasis", "bounds", "hardness", "all"], required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--B", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cnf", type=str, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--scale", type=float, default=DEFAULT_HARDNESS_SCALE)
    p.add_argument("--corrupt", type=str, default=None)
    _grid_flags(p)
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("study", help="convergence-rate study against sample size")
    p.add_argument("--estimator", choices=["sm", "mle", "both"], default="both")
    p.add_argument("--theta-file", type=str, required=True)
    p.add_argument("--Ns", type=str, required=True, help="comma list, strictly increasing")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", type=str, default=None)

    return parser


def _exit_code(e: Exception) -> int:
    """The documented exit code of a failure a command let through."""
    if isinstance(e, PolyscoreError):
        return e.exit_code
    if isinstance(e, OSError):
        return InputError.exit_code
    if isinstance(e, np.linalg.LinAlgError):
        return NumericalError.exit_code
    return UsageError.exit_code


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        t0 = time.perf_counter()
        ran = globals()[f"cmd_{args.command}"](args)
        if ran is None:
            return EXIT_OK
        resolved, report, code = ran
        flags = {k: v for k, v in vars(args).items() if k != "out"}
        _emit(args.out, {**flags, **resolved}, report, t0)
        return code
    except SystemExit as e:
        # argparse has written its own message; --help exits 0
        return EXIT_OK if e.code == 0 else UsageError.exit_code
    except (PolyscoreError, OSError, ValueError) as e:
        sys.stderr.write(f"error: {e}\n")
        return _exit_code(e)


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
