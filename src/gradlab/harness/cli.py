"""Command line interface.

Exit codes: 0 success, 2 configuration/parameter/regime errors,
3 solver nonconvergence, 4 a checked ledger row failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from ..errors import GradlabError, NonconvergenceError
from ..model.exponents import build_exponent_table
from ..model.families import check_structure_conditions
from ..model.sources import sample_source
from .config import _LEDGER_NAMES, load_config
from .runner import (
    _SWEEP_AXES,
    _sweep_variants,
    emit_report,
    exponent_table,
    run_experiment,
    sweep,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGENCE = 3
EXIT_LEDGER = 4


def _cmd_exponents(args) -> int:
    table = build_exponent_table(
        args.N,
        args.p,
        args.gamma,
        args.q,
        lam=args.lam,
        beta=args.beta,
        sobolev_dim=args.sobolev_dim,
    )
    data = table.to_dict()
    if args.json:
        print(json.dumps(data, indent=1, sort_keys=True))
    else:
        for key, value in data.items():
            print(f"{key}: {value}")
    return EXIT_OK


def _cmd_check(args) -> int:
    config = load_config(args.config)
    problem = config.build_problem()
    sample_source(problem.source, config.build_grid())
    # every point a sweep would solve; k_levels also serve thm2 and the scan
    for axis, (field, _) in _SWEEP_AXES.items():
        if axis != "k" and getattr(config, field):
            _sweep_variants(config, axis)
    structure = check_structure_conditions(problem.coefficient)
    ham = problem.hamiltonian
    print(f"config digest: {config.digest()}")
    # the closed-form constants the ledgers read
    print(f"structure: ratio={structure.ratio:.6g} "
          f"margin={structure.ellipticity_margin:.6g}")
    print(f"growth: lower={ham.lower_growth_constant:.6g} "
          f"gradient={ham.gradient_growth_constant:.6g}")
    table = exponent_table(config)
    print(f"regime: {table.regime} (tags: {', '.join(table.tags)})")
    return EXIT_OK


def _cmd_solve(args) -> int:
    config = load_config(args.config)
    result = run_experiment(config, out_dir=args.out)
    solve_block = result.payload["solve"]
    print(f"converged: {solve_block['converged']} "
          f"iterations: {solve_block['total_iterations']} "
          f"residual: {solve_block['residual_norm']:.3e}")
    for key, value in result.payload["norms"].items():
        print(f"{key}: {value:.12g}")
    if result.path is not None:
        print(f"record: {result.path}{'' if result.fresh else ' (cached)'}")
    return EXIT_OK


def _cmd_bernstein(args) -> int:
    config = load_config(args.config)
    if not config.ledgers:
        config = dataclasses.replace(config, ledgers=_LEDGER_NAMES)
    result = run_experiment(config, out_dir=args.out)
    failed = []
    for name, block in result.payload["ledgers"].items():
        if "skipped" in block:
            print(f"{name}: skipped ({block['skipped']})")
            continue
        if name == "weak":
            print(f"weak_identity: gap={block['constants']['relative_gap']:.3e} "
                  f"passed={block['passed']}")
            if not block["passed"]:
                failed.append("weak_identity")
            continue
        if name == "scan":
            print(f"scan: small_branch_ok={block['small_branch_ok']} "
                  f"c_fit={block['c_fit']:.6g}")
            continue
        if name == "maxreg":
            print(f"maxreg: value={block['value']:.6g} "
                  f"agreement={block['relative_agreement']:.3e} (q={block['q']})")
            continue
        for row in block["rows"]:
            print(f"{name}.{row['lemma']}: slack={row['slack']:+.6e} "
                  f"tol={row['tol']:.3e} passed={row['passed']}")
            if not row["passed"]:
                failed.append(f"{name}.{row['lemma']}")
    if result.path is not None:
        print(f"record: {result.path}{'' if result.fresh else ' (cached)'}")
    if failed:
        print(f"FAILED rows: {', '.join(failed)}", file=sys.stderr)
        return EXIT_LEDGER
    return EXIT_OK


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    results = sweep(config, args.axis, out_dir=args.out)
    for result in results:
        meta = result.meta
        norms = result.payload["norms"]
        print(f"{args.axis}={meta['sweep_value']}: "
              f"du_qgamma={norms['du_qgamma']:.9g}"
              + (f" record={result.path.name}" if result.path else ""))
    return EXIT_OK


def _cmd_report(args) -> int:
    written = emit_report(args.records, out_dir=args.out, formats=tuple(args.formats))
    for name, path in written.items():
        print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradlab",
        description="Solve the regularized quasilinear Neumann problem and "
        "check the gradient-estimate ledgers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("exponents", help="print the exponent table")
    p_exp.add_argument("-N", type=int, required=True, help="space dimension")
    p_exp.add_argument("-p", required=True, help="diffusion exponent (fraction ok)")
    p_exp.add_argument("--gamma", required=True, help="growth exponent (fraction ok)")
    p_exp.add_argument("-q", required=True, help="source integrability (fraction ok)")
    p_exp.add_argument("--lam", default="1", help="zero-order coefficient")
    p_exp.add_argument("--beta", default=None, help="test power for the classical block")
    p_exp.add_argument("--sobolev-dim", type=int, default=None)
    p_exp.add_argument("--json", action="store_true")
    p_exp.set_defaults(func=_cmd_exponents)

    p_check = sub.add_parser("check", help="validate a config without solving")
    p_check.add_argument("config")
    p_check.set_defaults(func=_cmd_check)

    p_solve = sub.add_parser("solve", help="solve a config and report norms")
    p_solve.add_argument("config")
    p_solve.add_argument("--out", default=None, help="record directory")
    p_solve.set_defaults(func=_cmd_solve)

    p_bern = sub.add_parser("bernstein", help="solve and evaluate the ledgers")
    p_bern.add_argument("config")
    p_bern.add_argument("--out", default=None, help="record directory")
    p_bern.set_defaults(func=_cmd_bernstein)

    p_sweep = sub.add_parser("sweep", help="run a one-axis parameter sweep")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--axis", required=True,
                         choices=list(_SWEEP_AXES))
    p_sweep.add_argument("--out", default=None, help="record directory")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_rep = sub.add_parser("report", help="aggregate records into report files")
    p_rep.add_argument("records", help="directory holding run records")
    p_rep.add_argument("--out", default=None)
    p_rep.add_argument("--formats", nargs="+", default=["csv", "json"],
                       choices=["csv", "json"])
    p_rep.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NonconvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except GradlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
