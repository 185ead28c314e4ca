"""Command-line experiment runner.

Subcommands:
    run <config-or-preset>            execute one spec, write CSV trace + summary
    sweep <config-or-preset> --eta .. fan the spec out over step sizes
    check                             run the acceptance criteria, one line each
    list-presets                      show the canned experiment specs

Exit codes: 0 ok, 1 criterion/evaluation failure, 2 usage or config error.
GDSCOPE_OUTDIR sets the default output directory.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import experiments as X
from .errors import ConfigError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _print_summary(summary: X.RunSummary) -> None:
    regime = f" regime={summary.regime}" if summary.regime else ""
    print(
        f"{summary.name}: eta={summary.eta:.6g} outcome={summary.label}{regime} "
        f"final_loss={summary.final_loss:.6g} iters={summary.iterations} "
        f"runtime={summary.runtime_s}s -> {summary.csv_path}"
    )
    if summary.regime_reason:
        print(f"  ({summary.regime_reason})")


def _cmd_run(args) -> int:
    spec = X.resolve_spec(args.spec)
    if len(spec.etas) > 1:
        summaries = X.sweep_spec(spec, spec.etas, args.outdir)
    else:
        summaries = [X.run_spec(spec, args.outdir)]
    for s in summaries:
        _print_summary(s)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    spec = X.resolve_spec(args.spec)
    etas = [X.parse_number(e, where="--eta") for e in args.eta or []]
    if not etas:
        raise ConfigError("sweep needs at least one --eta value")
    summaries = X.sweep_spec(spec, etas, args.outdir)
    print(f"{'eta':>12}  {'outcome':>20}  {'regime':>10}  {'final_loss':>12}")
    for s in summaries:
        print(f"{s.eta:>12.6g}  {s.label:>20}  {s.regime or '-':>10}  {s.final_loss:>12.6g}")
    return EXIT_OK


def _cmd_check(args) -> int:
    from . import acceptance

    results = acceptance.check_all()
    failures = 0
    for r in results:
        print(r.report_line())
        failures += not r.passed
    print(f"{len(results) - failures}/{len(results)} criteria passed")
    return EXIT_OK if failures == 0 else EXIT_FAIL


def _cmd_list_presets(_args) -> int:
    for name in X.preset_names():
        spec = X.load_preset(name)
        kind = spec.cost.get("kind", "?")
        print(f"{name:<24} {spec.algorithm:<4} {kind:<20} eta={', '.join(f'{e:.6g}' for e in spec.etas)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gdscope",
        description="Run instrumented (S)GD experiments and the package self-checks.",
    )
    default_outdir = os.environ.get("GDSCOPE_OUTDIR", ".")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a config file or preset by name")
    p_run.add_argument("spec", help="path to a config file, or a preset name")
    p_run.add_argument("--outdir", default=default_outdir)
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a spec across a list of step sizes")
    p_sweep.add_argument("spec")
    p_sweep.add_argument("--eta", nargs="+", help="step sizes; fractions like 2/39 accepted")
    p_sweep.add_argument("--outdir", default=default_outdir)
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_check = sub.add_parser("check", help="run every acceptance criterion")
    p_check.set_defaults(fn=_cmd_check)

    p_list = sub.add_parser("list-presets", help="list the canned experiment specs")
    p_list.set_defaults(fn=_cmd_list_presets)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # evaluation failures
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
