"""Command line interface for the benchmark harness.

Subcommands::

    tkmeans run    --algo NAME --data PATH | --gen blobs:... --k K [--seed S ...]
    tkmeans bench  --config FILE [--format csv|md|json] [--out PATH]
    tkmeans robust --data ... --fractions 0,0.05,0.1 --algos kmeans,tkmeans ...

A flag of ``run`` or ``robust`` stores into the ``RunSpec`` field (or
``run_robustness`` parameter) of its name, except ``--algo`` (into
``algorithm``), ``--gen`` (``data``) and ``--labels`` (``label_path``);
a flag left out keeps the default written there.

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 numerical
failure in at least one cell.  No environment variables are consulted.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields

from .errors import DomainError, FormatError, NumericalError, UsageError
from .harness import ALGORITHMS, RunSpec, load_config, run_bench, run_once, run_robustness

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; route through UsageError instead
    def error(self, message):
        raise UsageError(message)


def _add_data_arguments(sub):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--data", help="dataset path (.csv or whitespace-delimited text)")
    group.add_argument("--gen", dest="data", metavar="GEN",
                       help="generator spec, e.g. blobs:k=15,n=300,p=2,std=0.6,seed=7")
    sub.add_argument("--labels", dest="label_path", metavar="LABELS",
                     help="separate partition file for text datasets")
    sub.add_argument("--label-column", help="CSV label column index or 'last'")
    sub.add_argument("--standardize", action="store_true", help="standardize columns before fitting")


def _add_fit_arguments(sub):
    sub.add_argument("--max-iter", type=int)
    sub.add_argument("--tol", type=float)
    sub.add_argument("--nu", type=float, help="fix the degrees of freedom")
    sub.add_argument("--init", choices=["random", "kmeanspp"])
    sub.add_argument("--ridge", type=float, help="covariance ridge for gmm/tmm")
    sub.add_argument("--fast-alpha", type=float, help="d^2 guard of the fast variant")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tkmeans", description="Clustering benchmark harness")
    subs = parser.add_subparsers(dest="command", required=True)
    # run and robust leave out every flag not given, so the RunSpec defaults hold
    unset = argparse.SUPPRESS

    run_p = subs.add_parser("run", help="single seeded run, JSON to stdout", argument_default=unset)
    run_p.add_argument("--algo", dest="algorithm", metavar="ALGO", required=True,
                       help=f"one of: {', '.join(ALGORITHMS)}")
    _add_data_arguments(run_p)
    run_p.add_argument("--k", type=int, required=True)
    run_p.add_argument("--seed", type=int, default=0)
    _add_fit_arguments(run_p)

    bench_p = subs.add_parser("bench", help="run every spec of a config file")
    bench_p.add_argument("--config", required=True, help="INI file of run specs")
    bench_p.add_argument("--format", choices=["csv", "md", "json"], default="md")
    bench_p.add_argument("--out", help="output path (stdout when omitted)")

    robust_p = subs.add_parser("robust", help="contamination sweep", argument_default=unset)
    robust_p.add_argument("--algos", required=True, help="comma-separated algorithm names")
    _add_data_arguments(robust_p)
    robust_p.add_argument("--fractions", required=True, help="comma-separated outlier fractions")
    robust_p.add_argument("--repeats", type=int)
    robust_p.add_argument("--base-seed", type=int)
    robust_p.add_argument("--k", type=int, help="clusters (default: ground-truth classes)")
    robust_p.add_argument("--box-expansion", type=float)
    robust_p.add_argument("--format", choices=["csv", "md", "json"], default="md")
    robust_p.add_argument("--out", default=None, help="output path (stdout when omitted)")
    return parser


def _spec_fields(args, *extra) -> dict:
    """The RunSpec fields (and ``extra`` names) that the command line set."""
    names = [f.name for f in fields(RunSpec)] + list(extra)
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_run(args) -> int:
    spec = RunSpec(**_spec_fields(args))
    result, report = run_once(spec, args.seed)
    payload = {
        "algorithm": spec.algorithm,
        "data": spec.data,
        "k": spec.k,
        "seed": args.seed,
        "metrics": asdict(report),
        "iterations": result.iterations,
        "wall_time_sec": result.wall_time,
        "loss_trace": [float(v) for v in result.loss_trace],
        "centers": [[float(v) for v in row] for row in result.centers],
        "labels": [int(v) for v in result.labels],
    }
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def _cmd_bench(args) -> int:
    report = run_bench(load_config(args.config))
    _emit(report.render(args.format), args.out)
    return EXIT_NUMERICAL if report.failed else EXIT_OK


def _cmd_robust(args) -> int:
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    try:
        fractions = [float(f) for f in args.fractions.split(",") if f.strip()]
    except ValueError:
        raise UsageError(f"bad --fractions value {args.fractions!r}") from None
    if not algos or not fractions:
        raise UsageError("--algos and --fractions must be non-empty")
    report = run_robustness(fractions=fractions, algorithms=algos, **_spec_fields(args, "box_expansion"))
    _emit(report.render(args.format), args.out)
    return EXIT_NUMERICAL if report.failed else EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "bench":
            return _cmd_bench(args)
        return _cmd_robust(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FormatError, DomainError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
