"""Command-line interface: validate, run, variance, prune, report.

Batch-and-file workflow: point a verb at input files, collect output files.
Exit codes: 0 success, 2 usage, 3 validation error, 4 partial batch failure,
5 I/O error, 1 anything else. Output files are written atomically
(temp-then-rename), so rerunning over a previous output directory is safe.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from .config import load_data_dir, parse_config_file
from .errors import BagkitError, ConfigError, DataError
from .experiment import (
    DEFAULT_HYPER,
    MemberSpec,
    _expect_fits,
    run_config,
    sampling_manifest,
    variance_analysis,
    write_report,
    write_variance_report,
)
from .ioutil import atomic_write_text, open_text
from .predictor import FeatureSpec, _expected_shapes, load_model, param_count, save_model
from .prune import PruneSpec, prune_magnitude, sparsity
from .resample import plan_to_manifest

EXIT_OK = 0
EXIT_OTHER = 1
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_PARTIAL = 4
EXIT_IO = 5

RESULTS_NAME = "results.csv"
MANIFEST_NAME = "run_manifest.json"


def cmd_validate(args) -> int:
    configs = parse_config_file(args.config)
    for config in configs:
        # Parameter count as if every task were binary.
        est = sum(
            sum(_expected_shapes(m.feature_spec, m.effective_hidden(), 2).values())
            for m in config.members
        )
        print(
            f"{config.config_id}: type={config.config_type} "
            f"members={len(config.members)} est_params={est}"
        )
    print(f"{len(configs)} configuration(s) valid")
    return EXIT_OK


def cmd_run(args) -> int:
    configs = parse_config_file(args.config)
    if args.seed is not None:
        configs = tuple(replace(c, base_seed=args.seed) for c in configs)

    all_tasks = sorted({t for c in configs for t in c.tasks})
    data = {}
    task_errors = {}
    for task in all_tasks:
        try:
            data.update(load_data_dir(args.data, [task]))
        except (DataError, ConfigError) as exc:
            task_errors[task] = str(exc)

    # Configurations run one at a time, in file order. Threads do not pay
    # here: the work is many small numpy calls that contend for the GIL.
    _expect_fits(configs, data)
    results = []
    failures = []
    for config in configs:
        bad = [t for t in config.tasks if t in task_errors]
        try:
            if bad:
                raise ConfigError(f"config {config.config_id!r}: unavailable tasks {bad}")
            results.append(run_config(config, data))
        except BagkitError as exc:
            failures.append((config.config_id, str(exc)))

    out_dir = Path(args.out)
    if results:
        write_report(results, out_dir / RESULTS_NAME)
        succeeded = {r.config_id for r in results}
        manifest = sampling_manifest([c for c in configs if c.config_id in succeeded], data)
        atomic_write_text(out_dir / MANIFEST_NAME, json.dumps(manifest, indent=2) + "\n")
        print(f"wrote {out_dir / RESULTS_NAME} ({len(results)} row(s))")
        _print_top(results, args.top)

    for config_id, message in failures:
        print(f"FAILED {config_id}: {message}", file=sys.stderr)
    if failures:
        print(f"{len(failures)} of {len(configs)} configuration(s) failed", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def _print_top(results, top: int) -> None:
    ranked = sorted(results, key=lambda r: (-r.avg_accuracy, r.config_id))[:top]
    print(f"top {len(ranked)} by average accuracy:")
    for r in ranked:
        print(
            f"  {r.avg_accuracy:.4f}  {r.config_id}  [{r.experiment_type}]  "
            f"params={r.total_params}"
        )


@contextmanager
def _flag(name: str):
    """A value that a spec's own check rejects is a ConfigError naming the flag."""
    try:
        yield
    except BagkitError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def cmd_variance(args) -> int:
    with _flag("--dims"):
        feature_spec = FeatureSpec(dims=args.dims)
    with _flag("--prune"):
        member = MemberSpec(args.model, feature_spec, prune_fraction=args.prune, bagged=True)
    if args.hidden is not None:
        with _flag("--hidden"):
            if args.model != "mlp":
                raise ConfigError(f"applies to --model mlp only, got --model {args.model}")
            hyper = replace(DEFAULT_HYPER["mlp"], hidden_size=args.hidden)
            member = replace(member, hyper_override=hyper)
    task_data = load_data_dir(args.data, [args.task])[args.task]

    report = variance_analysis(
        task_data, member, args.n, args.m, args.seed, task_name=args.task
    )
    out_dir = Path(args.out)
    csv_path = out_dir / f"variance_{args.task}.csv"
    write_variance_report(report, csv_path)
    plan = task_data._plan(args.n, args.m, args.seed)
    atomic_write_text(out_dir / f"plan_{args.task}.json", plan_to_manifest(plan))
    print(f"wrote {csv_path}")
    print(
        f"{args.task} {report.model} n={report.n} m={report.m} metric={report.metric}: "
        f"single {report.single_mean:.4f}±{report.single_std:.4f} vs "
        f"ensemble {report.ensemble_mean:.4f}±{report.ensemble_std:.4f}"
    )
    return EXIT_OK


def cmd_prune(args) -> int:
    with _flag("--fraction"):
        spec = PruneSpec(args.fraction)
    pruned = prune_magnitude(load_model(args.model), spec)
    save_model(pruned, args.out)
    print(
        f"wrote {args.out}: params={param_count(pruned)} "
        f"sparsity={sparsity(pruned):.4f}"
    )
    return EXIT_OK


def cmd_report(args) -> int:
    with open_text(args.results, "results file") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DataError(f"results file is empty: {args.results}")
    for line in lines[: args.top + 1]:
        print(line)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bagkit",
        description="Bagging experiments: bootstrap training, pruning, soft-vote ensembles.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("validate", help="check a batch config file")
    p.add_argument("--config", required=True, help="batch config JSON file")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("run", help="run every configuration in a batch")
    p.add_argument("--config", required=True, help="batch config JSON file")
    p.add_argument("--data", required=True, help="data directory of task subdirectories")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override every config's base_seed")
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="cap on configurations run at once (>= 1); they run one at a time",
    )
    p.add_argument("--top", type=int, default=15, help="result rows to print")
    p.set_defaults(handler=cmd_run)

    p = sub.add_parser("variance", help="single vs ensemble spread on one task")
    p.add_argument("--task", required=True)
    p.add_argument("--data", required=True, help="data directory of task subdirectories")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--model", choices=["logreg", "mlp"], default="logreg")
    p.add_argument("--dims", type=int, default=1024, help="hashed feature space size")
    p.add_argument(
        "--hidden",
        type=int,
        default=None,
        help=f"MLP hidden size, --model mlp only (default {DEFAULT_HYPER['mlp'].hidden_size})",
    )
    p.add_argument("--prune", type=float, default=0.0, help="member prune fraction")
    p.add_argument("--n", type=int, required=True, help="first-level sample count (>= 2)")
    p.add_argument("--m", type=int, required=True, help="members per ensemble (>= 1)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_variance)

    p = sub.add_parser("prune", help="magnitude-prune a saved model file")
    p.add_argument("--model", required=True, help="input model .npz")
    p.add_argument("--out", required=True, help="output model .npz")
    p.add_argument("--fraction", type=float, required=True)
    p.set_defaults(handler=cmd_prune)

    p = sub.add_parser("report", help="print the top rows of a results CSV")
    p.add_argument("--results", required=True, help="results CSV from a run")
    p.add_argument("--top", type=int, default=15)
    p.set_defaults(handler=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verb == "run" and args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.verb in ("run", "report") and args.top < 0:
        parser.error(f"--top must be >= 0, got {args.top}")
    if args.verb in ("run", "variance") and args.seed is not None and not 0 <= args.seed < 2**64:
        parser.error(f"--seed must be in [0, 2**64), got {args.seed}")
    if args.verb == "variance":
        if args.n < 2:
            parser.error(f"--n must be >= 2, got {args.n}")
        if args.m < 1:
            parser.error(f"--m must be >= 1, got {args.m}")
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except BagkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OTHER


if __name__ == "__main__":
    raise SystemExit(main())
