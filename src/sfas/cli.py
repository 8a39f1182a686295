"""Command-line front end: single-shot, campaign, crb and validate verbs."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .harness import (
    _MAX_TRIALS,
    Campaign,
    ScenarioFileError,
    load_file,
    run_campaign,
    run_single_shot,
    validate_scenario,
    write_crb_csv,
)


def _load(args) -> Campaign:
    """The file's campaign, or its scenario as a one-trial campaign, with
    `--seed` applied on the verbs that take it."""
    scenario, settings, campaign = load_file(args.file)
    if campaign is None:
        campaign = Campaign(scenario=scenario, settings=settings, trials=1)
    seed = getattr(args, "seed", None)
    if seed is None:
        return campaign
    return replace(campaign, scenario=replace(campaign.scenario, seed=seed))


def _cmd_single_shot(args) -> int:
    campaign = _load(args)
    bundle = run_single_shot(campaign.scenario, campaign.settings, out_dir=args.out)
    if bundle.estimate is not None:
        print("source  coarse[deg]  range_init[wl]  refined[deg]  range[wl]  flags")
        for i, src in enumerate(bundle.estimate.sources, start=1):
            flags = []
            if src.range_flat:
                flags.append("flat-range")
            if src.boundary_hit:
                flags.append("window-edge")
            print(
                f"{i:6d}  {src.coarse_angle_deg:11.3f}  {src.initial_range:14.2f}"
                f"  {src.refined_angle_deg:12.4f}  {src.refined_range:9.3f}"
                f"  {','.join(flags) or '-'}"
            )
    for err in bundle.errors:
        print(f"note: {err}")
    if args.out:
        print(f"artifacts written to {args.out}")
    return 0


def _cmd_campaign(args) -> int:
    campaign = _load(args)
    if args.trials is not None:
        campaign = replace(campaign, trials=args.trials)
    out = args.out or campaign.out_dir
    records = run_campaign(campaign, out_dir=out, threads=args.threads)
    for rec in records:
        acc = (
            f"acc={rec.acc_angle_rmse_pooled:.4g}deg "
            if rec.acc_angle_rmse_pooled is not None
            else ""
        )
        rng = (
            f" range={rec.range_rmse_pooled:.4g}wl"
            if rec.range_rmse_pooled is not None
            else ""
        )
        print(
            f"{campaign.sweep}={rec.sweep_value:g} {rec.estimator}: "
            f"{acc}aar={rec.aar_angle_rmse_pooled:.4g}deg{rng} "
            f"({rec.trials_failed}/{rec.trials_total} failed)"
        )
    if out:
        print(f"artifacts written to {out}")
    return 0


def _cmd_crb(args) -> int:
    path = write_crb_csv(_load(args), args.out)
    print(f"bounds written to {path}")
    return 0


def _cmd_validate(args) -> int:
    campaign = _load(args)
    checks = validate_scenario(campaign.scenario, campaign.settings)
    failed = 0
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}  ({detail})")
        failed += 0 if ok else 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1


def _whole_number(name: str, minimum: int, maximum: int | None = None):
    """argparse type for a whole number >= `minimum` (and <= `maximum`, if
    given); anything else is a usage error (exit 2) that names the option."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"{name} must be a whole number >= {minimum}, got {text!r}"
            )
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"{name} must be <= {maximum}, got {text!r}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfas",
        description="Scalable-aperture two-stage source localization experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    single = sub.add_parser("single-shot", help="run the pipeline once, dump spectra")
    single.add_argument("file", type=Path, help="scenario or campaign YAML file")
    single.add_argument("--out", type=Path, default=None, help="output directory")
    seed_type = _whole_number("seed", 0)
    single.add_argument("--seed", type=seed_type, default=None, help="override the scenario seed")
    single.set_defaults(fn=_cmd_single_shot)

    camp = sub.add_parser("campaign", help="Monte-Carlo RMSE sweep")
    camp.add_argument("file", type=Path)
    camp.add_argument("--out", type=Path, default=None)
    camp.add_argument("--seed", type=seed_type, default=None)
    camp.add_argument(
        "--trials", type=_whole_number("trials", 1, _MAX_TRIALS), default=None,
        help="override trial count",
    )
    camp.add_argument(
        "--threads", type=_whole_number("threads", 1), default=1, help="worker threads"
    )
    camp.set_defaults(fn=_cmd_campaign)

    crb_cmd = sub.add_parser("crb", help="export Cramer-Rao bound curves")
    crb_cmd.add_argument("file", type=Path)
    crb_cmd.add_argument("--out", type=Path, required=True)
    crb_cmd.add_argument("--seed", type=seed_type, default=None)
    crb_cmd.set_defaults(fn=_cmd_crb)

    val = sub.add_parser("validate", help="check a scenario against the invariant suite")
    val.add_argument("file", type=Path)
    val.set_defaults(fn=_cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ScenarioFileError, NotADirectoryError) as exc:
        # The library names a bad output directory `out_dir`; say `--out` if it came from there.
        if isinstance(exc, NotADirectoryError) and getattr(args, "out", None) is not None:
            exc = f"--out {args.out} is not a directory"
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
