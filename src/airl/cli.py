"""Command-line entry point.

    airl pretrain -c config.txt
    airl eval linear --ckpt run/ckpt_final.airl --data classes=8 --out m.csv
    airl surgery rescale --input a.airl --anchor b.airl --output out.airl
    airl analyze cka --a a.airl --b b.airl [--probe data-spec] [--out f.csv]
    airl analyze norms --input a.airl [--out f.csv]
    airl reproduce <study>

The output root defaults to ./airl_runs and can be moved with the AIRL_OUT
environment variable or --out.
"""

from __future__ import annotations

import argparse
import sys

from . import runner
from .errors import AirlError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="airl",
        description="Desk-scale augmentation-invariant SSL laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="run a pretraining config")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("--out", default=None, help="output root directory")

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    eval_sub = p.add_subparsers(dest="eval_command", required=True)
    pl = eval_sub.add_parser("linear", help="linear probe on frozen features")
    pl.add_argument("--ckpt", required=True)
    pl.add_argument("--data", default="",
                    help="data spec, e.g. classes=8,per_class=64,seed=1 "
                         "(defaults to the checkpoint's dataset)")
    pl.add_argument("--out", required=True, help="metrics CSV path")
    pl.add_argument("--seed", type=int, default=0,
                    help="probe seed (picks only the batch order)")

    p = sub.add_parser("surgery", help="checkpoint post-processing")
    surgery_sub = p.add_subparsers(dest="surgery_command", required=True)
    pr = surgery_sub.add_parser("rescale",
                                help="rescale weight norms to an anchor")
    pr.add_argument("--input", required=True)
    group = pr.add_mutually_exclusive_group(required=True)
    group.add_argument("--anchor", help="anchor checkpoint path")
    group.add_argument("--factor", type=float, help="constant scale factor")
    pr.add_argument("--output", required=True)
    pr.add_argument("--refresh-stats", action="store_true",
                    help="re-estimate BN running statistics afterwards")

    p = sub.add_parser("analyze", help="representation diagnostics")
    an_sub = p.add_subparsers(dest="analyze_command", required=True)
    pc = an_sub.add_parser("cka", help="stagewise CKA between two checkpoints")
    pc.add_argument("--a", required=True)
    pc.add_argument("--b", required=True)
    pc.add_argument("--probe", default="", help="data spec for the probe batch")
    pc.add_argument("--out", default=None)
    pn = an_sub.add_parser("norms", help="weight norms of a checkpoint")
    pn.add_argument("--input", required=True)
    pn.add_argument("--out", default=None)

    p = sub.add_parser("reproduce", help="run a pre-canned study")
    p.add_argument("study", help=f"one of: {', '.join(runner.STUDIES)}")
    p.add_argument("--out", default=None, help="output root directory")

    return parser


def _dispatch(args) -> int:
    if args.command == "pretrain":
        result = runner.cmd_pretrain(args.config, args.out)
        print(f"final checkpoint: {result.checkpoint_path}")
        print(f"metrics: {result.metrics_path}")
    elif args.command == "eval":
        acc = runner.cmd_eval_linear(args.ckpt, args.data, args.out, args.seed)
        print(f"top1 = {acc:.4f}")
    elif args.command == "surgery":
        report = runner.cmd_surgery_rescale(
            args.input, args.output, anchor_path=args.anchor,
            factor=args.factor, refresh_stats=args.refresh_stats,
        )
        print(report.summary())
        print(f"wrote {args.output}")
    elif args.command == "analyze":
        if args.analyze_command == "cka":
            rows = runner.cmd_analyze_cka(args.a, args.b, args.probe, args.out)
            for stage, value in rows:
                print(f"{stage}: {value:.6f}")
        else:
            rows = runner.cmd_analyze_norms(args.input, args.out)
            for name, value in rows:
                print(f"{name}: {value:.6g}")
    elif args.command == "reproduce":
        rows, table = runner.run_study(args.study, args.out)
        print(runner.format_table(rows))
        print(f"table: {table}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (AirlError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
