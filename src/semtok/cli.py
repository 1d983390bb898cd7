"""Command-line entry point: data generation, two-stage training,
evaluation, ablations, and metrics over results files."""

from __future__ import annotations

import argparse
from pathlib import Path

from . import baselines as B
from . import train as TR
from .data import generate_dataset, load_dataset, split_item
from .metrics import avg_inference_time, prt_rounded, read_results


def _add_common(parser):
    parser.add_argument("--config", default="", help="key=value file mirroring RunConfig fields")
    parser.add_argument("--seed", type=int, default=None, help="run seed")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE", help="override one config field")


def _load_cfg(args):
    overrides = [split_item(item, "--set") for item in args.set]
    if args.seed is not None:
        overrides.append(("seed", str(args.seed)))
    if args.out is not None:
        overrides.append(("out_dir", args.out))
    return TR.RunConfig.from_file(args.config, overrides)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="semtok", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic scene dataset")
    _add_common(p)
    p.add_argument("--count", type=int, default=None, help="number of scenes (default: train_count)")

    p = sub.add_parser("train", help="run one training stage")
    _add_common(p)
    p.add_argument("--stage", type=int, choices=(1, 2), required=True)
    p.add_argument("--data", default=None, help="training dataset directory")
    p.add_argument("--eval-data", default=None, help="held-out dataset directory")
    p.add_argument("--stage1", default=None, help="stage-1 checkpoint directory (stage 2 only)")

    p = sub.add_parser("eval", help="evaluate a stage-2 checkpoint")
    _add_common(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--reducer", choices=B.REDUCER_KINDS, default=None)
    p.add_argument("--tokens", type=int, default=None)
    p.add_argument("--reducer-seed", type=int, default=0)
    p.add_argument("--baseline-score", type=float, default=None)
    p.add_argument("--dataset-name", default="synthetic")

    p = sub.add_parser("ablate", help="run an ablation preset")
    _add_common(p)
    p.add_argument("--preset", choices=("mask_mode", "token_sweep"), required=True)
    p.add_argument("--seeds", type=int, default=None, help="number of seeds")

    p = sub.add_parser("metrics", help="summarize a results file")
    p.add_argument("--results", required=True)

    args = parser.parse_args(argv)

    if args.command == "gen-data":
        cfg = _load_cfg(args)
        count = args.count if args.count is not None else cfg.train_count
        out = Path(cfg.out_dir)
        generate_dataset(cfg.scene_spec(), count, cfg.seed, out)
        print(f"wrote {count} scenes to {out}")
        return 0

    if args.command == "train":
        cfg = _load_cfg(args)
        if args.data:
            cfg = TR.replace(cfg, train_data=args.data)
        if args.eval_data:
            cfg = TR.replace(cfg, eval_data=args.eval_data)
        cfg = TR.replace(cfg, stage=args.stage)
        if args.stage == 1:
            ckpt = TR.train_stage1(cfg)
        else:
            stage1 = args.stage1 or cfg.stage1_dir
            if not stage1:
                parser.error("stage 2 needs --stage1 (or stage1_dir in the config)")
            ckpt = TR.train_stage2(cfg, stage1)
        print(f"checkpoint: {ckpt}")
        return 0

    if args.command == "eval":
        cfg = _load_cfg(args)
        dataset = load_dataset(args.data)
        spec = None
        if args.reducer is not None:
            tokens = args.tokens if args.tokens is not None else cfg.target_tokens
            spec = B.ReducerSpec(args.reducer, tokens, seed=args.reducer_seed)
        record, extras = TR.evaluate(
            args.ckpt,
            dataset,
            reducer_spec=spec,
            out_dir=cfg.out_dir,
            baseline_score=args.baseline_score,
            dataset_name=args.dataset_name,
        )
        print(f"accuracy {record.score:.6f} samples {record.sample_count} modeled_time_s {record.total_time:.6f}")
        if "purity" in extras:
            print(f"purity {extras['purity']:.6f}")
        return 0

    if args.command == "ablate":
        cfg = _load_cfg(args)
        seeds = range(args.seeds) if args.seeds is not None else None
        rows = TR.run_ablation(args.preset, cfg, seeds=seeds)
        for key, mean in sorted(TR.ablation_means(rows).items()):
            reducer, tokens, mode = key
            print(f"{reducer:12s} tokens={tokens:3d} mask={mode:8s} mean_accuracy={mean:.4f}")
        return 0

    if args.command == "metrics":
        records = read_results(args.results)
        print(f"records {len(records)}")
        print(f"avg_inference_time_s {avg_inference_time(records):.6f}")
        try:
            print(f"prt_percent {prt_rounded(records):.1f}")
        except ValueError as err:
            print(f"prt_percent unavailable ({err})")
        return 0

    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
