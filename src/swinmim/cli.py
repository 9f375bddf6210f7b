"""Command-line surface.

Subcommands: pretrain, finetune, eval, mask-sweep, count, augment.
Exit codes: 0 success, 1 runtime failure, 2 usage/config error. Numeric
tables are tab-separated; timestamps appear only in '#' header lines.
"""

import argparse
import copy
import os
import sys
import time

from .augment import expand_dataset
from .config import ConfigError, apply_overrides, config_from_dict, load_config
from .data import CLASS_NAMES, DecodeError, build_index, split_dataset
from .rng import Rng
from .swin import SwinClassifier, count_attention_flops, count_flops, count_params
from .train import (
    CheckpointError,
    evaluate,
    load_checkpoint,
    restore_model_state,
    run_finetune,
    run_pretrain,
)

DEFAULT_SEED = 0


def _common_args(p, data=True, out=True):
    p.add_argument("--config", required=True, help="JSON run configuration")
    if data:
        p.add_argument("--data", required=True, help="dataset root (c0..c9 of .ppm files)")
    if out:
        p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="base seed (default 0)")
    p.add_argument("--override", action="append", default=[], metavar="K=V",
                   help="config override, e.g. mask.mask_ratio=0.4 (repeatable)")


def _load_run_config(args, data=None):
    """The run config of args.config, or of the dict `data` when given, with
    args.override applied; validated."""
    cfg = load_config(args.config) if data is None else config_from_dict(data)
    apply_overrides(cfg, args.override)
    return cfg.validate()


def _load_index(root):
    """The dataset index of root; FileNotFoundError when it holds no image."""
    index = build_index(root)
    if len(index) == 0:
        raise FileNotFoundError(f"no .ppm images under {root}")
    return index


def _print_metrics(metrics):
    print(f"accuracy {metrics.accuracy:.4f}")
    print("class\tname\tprecision\trecall\tf1")
    for c in range(metrics.confusion.shape[0]):
        print(f"c{c}\t{CLASS_NAMES[c]}\t{metrics.precision[c]:.4f}\t{metrics.recall[c]:.4f}"
              f"\t{metrics.f1[c]:.4f}")
    print("confusion")
    print("\t".join(["true\\pred"] + [f"c{c}" for c in range(metrics.confusion.shape[1])]))
    for c, row in enumerate(metrics.confusion):
        print("\t".join([f"c{c}"] + [str(int(v)) for v in row]))


def cmd_pretrain(args):
    cfg = _load_run_config(args)
    index = _load_index(args.data)
    _, ckpt = run_pretrain(cfg, index, args.out, seed=args.seed, resume=args.resume)
    print(f"pretrain done: checkpoint at {ckpt}")
    return 0


def cmd_finetune(args):
    cfg = _load_run_config(args)
    index = _load_index(args.data)
    train_idx, eval_idx = split_dataset(index, cfg.data.train_fraction, args.seed)

    def warm_start(report):
        print(f"warm start from {args.init_from}: " + ", ".join(
            f"{len(report[kind])} {kind}" for kind in ("loaded", "remapped", "fresh")))

    _, metrics, ckpt = run_finetune(
        cfg, train_idx, eval_idx, args.out, seed=args.seed,
        init_checkpoint=args.init_from, resume=args.resume, on_warm_start=warm_start,
    )
    _print_metrics(metrics)
    print(f"finetune done: checkpoint at {ckpt}")
    return 0


def cmd_eval(args):
    meta, tensors = load_checkpoint(args.checkpoint)
    if "run_config" not in meta:
        raise CheckpointError(f"{args.checkpoint}: no run_config in the checkpoint metadata")
    cfg = _load_run_config(args, meta["run_config"])
    model = SwinClassifier(cfg.model, Rng(args.seed).child(0),
                           with_mask_token="mask_token" in tensors)
    restore_model_state(model, tensors)
    del tensors  # restored: the model holds copies
    index = _load_index(args.data)
    metrics = evaluate(model, index, cfg)
    _print_metrics(metrics)
    return 0


def cmd_mask_sweep(args):
    cfg = _load_run_config(args)
    index = _load_index(args.data)
    train_idx, eval_idx = split_dataset(index, cfg.data.train_fraction, args.seed)
    patches = [int(v) for v in args.patch_sizes.split(",")]
    ratios = [float(v) for v in args.ratios.split(",")]
    os.makedirs(args.out, exist_ok=True)
    rows = []
    failures = 0
    for patch in patches:
        for ratio in ratios:
            cell = copy.deepcopy(cfg)
            cell.mask.mask_patch_size = patch
            cell.mask.mask_ratio = ratio
            cell.train.mask_in_finetune = True
            cell_dir = os.path.join(args.out, f"cell_p{patch}_r{ratio:g}")
            start = time.monotonic()
            try:
                cell.validate()
                _, metrics, _ = run_finetune(cell, train_idx, eval_idx, cell_dir,
                                             seed=args.seed)
                acc = metrics.accuracy
            except Exception as e:  # record the failure, keep sweeping
                print(f"# cell patch={patch} ratio={ratio} failed: {e}", file=sys.stderr)
                acc = float("nan")
                failures += 1
            rows.append((patch, ratio, acc, time.monotonic() - start))
    header = "patch_size\tratio\taccuracy\twall_time_s"
    lines = [header] + [f"{p}\t{r!r}\t{a!r}\t{t!r}" for p, r, a, t in rows]
    table = "\n".join(lines)
    print(table)
    with open(os.path.join(args.out, "sweep.tsv"), "w", encoding="utf-8") as f:
        f.write(table + "\n")
    return 1 if failures else 0


def cmd_count(args):
    if args.kind is not None:
        if args.h is None or args.w is None or args.c is None:
            raise ConfigError("--kind requires --h, --w, and --c")
        if args.kind == "wmsa" and args.m is None:
            raise ConfigError("--kind wmsa requires --m")
        print(count_attention_flops(args.kind, args.h, args.w, args.c, args.m))
        return 0
    if args.config is None:
        raise ConfigError("provide --config or --kind")
    cfg = _load_run_config(args)
    model_cfg = cfg.model
    params = count_params(model_cfg)
    flops = count_flops(model_cfg)
    print(f"parameters\t{params}")
    print(f"flops\t{flops}")
    print(f"gflops\t{flops / 1e9:.2f}")
    print("stage\tresolution\tchannels\theads\tblocks\tattention_flops_per_block")
    for s in range(model_cfg.num_stages):
        res = model_cfg.stage_resolution(s)
        dim = model_cfg.stage_dim(s)
        attn = count_attention_flops("wmsa", res, res, dim, model_cfg.window_size)
        print(f"{s + 1}\t{res}x{res}\t{dim}\t{model_cfg.heads[s]}"
              f"\t{model_cfg.depths[s]}\t{attn}")
    return 0


def cmd_augment(args):
    cfg = _load_run_config(args)
    index = _load_index(args.data)
    before = index.class_counts()
    new_index = expand_dataset(index, cfg.augment, Rng(args.seed), args.out)
    after = new_index.class_counts()
    print("class\tbefore\tafter")
    for c, (b, a) in enumerate(zip(before, after)):
        print(f"c{c}\t{b}\t{a}")
    print(f"manifest at {new_index.root}/manifest.tsv")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="swinmim",
        description="Masked-image-modeling pretraining and 10-class driver-behavior "
                    "classification on CPU.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="masked-pixel self-supervised pretraining")
    _common_args(p)
    p.add_argument("--resume", default=None, help="checkpoint to resume from")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="classification fine-tuning")
    _common_args(p)
    p.add_argument("--init-from", default=None,
                   help="pretraining checkpoint to start from; bias tables of another "
                        "window size are resampled bicubically")
    p.add_argument("--resume", default=None, help="checkpoint to resume from")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--override", action="append", default=[], metavar="K=V")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("mask-sweep", help="fine-tune across a masking-strategy grid")
    _common_args(p)
    p.add_argument("--patch-sizes", default="16,32,64")
    p.add_argument("--ratios", default="0.4,0.5,0.6")
    p.set_defaults(func=cmd_mask_sweep)

    p = sub.add_parser("count", help="parameter and FLOP counts")
    p.add_argument("--config", default=None)
    p.add_argument("--override", action="append", default=[], metavar="K=V")
    p.add_argument("--kind", choices=("msa", "wmsa"), default=None,
                   help="count one attention module instead of a whole model")
    p.add_argument("--h", type=int, default=None)
    p.add_argument("--w", type=int, default=None)
    p.add_argument("--c", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("augment", help="offline dataset expansion")
    _common_args(p)
    p.set_defaults(func=cmd_augment)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, FileNotFoundError, DecodeError, CheckpointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (OSError, FloatingPointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:  # numpy's names the allocation that failed
        print("error: out of memory" + (f": {e}" if str(e) else ""), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
