"""Command-line entry point: ``run`` an experiment from a config file,
``eval`` a checkpoint against a dataset CSV, ``gen`` a config's domain pair as CSV."""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import load_config
from .data import load_labeled_csv, save_csv
from .harness import (classwise_accuracy, exit_status, load_dataset_pair,
                      run_experiment)
from .models import accuracy, ensemble_predict, load_checkpoint, predict_labels


def _parse_seeds(spec: str) -> range | list[int]:
    """'1..5' or '0,3,7' -> the seeds (a range is left unbuilt); ``ValueError``
    unless it names at least one seed, every seed is non-negative and none
    repeats (each seed runs into its own ``seed_<n>`` directory)."""
    if ".." in spec:
        lo, hi = spec.split("..", 1)
        seeds = range(int(lo), int(hi) + 1)  # repeats no seed
        bad = not seeds or seeds[0] < 0
    else:
        seeds = [int(s) for s in spec.split(",") if s]
        bad = not seeds or min(seeds) < 0 or len(set(seeds)) < len(seeds)
    if bad:
        raise ValueError(f"no seeds, a negative seed or a repeated seed in {spec!r}")
    return seeds


def _cmd_run(args) -> int:
    if args.seeds is None:
        return run_experiment(args.config, args.out_dir)
    try:
        seeds = _parse_seeds(args.seeds)
    except ValueError:
        print(f"error: bad --seeds spec {args.seeds!r}", file=sys.stderr)
        return 2
    # every seed runs, each with run_experiment's exit-status mapping; the
    # sweep exits with the worst status
    return max(run_experiment(args.config, Path(args.out_dir) / f"seed_{seed}", seed)
               for seed in seeds)


def _eval_error(args, model, second, ds) -> str | None:
    """Why the checkpoints cannot score the dataset, naming the files."""
    for path, m in ((args.checkpoint, model), (args.ensemble_with, second)):
        if m is not None and m.input_dim != ds.dim:
            return (f"{path} takes {m.input_dim}-dim inputs, "
                    f"{args.dataset} has dim {ds.dim}")
    if second is not None and second.num_classes != model.num_classes:
        return (f"{args.checkpoint} has {model.num_classes} classes, "
                f"{args.ensemble_with} has {second.num_classes}")
    if model.num_classes != ds.num_classes:
        return (f"{args.checkpoint} has {model.num_classes} classes, "
                f"{args.dataset} has {ds.num_classes}")
    return None


def _cmd_eval(args) -> int:
    try:
        model = load_checkpoint(args.checkpoint)
        second = load_checkpoint(args.ensemble_with) if args.ensemble_with else None
        ds = load_labeled_csv(args.dataset, "evaluation")
    except ValueError as exc:  # each loader's error names its file
        print(f"error: {exc}", file=sys.stderr)
        return 2
    problem = _eval_error(args, model, second, ds)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    truth = ds.eval_labels()
    if second is not None:
        pred = ensemble_predict(model, second, ds.features)
        what = "ensemble"
    else:
        pred = predict_labels(model, ds.features)
        what = "model"
    acc = accuracy(pred, truth)
    print(f"{what} accuracy: {acc:.4f} on {ds.n} samples")
    for c, a in enumerate(classwise_accuracy(pred, truth, ds.num_classes)):
        print(f"  class {c}: " + ("undefined" if a is None else f"{a:.4f}"))
    return 0


def _target_path(out: Path) -> Path:
    return out.with_name(out.stem + "_target" + (out.suffix or ".csv"))


def _cmd_gen(args) -> int:
    def gen() -> int:
        # the pair a run of the config trains on, checked as the run checks it
        source, target = load_dataset_pair(load_config(args.config))
        out = Path(args.out)
        tgt_path = _target_path(out)
        out.parent.mkdir(parents=True, exist_ok=True)
        save_csv(source, out)
        # ground truth stays in the file; training loads quarantine it
        save_csv(target, tgt_path, with_eval_labels=True)
        print(f"wrote {out} ({source.n} source samples)")
        print(f"wrote {tgt_path} ({target.n} target samples, labels for eval only)")
        return 0
    return exit_status(args.config, gen)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fixbi",
        description="Dual fixed-ratio mixup domain adaptation at desk scale.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("config")
    p_run.add_argument("out_dir")
    p_run.add_argument("--seeds", default=None,
                       help="seed sweep, e.g. '1..5' or '0,3,7'; each seed "
                            "writes to <out_dir>/seed_<s>/")
    p_run.set_defaults(func=_cmd_run)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a dataset CSV")
    p_eval.add_argument("checkpoint")
    p_eval.add_argument("dataset")
    p_eval.add_argument("--ensemble-with", default=None, metavar="CKPT",
                        help="second checkpoint; predict from summed softmax")
    p_eval.set_defaults(func=_cmd_eval)

    p_gen = sub.add_parser("gen", help="write a config's domain pair as CSV")
    p_gen.add_argument("config")
    p_gen.add_argument("--out", required=True,
                       help="source CSV path; the target goes to <stem>_target.csv")
    p_gen.set_defaults(func=_cmd_gen)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
