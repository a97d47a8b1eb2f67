"""Command-line front end.

Commands: build, train, eval, count, bench, gradcheck, synth. Every command
is deterministic given its flags and seeds (bench timing excepted). Exit
codes: 0 success, 1 verification/runtime failure, 2 usage errors.
"""

import argparse
import json
import sys
import time

import numpy as np

from . import tensor as T
from .accounting import count_flops, count_params
from .data import (config_doc_loads, doc_from_model_config, load_checkpoint,
                   load_dataset, load_model_state, model_config_from_doc,
                   save_checkpoint, save_dataset, synth_dataset)
from .metrics import PROB_THRESHOLD, evaluate
from .model import DOWNSAMPLE_MODES, SKIPS, VARIANTS, ModelConfig, build_model
from .tensor import Tensor
from .training import TrainingDiverged, train_loop
from .verify import THRESHOLD, run_suite


def _int_list(count, what, low=None):
    """argparse type: exactly `count` comma-separated integers, none below
    `low` if it is given."""
    def parse(text):
        try:
            parts = tuple(int(p) for p in text.split(","))
        except ValueError:
            parts = ()
        if len(parts) != count or (low is not None and min(parts) < low):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return parts
    return parse


def _int_at_least(low, what):
    """argparse type: one integer of at least `low`."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"expected {what}, got {value}")
        return value
    return parse


_positive_int = _int_at_least(1, "a positive integer")
_non_negative_int = _int_at_least(0, "a non-negative integer")


def _add_model_flags(p):
    p.add_argument("--variant", choices=tuple(VARIANTS), default=ModelConfig.variant)
    p.add_argument("--size", type=int, default=ModelConfig.input_size,
                   help="input size (divisible by 32)")
    p.add_argument("--classes", type=int, default=ModelConfig.num_classes)
    p.add_argument("--skip-mode", choices=tuple(SKIPS), default=ModelConfig.skip_mode)
    p.add_argument("--downsample-mode", choices=DOWNSAMPLE_MODES,
                   default=ModelConfig.downsample_mode)
    p.add_argument("--kernels", type=_int_list(3, "three comma-separated kernel sizes"),
                   default=ModelConfig.convutr_kernels, help="ConvUtr kernel ladder, e.g. 3,3,7")
    p.add_argument("--literal-eq2", action="store_true",
                   help="attention before pooling in the local-global blocks")


def _config_from_flags(args):
    return ModelConfig(variant=args.variant, input_size=args.size, num_classes=args.classes,
                       skip_mode=args.skip_mode, downsample_mode=args.downsample_mode,
                       convutr_kernels=args.kernels, literal_eq2=args.literal_eq2)


def cmd_build(args):
    cfg = _config_from_flags(args)
    model = build_model(cfg, seed=args.seed)
    doc = doc_from_model_config(cfg, seed=args.seed)
    save_checkpoint(args.out, doc, model.named_state())
    rep = count_params(model)
    print(f"built {cfg.variant} model: {rep.total_params} trainable parameters "
          f"({rep.total_params / 1e6:.3f} M) -> {args.out}")
    return 0


def _load_model(ckpt_path):
    doc, tensors, _ = load_checkpoint(ckpt_path)
    cfg = model_config_from_doc(doc)
    model = build_model(cfg, seed=doc["seed"])
    load_model_state(model, tensors)
    return model


def cmd_train(args):
    with open(args.config) as f:
        doc = config_doc_loads(f.read())
    cfg = model_config_from_doc(doc)
    if args.synth:
        train_set = synth_dataset(*args.synth, cfg.input_size, difficulty=args.difficulty)
    else:
        train_set = load_dataset(args.data)
    if args.val_data:
        val_set = load_dataset(args.val_data)
    else:
        n_val = max(1, len(train_set) // 5)
        train_set, val_set = train_set[:-n_val], train_set[-n_val:]
    model = build_model(cfg, seed=doc["seed"])
    result = train_loop(model, train_set, val_set,
                        epochs=doc["epochs"], batch_size=doc["batch"],
                        schedule=doc["schedule"], lr0=doc["lr0"],
                        seed=doc["seed"], log_path=args.log)
    save_checkpoint(args.out, doc, result.best_state)
    print(f"trained {doc['epochs']} epochs on {len(train_set)} samples; "
          f"best val IoU {result.best_val_iou:.4f} (epoch {result.best_epoch}) -> {args.out}")
    return 0


def cmd_eval(args):
    model = _load_model(args.ckpt)
    dataset = load_dataset(args.data)
    res = evaluate(model, dataset, batch_size=args.batch)
    for i, s in enumerate(res.per_sample):
        print(f"sample {i:4d}  IoU {s.iou:.4f}  F1 {s.f1:.4f}")
    print(f"mean IoU {res.mean_iou:.4f}  mean F1 {res.mean_f1:.4f}  "
          f"({len(res.per_sample)} samples, threshold {PROB_THRESHOLD})")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"mean_iou": res.mean_iou, "mean_f1": res.mean_f1,
                       "samples": res.to_records()}, f, indent=2)
    return 0


def cmd_count(args):
    cfg = _config_from_flags(args)
    model = build_model(cfg, seed=0)
    prep = count_params(model)
    frep = count_flops(cfg)
    print(prep.to_text(f"parameters: {cfg.variant} @ {args.size}x{args.size}"))
    print()
    print(frep.to_text(f"multiply-accumulates: {cfg.variant} @ {args.size}x{args.size}"))
    print()
    print(f"TOTAL_PARAMS {prep.total_params}")
    print(f"TOTAL_MACS {frep.total_macs}")
    print(f"TOTAL_FLOPS {frep.total_flops}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"params": prep.to_records(), "flops": frep.to_records(),
                       "total_params": prep.total_params,
                       "total_macs": frep.total_macs,
                       "total_flops": frep.total_flops}, f, indent=2)
    return 0


def _latency_tail(times):
    """(label, value) of the tail of sorted run times: the p95 when at least
    ten runs lie above it, else the slowest run as max, since a p95 of fewer
    runs is just their maximum."""
    k = int(len(times) * 0.95)
    if len(times) - 1 - k >= 10:
        return "p95", times[k]
    return "max", times[-1]


def cmd_bench(args):
    model = _load_model(args.ckpt)
    model.eval()
    size = model.cfg.input_size
    rng = np.random.default_rng(0)
    x = Tensor(rng.random((args.batch, 3, size, size), dtype=np.float32))
    model(x)  # warmup
    times = []
    for _ in range(args.iters):
        t0 = time.perf_counter()
        model(x)
        times.append(time.perf_counter() - t0)
    times.sort()
    mean = sum(times) / len(times)
    p50 = times[len(times) // 2]
    name, tail = _latency_tail(times)
    print(f"forward latency over {args.iters} iters (batch {args.batch}, {size}x{size}):")
    print(f"  mean {mean * 1e3:.1f} ms   p50 {p50 * 1e3:.1f} ms   {name} {tail * 1e3:.1f} ms")
    print("  note: local wall-clock on this machine; not comparable to any "
          "published FPS figures, which are hardware-bound.")
    return 0


def cmd_gradcheck(args):
    failures = 0
    print(f"{'check':28s}{'max rel error':>16s}{'status':>10s}")
    for name, err in run_suite(args.scope, seed=args.seed):
        ok = err <= args.threshold
        failures += 0 if ok else 1
        print(f"{name:28s}{err:>16.3e}{'ok' if ok else 'FAIL':>10s}")
    if failures:
        print(f"{failures} check(s) above threshold {args.threshold}")
        return 1
    print(f"all checks within threshold {args.threshold}")
    return 0


def cmd_synth(args):
    samples = synth_dataset(args.seed, args.n, args.size, difficulty=args.difficulty)
    save_dataset(samples, args.out)
    frac = float(np.mean([s.mask.mean() for s in samples]))
    print(f"wrote {args.n} samples ({args.size}x{args.size}) to {args.out} "
          f"(mean foreground fraction {frac:.3f})")
    return 0


def make_parser():
    ap = argparse.ArgumentParser(prog="muvit",
                                 description="mobile U-shaped ViT segmentation toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="instantiate and save an untrained model")
    _add_model_flags(p)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("train", help="train from a config document")
    p.add_argument("--config", required=True, help="config document file")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--data", help="dataset dir with images/ and masks/")
    src.add_argument("--synth", type=_int_list(2, "non-negative integers SEED,N", low=0),
                     metavar="SEED,N", help="generate a synthetic dataset")
    p.add_argument("--val-data", help="validation dataset dir (default: the last fifth of "
                   "the training samples)")
    p.add_argument("--difficulty", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.add_argument("--log", help="JSONL training log path")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--batch", type=_positive_int, default=8)
    p.add_argument("--json", help="write the per-sample report here")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("count", help="parameter and FLOP accounting")
    _add_model_flags(p)
    p.add_argument("--json", help="write the structured report here")
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("bench", help="local forward latency")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--iters", type=_positive_int, default=10)
    p.add_argument("--batch", type=_positive_int, default=1)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--scope", choices=("ops", "blocks", "model"), default="ops")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--threshold", type=float, default=THRESHOLD)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("synth", help="generate a synthetic PNM dataset")
    p.add_argument("--seed", type=_non_negative_int, required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--difficulty", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_synth)
    return ap


def run_cli(argv):
    ap = make_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (T.ConfigError, T.UsageError, T.VerificationError, TrainingDiverged,
            FileNotFoundError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
