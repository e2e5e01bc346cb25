"""Command-line interface: train, upsample, eval, compare, gradcheck, knncheck.

Exit codes: 0 success, 1 property/check failure, 2 usage or configuration
error, 3 numerical failure (divergence, non-finite values). Every command
prints its fully resolved configuration, defaults and seed included, before
doing any work, so a run is reproducible from its log alone.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

import numpy as np

from . import checks, dataio, metrics, pipeline
from .errors import (
    ConfigError,
    DivergenceError,
    FormatError,
    GradientError,
    IndexRangeError,
    ShapeError,
)
from .pipeline import BackboneSpec, TrainConfig
from .shapes import SHAPE_KINDS
from .units import INDEX_MODES, REGRESSION_MODES, UNIT_KINDS


def _print_config(pairs):
    print("resolved config:")
    for key in sorted(pairs):
        print(f"  {key}={pairs[key]}")


def _flatten_train_config(cfg, extra=None):
    pairs = {
        "unit.kind": cfg.unit.kind,
        "unit.ratio": cfg.unit.ratio,
        "unit.channels": cfg.unit.channels,
        "unit.index_mode": cfg.unit.index_mode,
        "unit.regression_mode": cfg.unit.regression_mode,
        "backbone.kind": cfg.backbone.kind,
        "backbone.depth": cfg.backbone.depth,
        "backbone.width": cfg.backbone.width,
        "train.k": cfg.k,
        "train.steps": cfg.steps,
        "train.lr": cfg.lr,
        "train.beta1": cfg.beta1,
        "train.beta2": cfg.beta2,
        "train.eps": cfg.eps,
        "train.batch_size": cfg.batch_size,
        "train.seed": cfg.seed,
        "data.shapes": ",".join(cfg.shapes),
        "data.points": cfg.points,
        "data.seed": cfg.data_seed,
    }
    if extra:
        pairs.update(extra)
    return pairs


def _unit_spec(args):
    from .units import ExpansionSpec, GRAPH_KINDS

    return ExpansionSpec(
        kind=args.unit,
        ratio=args.ratio,
        channels=args.channels,
        k=args.k if args.unit in GRAPH_KINDS else None,
        index_mode=args.index_mode,
        regression_mode=args.regression_mode,
    )


def cmd_train(args):
    cfg = TrainConfig(
        unit=_unit_spec(args),
        backbone=BackboneSpec(args.backbone, args.depth, args.channels),
        k=args.k,
        steps=args.steps,
        lr=args.lr,
        batch_size=args.batch_size,
        seed=args.seed,
        shapes=tuple(args.shapes.split(",")),
        points=args.points,
        data_seed=args.data_seed,
    )
    loss_csv = args.loss_csv or args.out + ".loss.csv"
    _print_config(_flatten_train_config(cfg, {"out": args.out, "loss_csv": loss_csv}))
    result = pipeline.train(cfg)
    dataio.save_checkpoint(args.out, pipeline.model_to_checkpoint(result.model))
    dataio.write_loss_csv(loss_csv, result.losses)
    print(f"trained {cfg.steps} steps: loss {result.losses[0]:.6g} -> {result.losses[-1]:.6g}")
    print(f"wrote {args.out} and {loss_csv}")
    return 0


def cmd_upsample(args):
    _print_config({"model": args.model, "input": args.input, "out": args.out})
    model = pipeline.model_from_checkpoint(dataio.load_checkpoint(args.model))
    cloud = dataio.read_xyz(args.input)
    result = model.upsample(cloud)
    dataio.write_xyz(args.out, result)
    print(f"upsampled {cloud.count} -> {result.count} points (ratio {model.ratio})")
    return 0


def cmd_eval(args):
    _print_config(
        {"pred": args.pred, "gt": args.gt, "mesh": args.mesh or "", "csv": args.csv or ""}
    )
    pred = dataio.read_xyz(args.pred)
    gt = dataio.read_xyz(args.gt)
    mesh = dataio.read_off(args.mesh) if args.mesh else None
    label = os.path.splitext(os.path.basename(args.pred))[0]
    row = metrics.report(label, pred, gt, mesh)
    p2f_text = "n/a" if row.p2f is None else f"{row.p2f:.9g}"
    print(f"cd={row.cd:.9g} hd={row.hd:.9g} p2f={p2f_text}")
    if args.csv:
        dataio.write_metric_csv(args.csv, [row])
        print(f"wrote {args.csv}")
    return 0


def _parse_kv_file(path):
    pairs = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {text!r}")
            key, value = text.split("=", 1)
            pairs[key.strip()] = value.strip()
    return pairs


def _compare_configs(pairs):
    def get(key, default=None):
        if key in pairs:
            return pairs[key]
        if default is None:
            raise ConfigError(f"compare config is missing {key!r}")
        return default

    width = int(get("backbone.width", "32"))
    backbone = BackboneSpec(
        kind=get("backbone.kind", "edgeconv_stack"),
        depth=int(get("backbone.depth", "2")),
        width=width,
    )
    common = dict(
        backbone=backbone,
        k=int(get("train.k", "16")),
        steps=int(get("train.steps", "2000")),
        lr=float(get("train.lr", "0.001")),
        batch_size=int(get("train.batch_size", "1")),
        shapes=tuple(get("data.shapes", ",".join(SHAPE_KINDS)).split(",")),
        points=int(get("data.points", "256")),
        data_seed=int(get("data.seed", "100")),
    )
    ratio = int(get("train.ratio", "4"))
    units = [u.strip() for u in get("compare.units").split(",") if u.strip()]
    index_modes = [m.strip() for m in get("compare.index_modes", "expand").split(",") if m.strip()]
    regression_modes = [
        m.strip() for m in get("compare.regression_modes", "default").split(",") if m.strip()
    ]
    seeds = tuple(int(s) for s in get("train.seeds", "1,2,3").split(","))

    from .units import ExpansionSpec, GRAPH_KINDS

    configs = []
    seen = set()
    for kind in units:
        if kind not in UNIT_KINDS:
            raise ConfigError(f"unknown unit kind {kind!r}; choose from {UNIT_KINDS}")
        for imode in index_modes:
            if imode not in INDEX_MODES:
                raise ConfigError(f"unknown index mode {imode!r}; choose from {INDEX_MODES}")
            # the high-power index type only exists for the progressive graph unit
            effective_imode = imode if kind == "proedgeshuffle" else "expand"
            for rmode in regression_modes:
                if rmode != "default" and rmode not in REGRESSION_MODES:
                    raise ConfigError(
                        f"unknown regression mode {rmode!r}; choose from {REGRESSION_MODES}"
                    )
                spec = ExpansionSpec(
                    kind=kind,
                    ratio=ratio,
                    channels=width,
                    k=common["k"] if kind in GRAPH_KINDS else None,
                    index_mode=effective_imode,
                    regression_mode=None if rmode == "default" else rmode,
                )
                key = (kind, spec.index_mode, spec.regression_mode)
                if key in seen:
                    continue
                seen.add(key)
                configs.append(TrainConfig(unit=spec, **common))
    return configs, seeds, get("out", "comparison.csv")


def cmd_compare(args):
    pairs = _parse_kv_file(args.config)
    configs, seeds, out = _compare_configs(pairs)
    out = args.out or out
    resolved = _flatten_train_config(configs[0], {"out": out, "train.seeds": ",".join(map(str, seeds))})
    resolved["compare.rows"] = ";".join(
        f"{c.unit.kind}/{c.unit.index_mode}/{c.unit.regression_mode}" for c in configs
    )
    _print_config(resolved)
    table = pipeline.compare_units(configs, seeds=seeds)
    dataio.write_comparison_csv(out, table)
    for row in table.rows:
        p2f_text = "n/a" if row.p2f is None else f"{row.p2f:.6g}"
        print(
            f"{row.unit:16s} index={row.index_mode:11s} regress={row.regression_mode:15s} "
            f"cd={row.cd:.6g} hd={row.hd:.6g} p2f={p2f_text}"
        )
    print(f"wrote {out}")
    return 0


def _run_check_suite(results, replay_dir):
    failed = 0
    for r in results:
        if r.ok:
            print(f"PASS {r.name} {r.detail}".rstrip())
            continue
        failed += 1
        where = ""
        if r.payload:
            os.makedirs(replay_dir, exist_ok=True)
            name = re.sub(r"[^A-Za-z0-9_.-]", "_", r.name)
            path = os.path.join(replay_dir, f"failcase-{name}.npz")
            np.savez(path, **{k: np.asarray(v) for k, v in r.payload.items()})
            where = f" [case saved to {path}]"
        print(f"FAIL {r.name} {r.detail}{where}")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def cmd_gradcheck(args):
    _print_config({"seed": args.seed, "replay_dir": args.replay_dir})
    return _run_check_suite(checks.run_gradient_checks(args.seed), args.replay_dir)


def cmd_knncheck(args):
    _print_config(
        {"seed": args.seed, "clouds": args.clouds, "replay_dir": args.replay_dir}
    )
    results = checks.run_knn_checks(clouds=args.clouds, seed=args.seed)
    results += checks.run_index_expansion_checks(seed=args.seed + 1)
    return _run_check_suite(results, args.replay_dir)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="puxp",
        description="Point-cloud upsampling feature-expansion units: train, run, and compare.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train an upsampler on synthetic patches")
    p.add_argument("--unit", choices=UNIT_KINDS, default="proedgeshuffle")
    p.add_argument("--backbone", choices=pipeline.BACKBONE_KINDS, default="edgeconv_stack")
    p.add_argument("--ratio", type=int, default=4)
    p.add_argument("--k", type=int, default=16)
    p.add_argument("--channels", type=int, default=32)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--batch-size", type=int, default=1)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--shapes", default=",".join(SHAPE_KINDS))
    p.add_argument("--points", type=int, default=256)
    p.add_argument("--data-seed", type=int, default=100)
    p.add_argument("--index-mode", choices=INDEX_MODES, default="expand")
    p.add_argument("--regression-mode", choices=REGRESSION_MODES, default=None)
    p.add_argument("--out", default="model.puxp")
    p.add_argument("--loss-csv", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("upsample", help="apply a trained checkpoint to an XYZ cloud")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_upsample)

    p = sub.add_parser("eval", help="CD/HD (and P2F with a mesh) between two XYZ clouds")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--mesh", default=None)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="train and score a matrix of units from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("gradcheck", help="finite-difference gradient property suite")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--replay-dir", default=".")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("knncheck", help="KNN oracle and index-expansion property suite")
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--clouds", type=int, default=200)
    p.add_argument("--replay-dir", default=".")
    p.set_defaults(func=cmd_knncheck)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DivergenceError, GradientError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, FormatError, ShapeError, IndexRangeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
