"""Command-line interface: train, upsample, eval, compare, gradcheck, knncheck.

Exit codes: 0 success, 1 property/check failure, 2 usage, configuration or
input-file error (a malformed text input is named as `path:line`), 3
numerical failure (divergence, non-finite values). A compare config is
`key=value` lines read by `dataio.read_fields`. Every command prints its
fully resolved configuration, defaults and seed included, before doing any
work, so a run is reproducible from its log alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import re
import sys

import numpy as np

from . import checks, dataio, metrics, pipeline
from .errors import ConfigError, DivergenceError, GradientError, IndexRangeError
from .pipeline import BackboneSpec, TrainConfig, spec_from_fields, spec_to_fields
from .shapes import SHAPE_KINDS
from .units import INDEX_MODES, REGRESSION_MODES, UNIT_KINDS, ExpansionSpec, _UNIT_CLASSES, _UnitBase


def _print_config(pairs):
    print("resolved config:")
    for key in sorted(pairs):
        print(f"  {key}={pairs[key]}")


def _unit_spec(args):
    return ExpansionSpec(
        kind=args.unit,
        ratio=args.ratio,
        channels=args.channels,
        k=args.k,
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
    _print_config({**spec_to_fields(cfg, "train"), "out": args.out, "loss_csv": loss_csv})
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


# The keys a compare file sets beyond the shared TrainConfig ones, with their
# defaults; None marks a required key.
COMPARE_KEYS = {
    "compare.units": None,
    "compare.index_modes": "expand",
    "compare.regression_modes": "default",
    "train.ratio": "4",
    "train.seeds": "1,2,3",
    "out": "comparison.csv",
}


def _compare_configs(pairs):
    if "train.seed" in pairs:
        raise ConfigError("compare config sets train.seed; list the seeds in train.seeds instead")
    own = {**COMPARE_KEYS, **{k: v for k, v in pairs.items() if k in COMPARE_KEYS}}
    ratio = int(own["train.ratio"])
    # compare.* picks the units; the placeholder only carries the ratio
    shared = spec_from_fields(TrainConfig, pairs, "train", unit=ExpansionSpec("branch", ratio, 1))
    known = set(COMPARE_KEYS) | {
        key for key in spec_to_fields(shared, "train") if not key.startswith("unit.")
    }
    known.discard("train.seed")
    unknown = sorted(set(pairs) - known)
    if unknown:
        raise ConfigError(
            f"unknown compare config key(s) {', '.join(unknown)}; "
            f"accepted keys: {', '.join(sorted(known))}"
        )
    if own["compare.units"] is None:
        raise ConfigError("compare config is missing 'compare.units'")

    def items(key):
        return [item.strip() for item in own[key].split(",") if item.strip()]

    configs = []
    seen = set()
    for kind in items("compare.units"):
        for imode in items("compare.index_modes"):
            if imode not in INDEX_MODES:
                raise ConfigError(f"unknown index mode {imode!r}; choose from {INDEX_MODES}")
            # a unit that does not read this index mode trains once, under expand
            effective_imode = imode if imode in _UNIT_CLASSES.get(kind, _UnitBase).index_modes else "expand"
            for rmode in items("compare.regression_modes"):
                spec = ExpansionSpec(
                    kind=kind,
                    ratio=ratio,
                    channels=shared.backbone.width,
                    k=shared.k,
                    index_mode=effective_imode,
                    regression_mode=None if rmode == "default" else rmode,
                )
                key = (kind, spec.index_mode, spec.regression_mode)
                if key in seen:
                    continue
                seen.add(key)
                configs.append(dataclasses.replace(shared, unit=spec))
    if not configs:
        raise ConfigError("compare config selects no unit")
    seeds = tuple(int(s) for s in own["train.seeds"].split(","))
    for seed in seeds:
        if seeds.count(seed) > 1:
            raise ConfigError(f"train.seeds lists seed {seed} more than once")
    return configs, seeds, own["out"]


def cmd_compare(args):
    pairs = dataio.read_fields(args.config)
    configs, seeds, out = _compare_configs(pairs)
    out = args.out or out
    # a unit.* key that differs between rows is left out; compare.rows names each row's unit
    rows = [spec_to_fields(c, "train") for c in configs]
    resolved = {key: value for key, value in rows[0].items() if all(r[key] == value for r in rows)}
    del resolved["train.seed"]  # each unit trains once per seed in train.seeds
    resolved.update({"out": out, "train.seeds": ",".join(map(str, seeds))})
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
    if args.clouds < 1:
        raise ConfigError(f"--clouds must be at least 1, got {args.clouds}")
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
    except (IndexRangeError, OSError, ValueError) as exc:  # ConfigError, FormatError, ShapeError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
