"""Command-line interface: train, upsample, eval, compare, gradcheck, knncheck.

Exit codes: 0 success, 1 property/check failure, 2 usage, configuration,
input-file or output-path error (a malformed text input is named as
`path:line`; an unwritable output before any work), 3 numerical failure
(divergence, non-finite values). A compare config is `key=value` lines read
by `dataio.read_fields`. Every command prints its fully resolved
configuration, defaults and seed included, before doing any work, so a run
is reproducible from its log alone.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

import numpy as np

from . import checks, dataio, metrics, pipeline
from .errors import ConfigError, DivergenceError, GradientError, IndexRangeError, integer
from .pipeline import spec_from_fields, spec_to_fields
from .units import INDEX_MODES, REGRESSION_MODES, UNIT_KINDS, run_index_mode


def _print_config(pairs):
    print("resolved config:")
    for key in sorted(pairs):
        print(f"  {key}={pairs[key]}")


# The train flags that set a TrainConfig field, each stored under its codec key
# and parsed by the codec; a flag left out keeps the spec dataclass default.
TRAIN_FIELD_FLAGS = {
    "--backbone": "backbone.kind", "--k": "train.k", "--channels": "backbone.width", "--depth": "backbone.depth",
    "--steps": "train.steps", "--lr": "train.lr", "--batch-size": "train.batch_size", "--seed": "train.seed",
    "--shapes": "data.shapes", "--points": "data.points", "--data-seed": "data.seed",
}


def _metric_text(row, spec):
    """name=value in format `spec` per metric column of a report or comparison row; n/a where it is None."""
    values = {name: getattr(row, name) for name in metrics.METRICS}
    return " ".join(f"{name}={'n/a' if value is None else format(value, spec)}" for name, value in values.items())


def cmd_train(args):
    fields = {key: getattr(args, key) for key in TRAIN_FIELD_FLAGS.values() if getattr(args, key) is not None}
    cfg = pipeline.train_config(fields, args.unit, args.ratio, args.index_mode, args.regression_mode)
    loss_csv = args.loss_csv or args.out + ".loss.csv"
    dataio.check_writable(args.out, "--out")
    dataio.check_writable(loss_csv, "--loss-csv")
    _print_config({**spec_to_fields(cfg, "train"), "out": args.out, "loss_csv": loss_csv})
    result = pipeline.train(cfg)
    dataio.save_checkpoint(args.out, pipeline.model_to_checkpoint(result.model))
    dataio.write_loss_csv(loss_csv, result.losses)
    print(f"trained {cfg.steps} steps: loss {result.losses[0]:.6g} -> {result.losses[-1]:.6g}")
    print(f"wrote {args.out} and {loss_csv}")
    return 0


def cmd_upsample(args):
    dataio.check_writable(args.out, "--out")
    _print_config({"model": args.model, "input": args.input, "out": args.out})
    model = pipeline.model_from_checkpoint(dataio.load_checkpoint(args.model))
    cloud = dataio.read_xyz(args.input)
    result = model.upsample(cloud)
    dataio.write_xyz(args.out, result)
    print(f"upsampled {cloud.count} -> {result.count} points (ratio {model.ratio})")
    return 0


def cmd_eval(args):
    if args.csv:
        dataio.check_writable(args.csv, "--csv")
    _print_config(
        {"pred": args.pred, "gt": args.gt, "mesh": args.mesh or "", "csv": args.csv or ""}
    )
    pred = dataio.read_xyz(args.pred)
    gt = dataio.read_xyz(args.gt)
    mesh = dataio.read_off(args.mesh) if args.mesh else None
    label = os.path.splitext(os.path.basename(args.pred))[0]
    row = metrics.report(label, pred, gt, mesh)
    print(_metric_text(row, ".9g"))
    if args.csv:
        dataio.write_metric_csv(args.csv, [row])
        print(f"wrote {args.csv}")
    return 0


def _compare_configs(pairs):
    if "train.seed" in pairs:
        raise ConfigError("compare config sets train.seed; list the seeds in train.seeds instead")
    spec = spec_from_fields(pipeline.CompareSpec, pairs, "compare")
    # every row shares these fields: resolve them once, so their errors and the
    # key check come before any listed unit's (branch takes any ratio)
    shared = pipeline.train_config(pairs, "branch", spec.ratio)
    known = {
        *spec_to_fields(spec, "compare"),
        *(key for key in spec_to_fields(shared, "train") if not key.startswith("unit.") and key != "train.seed"),
    }
    unknown = sorted(set(pairs) - known)
    if unknown:
        raise ConfigError(
            f"unknown compare config key(s) {', '.join(unknown)}; "
            f"accepted keys: {', '.join(sorted(known))}"
        )
    if "compare.units" not in pairs:
        raise ConfigError("compare config is missing 'compare.units'")

    rows = {}  # one config per distinct (unit, index mode, regression mode)
    for kind in spec.units:
        for imode in spec.index_modes:
            for rmode in spec.regression_modes:
                cfg = pipeline.train_config(
                    pairs, kind, spec.ratio, run_index_mode(kind, imode), None if rmode == "default" else rmode
                )
                rows.setdefault((kind, cfg.unit.index_mode, cfg.unit.regression_mode), cfg)
    if not rows:
        raise ConfigError("compare config selects no unit")
    return list(rows.values()), spec


def cmd_compare(args):
    configs, spec = _compare_configs(dataio.read_fields(args.config))
    spec.out = args.out or spec.out
    dataio.check_writable(spec.out, "out")
    # a unit.* key that differs between rows is left out; compare.rows names each row's unit
    rows = [spec_to_fields(c, "train") for c in configs]
    resolved = {key: value for key, value in rows[0].items() if all(r[key] == value for r in rows)}
    del resolved["train.seed"]  # each unit trains once per seed in train.seeds
    resolved.update(spec_to_fields(spec, "compare"))
    resolved["compare.rows"] = ";".join(
        f"{c.unit.kind}/{c.unit.index_mode}/{c.unit.regression_mode}" for c in configs
    )
    _print_config(resolved)
    table = pipeline.compare_units(configs, seeds=spec.seeds)
    dataio.write_comparison_csv(spec.out, table)
    for row in table.rows:
        modes = f"index={row.index_mode:11s} regress={row.regression_mode:15s}"
        print(f"{row.unit:16s} {modes} {_metric_text(row, '.6g')}")
    print(f"wrote {spec.out}")
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
    seed = integer("seed", args.seed, 0)
    _print_config({"seed": seed, "replay_dir": args.replay_dir})
    return _run_check_suite(checks.run_gradient_checks(seed), args.replay_dir)


def cmd_knncheck(args):
    clouds = integer("--clouds", args.clouds)
    seed = integer("seed", args.seed, 0)
    _print_config({"seed": seed, "clouds": clouds, "replay_dir": args.replay_dir})
    results = checks.run_knn_checks(clouds=clouds, seed=seed)
    results += checks.run_index_expansion_checks(seed=seed + 1)
    return _run_check_suite(results, args.replay_dir)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="puxp",
        description="Point-cloud upsampling feature-expansion units: train, run, and compare.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train an upsampler on synthetic patches")
    p.add_argument("--unit", choices=UNIT_KINDS, default="proedgeshuffle")
    p.add_argument("--ratio", type=int, default=4)
    for flag, key in TRAIN_FIELD_FLAGS.items():
        p.add_argument(flag, dest=key, metavar=flag[2:].upper().replace("-", "_"), help=f"sets {key}")
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

    p = sub.add_parser("knncheck", help="KNN, P2F oracle and index-expansion property suite")
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
