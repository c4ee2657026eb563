"""Command-line entry point.

Subcommands: ``train``, ``stats``, ``eval``, ``viz``, ``make-toy``.
Configuration precedence is built-in defaults, then the config file, then
command-line overrides. Exit codes: 0 success, 1 usage error, 2 data error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import hashlib
import json
import logging
import os
import sys
import time
from contextlib import contextmanager
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .evaluation import evaluate_split
from .graph import DataError, load_dataset, write_dictionaries
from .losses import LossConfig
from .samplers import SAMPLER_KINDS, SamplerPolicy, sample_minibatch, to_dot
from .scorers import MODEL_KINDS, atomic_open, initialize, load_checkpoint, save_checkpoint
from .stats import (
    averaged_distribution,
    distribution_rows,
    sweep_points,
    sweep_row,
    write_distribution_csv,
    write_sweep_csv,
)
from .synth import dense_sampler_graph, planted_toy_graph, variance_probe_graph, write_dataset
from .trainer import NumericalError, TrainConfig, train

log = logging.getLogger(__name__)

DATA_ROOT_ENV = "KGSAMPLER_DATA_ROOT"

USAGE_ERROR, DATA_ERROR, NUMERICAL_ERROR = 1, 2, 3

# [sampler], [loss] and [train] hold the fields of these classes that have a
# plain default, under the field's name unless _KEY_NAMES renames it. The
# sampler's seed is not a key: it comes from train.seed.
_SECTIONS = {"sampler": SamplerPolicy, "loss": LossConfig, "train": TrainConfig}
_KEY_NAMES = {"negatives_per_positive": "negatives", "neighbors_loss_enabled": "neighbors_loss"}


def _fields(cls):
    """(config key, field name, default) of each field of ``cls`` the config sets."""
    return [(_KEY_NAMES.get(f.name, f.name), f.name, f.default)
            for f in dataclasses.fields(cls)
            if f.default is not dataclasses.MISSING and (cls, f.name) != (SamplerPolicy, "seed")]


DEFAULTS = {
    "dataset": {"root": "", "name": ""},
    "model": {"kind": "rotate", "dimension": 128},
    **{section: {key: default for key, _, default in _fields(cls)}
       for section, cls in _SECTIONS.items()},
}


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _coerce(section, key, raw, default):
    if isinstance(default, bool):
        low = str(raw).strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"invalid boolean for {section}.{key}: {raw!r}")
    try:
        if isinstance(default, int) and not isinstance(default, bool):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
    except ValueError:
        raise ConfigError(f"invalid value for {section}.{key}: {raw!r}")
    return str(raw)


def resolve_config(config_file=None, overrides=()):
    """defaults < config file < overrides; unknown keys are errors."""
    config = {sec: dict(keys) for sec, keys in DEFAULTS.items()}

    def apply(section, key, raw):
        if section not in config or key not in config[section]:
            raise ConfigError(f"unknown config key: {section}.{key}")
        config[section][key] = _coerce(section, key, raw, DEFAULTS[section][key])

    if config_file:
        parser = configparser.ConfigParser()
        if not parser.read(config_file):
            raise ConfigError(f"cannot read config file {config_file}")
        for section in parser.sections():
            for key, raw in parser.items(section):
                apply(section, key, raw)
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        section, key = dotted.split(".", 1)
        apply(section.strip(), key.strip(), raw)
    return config


def _train_config(config) -> TrainConfig:
    def build(section, **extra):
        cls = _SECTIONS[section]
        return cls(**{name: config[section][key] for key, name, _ in _fields(cls)}, **extra)

    return build("train", sampler_policy=build("sampler", seed=config["train"]["seed"]),
                 loss_config=build("loss"))


def resolve_dataset_dir(config) -> str:
    name = config["dataset"]["name"]
    if not name:
        raise ConfigError("no dataset given (set dataset.name or pass --dataset)")
    if os.path.isdir(name):
        return name
    root = config["dataset"]["root"] or os.environ.get(DATA_ROOT_ENV, "data")
    path = os.path.join(root, name)
    if not os.path.isdir(path):
        raise DataError(f"dataset directory not found: {path}")
    return path


def dataset_fingerprint(directory: str) -> dict:
    out = {}
    for fname in sorted(os.listdir(directory)):
        path = os.path.join(directory, fname)
        if not os.path.isfile(path):
            continue
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        out[fname] = {"size": os.path.getsize(path), "sha256": h.hexdigest()}
    return out


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat()


def write_manifest(run_dir, config, dataset_dir, extra=None):
    manifest = {
        "tool_version": __version__,
        "config": config,
        "dataset_dir": os.path.abspath(dataset_dir),
        "dataset_fingerprint": dataset_fingerprint(dataset_dir),
        "seed": config["train"]["seed"],
        "started_at": _utcnow(),
    }
    if extra:
        manifest.update(extra)
    _save_manifest(run_dir, manifest)
    return manifest


def _save_manifest(run_dir, manifest) -> None:
    with atomic_open(os.path.join(run_dir, "manifest.json")) as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8"))


def cmd_train(args) -> int:
    config = resolve_config(args.config, args.set or [])
    for dotted, value in (
        ("dataset.name", args.dataset),
        ("dataset.root", args.data_root),
        ("model.kind", args.model),
        ("model.dimension", args.dimension),
        ("sampler.kind", args.sampler),
        ("sampler.batch_size", args.batch_size),
        ("train.epochs", args.epochs),
        ("train.seed", args.seed),
    ):
        if value is not None:
            section, key = dotted.split(".")
            config[section][key] = value

    try:    # bad values are usage errors, found before the dataset is read
        tconf = _train_config(config)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    kind, dimension = config["model"]["kind"], config["model"]["dimension"]
    if kind not in MODEL_KINDS:
        raise ConfigError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
    if dimension < 1:
        raise ConfigError("model.dimension must be >= 1")
    dataset_dir = resolve_dataset_dir(config)
    g = load_dataset(dataset_dir)

    stamp = time.strftime("%Y%m%d-%H%M%S")
    run_dir = args.out or os.path.join(
        "runs", f"{config['dataset']['name'] or 'dataset'}-"
                f"{config['model']['kind']}-{config['sampler']['kind']}-{stamp}")
    os.makedirs(run_dir, exist_ok=True)
    manifest = write_manifest(run_dir, config, dataset_dir)
    write_dictionaries(g, run_dir)

    store = initialize(g.n_entities, g.n_relations, kind, dimension, seed=tconf.seed)

    best = {"mrr": -1.0, "epoch": 0}
    log_path = os.path.join(run_dir, "train_log.jsonl")
    log_fh = open(log_path, "w", encoding="utf-8")

    def on_epoch(epoch, current_store, record):
        if epoch % tconf.eval_every == 0 and len(g.valid):
            t0 = time.perf_counter()
            metrics = evaluate_split(g, current_store, "valid", "filtered")
            valid_s = time.perf_counter() - t0
            log.info("epoch %d valid (%.2f s): %s", epoch, valid_s, metrics.as_json_line())
            record = {**record, "valid": metrics.as_record(), "valid_s": valid_s}
            if metrics.mrr > best["mrr"]:
                best.update(mrr=metrics.mrr, epoch=epoch)
                save_checkpoint(current_store, os.path.join(run_dir, "best.ckpt"))
        log_fh.write(json.dumps(record) + "\n")
        log_fh.flush()

    try:
        store, _records = train(g, store, tconf, epoch_callback=on_epoch)
    except NumericalError as exc:
        with atomic_open(os.path.join(run_dir, "failed_batch.json")) as fh:
            fh.write(json.dumps({"epoch": exc.epoch, "batch": exc.batch}).encode("utf-8"))
        log.error("training aborted: %s", exc)
        return NUMERICAL_ERROR
    finally:
        log_fh.close()

    save_checkpoint(store, os.path.join(run_dir, "last.ckpt"))
    manifest["finished_at"] = _utcnow()
    manifest["best_valid"] = best
    _save_manifest(run_dir, manifest)
    print(f"run directory: {run_dir}")
    return 0


def _load_graph(args):
    """The dataset named by ``--dataset`` and ``--data-root``."""
    return load_dataset(resolve_dataset_dir(
        {"dataset": {"name": args.dataset, "root": args.data_root or ""}}))


@contextmanager
def _flag_error(flag: str):
    """Re-raise a ValueError from the value of ``flag`` as a ConfigError naming it."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from exc


def cmd_stats(args) -> int:
    g = _load_graph(args)

    if args.summary:
        degs = g.degrees
        print(f"entities:   {g.n_entities}")
        print(f"relations:  {g.n_relations}")
        print(f"train:      {len(g.train)}")
        print(f"valid:      {len(g.valid)}")
        print(f"test:       {len(g.test)}")
        print(f"avg degree: {degs.mean():.1f}")
        print(f"median degree: {np.median(degs):.0f}")
        return 0

    # every argument is checked before the first line of output
    with _flag_error("--samplers"):
        policies = [SamplerPolicy(kind=k, seed=args.seed) for k in args.samplers.split(",")]
    with _flag_error("--batch-sizes"):   # SamplerPolicy checks each size
        batch_sizes = [SamplerPolicy(batch_size=int(b)).batch_size
                       for b in args.batch_sizes.split(",")]
    with _flag_error("--num-batches"):
        points = sweep_points(g, policies, batch_sizes, args.num_batches, args.seed)

    sweep_rows, dist_rows = [], []
    print(f"{'policy':<10}{'batch_size':>12}{'E[D]':>10}{'std_err':>10}")
    for policy, hists in points:
        row = sweep_row(policy, hists)
        sweep_rows.append(row)
        dist_rows.extend(distribution_rows(policy, policy.batch_size,
                                           averaged_distribution(hists)))
        print(f"{row['policy']:<10}{row['batch_size']:>12}"
              f"{row['expected_degree']:>10.3f}{row['std_error']:>10.4f}")

    os.makedirs(args.out, exist_ok=True)
    write_sweep_csv(sweep_rows, os.path.join(args.out, "expected_degree.csv"))
    write_distribution_csv(dist_rows, os.path.join(args.out, "degree_distributions.csv"))
    print(f"wrote CSVs to {args.out}")
    return 0


def cmd_eval(args) -> int:
    g = _load_graph(args)
    if len(g.split(args.split)) == 0:
        raise DataError(f"{args.dataset}: split {args.split!r} is empty")
    try:
        store = load_checkpoint(args.checkpoint)
    except (OSError, ValueError) as exc:
        log.error("cannot load checkpoint: %s", exc)
        return DATA_ERROR
    if store.n_entities != g.n_entities or store.n_relations != g.n_relations:
        log.error(
            "checkpoint shape (%d entities, %d relations) does not match dataset "
            "(%d entities, %d relations)",
            store.n_entities, store.n_relations, g.n_entities, g.n_relations)
        return DATA_ERROR
    metrics = evaluate_split(g, store, args.split, args.protocol)
    print(metrics.as_json_line())
    return 0


def cmd_viz(args) -> int:
    g = _load_graph(args)
    policy = SamplerPolicy(kind=args.sampler, batch_size=args.batch_size, seed=args.seed)
    m = sample_minibatch(g, policy)
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(to_dot(m, g))
    except OSError as exc:
        log.error("cannot write DOT file: %s", exc)
        return DATA_ERROR
    print(f"wrote {args.output} ({len(m)} triples, {len(m.vertex_set)} entities)")
    return 0


def cmd_make_toy(args) -> int:
    makers = {
        "planted": planted_toy_graph,
        "dense": dense_sampler_graph,
        "variance": variance_probe_graph,
    }
    g = makers[args.kind](seed=args.seed)
    write_dataset(g, args.out)
    print(f"wrote {args.kind} graph to {args.out} "
          f"({g.n_entities} entities, {len(g.train)} train triples)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kgsampler", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_dataset_args(p):
        p.add_argument("--dataset", required=True,
                       help="dataset name under the data root, or a directory path")
        p.add_argument("--data-root", default=None,
                       help=f"dataset root (default ${DATA_ROOT_ENV} or ./data)")

    p = sub.add_parser("train", help="train embeddings")
    p.add_argument("--config", default=None, help="INI config file")
    p.add_argument("--dataset", default=None)
    p.add_argument("--data-root", default=None)
    p.add_argument("--model", choices=MODEL_KINDS, default=None)
    p.add_argument("--dimension", type=int, default=None)
    p.add_argument("--sampler", choices=SAMPLER_KINDS, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="run directory")
    p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                   help="override any config value")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("stats", help="minibatch degree statistics")
    add_dataset_args(p)
    p.add_argument("--samplers", default=",".join(SAMPLER_KINDS))
    p.add_argument("--batch-sizes", default="1024")
    p.add_argument("--num-batches", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="stats")
    p.add_argument("--summary", action="store_true", help="print dataset audit only")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("eval", help="rank a split against a checkpoint")
    add_dataset_args(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=("train", "valid", "test"), default="test")
    p.add_argument("--protocol", choices=("raw", "filtered"), default="filtered")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("viz", help="export one minibatch as a DOT graph")
    add_dataset_args(p)
    p.add_argument("--sampler", choices=SAMPLER_KINDS, required=True)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.set_defaults(fn=cmd_viz)

    p = sub.add_parser("make-toy", help="generate a bundled synthetic dataset")
    p.add_argument("--kind", choices=("planted", "dense", "variance"), default="planted")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_make_toy)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
