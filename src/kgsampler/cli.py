"""Command-line entry point.

Subcommands: ``train``, ``stats``, ``eval``, ``viz``, ``make-toy``.
Configuration precedence is built-in defaults, then the config file, then
``--set`` overrides, then ``train``'s own flags. Every error is raised to
:func:`main`, which reports it and returns the exit code: 0 success, 1 usage
error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import hashlib
import itertools
import json
import logging
import os
import sys
import time
from contextlib import contextmanager
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .evaluation import metrics_from_ranks, rank_split
from .graph import SPLIT_FILES, DataError, KnowledgeGraph, load_dataset, write_dictionaries
from .losses import LossConfig
from .samplers import SAMPLER_KINDS, SamplerPolicy, sample_minibatch, to_dot
from .scorers import (MODEL_KINDS, atomic_open, initialize, load_checkpoint, row_widths,
                      save_checkpoint)
from .stats import (
    DISTRIBUTION_FIELDS,
    SWEEP_FIELDS,
    averaged_distribution,
    distribution_rows,
    sweep_points,
    sweep_row,
    write_csv,
)
from .synth import (dense_sampler_graph, planted_graph, planted_toy_graph, variance_probe_graph,
                    write_dataset)
from .trainer import NumericalError, TrainConfig, train

log = logging.getLogger(__name__)

DATA_ROOT_ENV = "KGSAMPLER_DATA_ROOT"

USAGE_ERROR, DATA_ERROR, NUMERICAL_ERROR = 1, 2, 3

# [sampler], [loss] and [train] hold the fields of these classes that have a
# plain default, under the field's name unless _KEY_NAMES renames it.
_SECTIONS = {"sampler": SamplerPolicy, "loss": LossConfig, "train": TrainConfig}
_KEY_NAMES = {"negatives_per_positive": "negatives", "neighbors_loss_enabled": "neighbors_loss"}


def _fields(cls):
    """(config key, field name, default) of each field of ``cls`` the config sets."""
    return [(_KEY_NAMES.get(f.name, f.name), f.name, f.default)
            for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING]


DEFAULTS = {
    "dataset": {"root": "", "name": ""},
    "model": {"kind": "rotate", "dimension": 128},
    **{section: {key: default for key, _, default in _fields(cls)}
       for section, cls in _SECTIONS.items()},
}

# train's own flags, each the last override of one key; typed as the key's default
TRAIN_FLAGS = {"--dataset": "dataset.name", "--data-root": "dataset.root",
               "--model": "model.kind", "--dimension": "model.dimension",
               "--sampler": "sampler.kind", "--batch-size": "sampler.batch_size",
               "--epochs": "train.epochs", "--seed": "train.seed"}
_FLAG_CHOICES = {"model.kind": MODEL_KINDS, "sampler.kind": SAMPLER_KINDS}

TOY_GRAPHS = {"planted": planted_toy_graph, "dense": dense_sampler_graph,
              "variance": variance_probe_graph, "clusters": planted_graph}


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _coerce(section, key, raw, default):
    if isinstance(default, bool):
        try:
            return configparser.ConfigParser.BOOLEAN_STATES[str(raw).strip().lower()]
        except KeyError:
            raise ConfigError(f"invalid boolean for {section}.{key}: {raw!r}") from None
    try:
        if isinstance(default, int) and not isinstance(default, bool):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
    except ValueError:
        raise ConfigError(f"invalid value for {section}.{key}: {raw!r}")
    return str(raw)


def _ini_fault(exc) -> str:
    """configparser's complaint on one line, led by its line number when it has one,
    without the file name and the quoted raw line of configparser's own message."""
    if isinstance(exc, (configparser.DuplicateSectionError, configparser.DuplicateOptionError)):
        return f"line {exc.lineno}: {type(exc)(*exc.args[:-2])}"    # rebuilt without the source
    if isinstance(exc, configparser.ParsingError):    # a missing section header is one
        if hasattr(exc, "lineno"):    # its message's first line says what is wrong
            return f"line {exc.lineno}: {str(exc).splitlines()[0]}"
        return f"line {exc.errors[0][0]}: neither a [section] header nor a key = value line"
    return str(exc)


def resolve_config(config_file=None, overrides=()):
    """defaults < config file < overrides; unknown keys are errors."""
    config = {sec: dict(keys) for sec, keys in DEFAULTS.items()}

    def apply(section, key, raw):
        if section not in config or key not in config[section]:
            raise ConfigError(f"unknown config key: {section}.{key}")
        config[section][key] = _coerce(section, key, raw, DEFAULTS[section][key])

    if config_file:
        parser = configparser.ConfigParser()
        try:    # undecodable bytes, a missing header, a duplicate key or a bad %(name)s
            if not parser.read(config_file):
                raise ConfigError(f"cannot read config file {config_file}")
            for section in parser.sections():
                for key, raw in parser.items(section):
                    apply(section, key, raw)
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"{config_file}: {_ini_fault(exc)}") from exc
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

    return build("train", sampler_policy=build("sampler"), loss_config=build("loss"))


def open_dataset(name: str, root: str | None, split: str | None = None):
    """(directory, graph) of dataset ``name``, a directory path or a directory under
    ``root`` (default $KGSAMPLER_DATA_ROOT, then ./data). A ``split`` that holds no
    triples is a DataError naming the directory."""
    if not name:
        raise ConfigError("no dataset given (set dataset.name or pass --dataset)")
    directory = name if os.path.isdir(name) else os.path.join(
        root or os.environ.get(DATA_ROOT_ENV, "data"), name)
    if not os.path.isdir(directory):
        raise DataError(f"dataset directory not found: {directory}")
    g = load_dataset(directory)
    if split is not None and len(g.split(split)) == 0:
        raise DataError(f"{directory}: split {split!r} is empty")
    return directory, g


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


def id_space_digest(g: KnowledgeGraph) -> bytes:
    """sha256 over the entity names, then the relation names, in id order.

    Ids follow first-seen file order, so a dataset whose lines moved gets
    another digest. The two counts come first and each name ends in a
    newline, which no name holds, so no two id spaces share the hashed bytes.
    """
    text = f"{g.n_entities} {g.n_relations}\n" + "".join(
        f"{name}\n" for name in (*g.entity_names, *g.relation_names))
    return hashlib.sha256(text.encode("utf-8")).digest()


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat()


def _save_manifest(run_dir, manifest) -> None:
    with atomic_open(os.path.join(run_dir, "manifest.json")) as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8"))


def cmd_train(args) -> int:
    # the flags are overrides too, applied after --set
    flags = [f"{dotted}={value}" for flag, dotted in TRAIN_FLAGS.items()
             if (value := getattr(args, flag[2:].replace("-", "_"))) is not None]
    config = resolve_config(args.config, [*(args.set or []), *flags])

    kind, dimension = config["model"]["kind"], config["model"]["dimension"]
    try:    # bad values are usage errors, found before the dataset is read
        tconf = _train_config(config)
        row_widths(kind, dimension)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if args.out and os.path.exists(os.path.join(args.out, "manifest.json")):
        raise ConfigError(f"--out {args.out} holds a previous run (manifest.json); name a new one")
    dataset_dir, g = open_dataset(config["dataset"]["name"], config["dataset"]["root"], "train")
    if g.n_entities < 2:    # the loss corrupts a triple by swapping in another entity
        raise DataError(f"{dataset_dir}: {g.n_entities} entity, but corruption needs at least 2")

    stamp = time.strftime("%Y%m%d-%H%M%S")
    run_dir = args.out or os.path.join(
        "runs", f"{os.path.basename(os.path.abspath(dataset_dir))}-"
                f"{config['model']['kind']}-{config['sampler']['kind']}-{stamp}")
    if args.out:
        os.makedirs(run_dir, exist_ok=True)
    else:    # a new directory: a run started in the same second gets a -2, -3, ... suffix
        base = run_dir
        os.makedirs(os.path.dirname(base), exist_ok=True)
        for n in itertools.count(2):
            try:
                os.mkdir(run_dir)
                break
            except FileExistsError:
                run_dir = f"{base}-{n}"
    manifest = {
        "tool_version": __version__,
        "config": config,
        "dataset_dir": os.path.abspath(dataset_dir),
        "dataset_fingerprint": dataset_fingerprint(dataset_dir),
        "seed": config["train"]["seed"],
        "started_at": _utcnow(),
    }
    _save_manifest(run_dir, manifest)
    write_dictionaries(g, run_dir)

    store = initialize(g.n_entities, g.n_relations, kind, dimension, seed=tconf.seed)
    store.id_space = id_space_digest(g)    # checkpoints name the ids their rows belong to

    best = {}    # stays empty, and best_valid null, if no validation runs
    if not len(g.valid) or tconf.epochs < tconf.eval_every:
        log.warning("no validation will run (%s): no best.ckpt, and best_valid is null",
                    "empty valid split" if not len(g.valid) else "train.epochs < train.eval_every")
    log_path = os.path.join(run_dir, "train_log.jsonl")
    log_fh = open(log_path, "w", encoding="utf-8")

    def on_epoch(epoch, current_store, record):
        if "valid" in record and (not best or record["valid"]["mrr"] > best["mrr"]):
            best.update(mrr=record["valid"]["mrr"], epoch=epoch)
            save_checkpoint(current_store, os.path.join(run_dir, "best.ckpt"))
        log_fh.write(json.dumps(record) + "\n")
        log_fh.flush()

    try:
        store, _records = train(g, store, tconf, epoch_callback=on_epoch)
    except NumericalError as exc:
        with atomic_open(os.path.join(run_dir, "failed_batch.json")) as fh:
            fh.write(json.dumps({"epoch": exc.epoch, "batch": exc.batch}).encode("utf-8"))
        raise
    finally:
        log_fh.close()

    save_checkpoint(store, os.path.join(run_dir, "last.ckpt"))
    manifest["finished_at"] = _utcnow()
    manifest["best_valid"] = best or None
    _save_manifest(run_dir, manifest)
    print(f"run directory: {run_dir}")
    return 0


@contextmanager
def _flag_error(flag: str):
    """Re-raise a ValueError from the value of ``flag`` as a ConfigError naming it."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from exc


def _seed_flag(seed: int) -> int:
    """The ``--seed`` of ``stats``, ``viz`` and ``make-toy``, which must not be negative."""
    if seed < 0:
        raise ConfigError("--seed: seed must be >= 0")
    return seed


def cmd_stats(args) -> int:
    _, g = open_dataset(args.dataset, args.data_root, None if args.summary else "train")

    if args.summary:
        degs = g.degrees
        print(f"entities:   {g.n_entities}")
        print(f"relations:  {g.n_relations}")
        print(f"train:      {len(g.train)}")
        print(f"valid:      {len(g.valid)}")
        print(f"test:       {len(g.test)}")
        if len(degs):    # a dataset with no entities has no degree statistics
            print(f"avg degree: {degs.mean():.1f}")
            print(f"median degree: {np.median(degs):.0f}")
        return 0

    # every argument is checked before the first line of output
    seed = _seed_flag(args.seed)
    with _flag_error("--samplers"):
        policies = [SamplerPolicy(kind=k) for k in args.samplers.split(",")]
    with _flag_error("--batch-sizes"):   # SamplerPolicy checks each size
        batch_sizes = [SamplerPolicy(batch_size=int(b)).batch_size
                       for b in args.batch_sizes.split(",")]
    with _flag_error("--num-batches"):
        points = sweep_points(g, policies, batch_sizes, args.num_batches, seed)
    os.makedirs(args.out, exist_ok=True)

    sweep_rows, dist_rows = [], []
    print(f"{'policy':<10}{'batch_size':>12}{'E[D]':>10}{'std_err':>10}")
    for policy, hists in points:
        row = sweep_row(policy, hists)
        sweep_rows.append(row)
        dist_rows.extend(distribution_rows(policy, policy.batch_size,
                                           averaged_distribution(hists)))
        print(f"{row['policy']:<10}{row['batch_size']:>12}"
              f"{row['expected_degree']:>10.3f}{row['std_error']:>10.4f}")

    write_csv(sweep_rows, os.path.join(args.out, "expected_degree.csv"), SWEEP_FIELDS)
    write_csv(dist_rows, os.path.join(args.out, "degree_distributions.csv"), DISTRIBUTION_FIELDS)
    print(f"wrote CSVs to {args.out}")
    return 0


def cmd_eval(args) -> int:
    _, g = open_dataset(args.dataset, args.data_root, args.split)
    try:
        store = load_checkpoint(args.checkpoint)
    except ValueError as exc:
        raise DataError(f"cannot load checkpoint: {exc}") from exc
    if store.n_entities != g.n_entities or store.n_relations != g.n_relations:
        raise DataError(
            f"{args.checkpoint}: checkpoint shape ({store.n_entities} entities, "
            f"{store.n_relations} relations) does not match dataset {args.dataset} "
            f"({g.n_entities} entities, {g.n_relations} relations)")
    digest = id_space_digest(g)
    if store.id_space is None:
        log.warning("%s: a KGSCKPT1 checkpoint names no id space, so its ids cannot be "
                    "checked against the dataset's", args.checkpoint)
    elif store.id_space != digest:
        raise DataError(
            f"{args.checkpoint}: checkpoint id space {store.id_space.hex()} does not match "
            f"dataset {args.dataset} ({digest.hex()}): ids follow first-seen line order, and "
            f"the run's entities.tsv and relations.tsv list the checkpoint's")
    ranks = rank_split(g, store, args.split, args.protocol)
    if args.ranks:
        with atomic_open(args.ranks) as fh:
            np.savetxt(fh, np.column_stack([g.split(args.split), ranks]), fmt="%d",
                       delimiter="\t")
    print(metrics_from_ranks(ranks.reshape(-1), args.protocol).as_json_line())
    return 0


def cmd_viz(args) -> int:
    rng = np.random.default_rng(_seed_flag(args.seed))
    with _flag_error("--batch-size"):
        policy = SamplerPolicy(kind=args.sampler, batch_size=args.batch_size)
    _, g = open_dataset(args.dataset, args.data_root, "train")
    m = sample_minibatch(g, policy, rng)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(to_dot(m, g))
    print(f"wrote {args.output} ({len(m)} triples, {len(m.vertex_set)} entities)")
    return 0


def cmd_make_toy(args) -> int:
    g = TOY_GRAPHS[args.kind](seed=_seed_flag(args.seed))
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
    for flag, dotted in TRAIN_FLAGS.items():
        section, key = dotted.split(".")
        p.add_argument(flag, type=type(DEFAULTS[section][key]), choices=_FLAG_CHOICES.get(dotted))
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
    p.add_argument("--split", choices=SPLIT_FILES, default="test")
    p.add_argument("--protocol", choices=("raw", "filtered"), default="filtered")
    p.add_argument("--ranks", default=None, metavar="PATH",
                   help="also write each triple's ids and head, tail ranks as TSV")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("viz", help="export one minibatch as a DOT graph")
    add_dataset_args(p)
    p.add_argument("--sampler", choices=SAMPLER_KINDS, required=True)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.set_defaults(fn=cmd_viz)

    p = sub.add_parser("make-toy", help="generate a bundled synthetic dataset")
    p.add_argument("--kind", choices=TOY_GRAPHS, default="planted")
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
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
