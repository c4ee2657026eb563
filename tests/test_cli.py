import csv
import json
import os

import numpy as np
import pytest

from kgsampler import cli, trainer
from kgsampler.cli import main, resolve_config, ConfigError
from kgsampler.graph import load_dataset
from kgsampler.samplers import SamplerPolicy
from kgsampler.scorers import load_checkpoint
from kgsampler.stats import (
    averaged_distribution,
    distribution_rows,
    ed_vs_batchsize_sweep,
    sweep_points,
)


def read_text(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


@pytest.fixture
def toy_dataset(tmp_path):
    out = tmp_path / "toy"
    assert main(["make-toy", "--kind", "planted", "--out", str(out), "--seed", "1"]) == 0
    return str(out)


def run_training(tmp_path, toy_dataset, extra=()):
    run_dir = str(tmp_path / "run")
    code = main([
        "train", "--dataset", toy_dataset, "--model", "distmult",
        "--sampler", "sr", "--batch-size", "128", "--epochs", "2",
        "--dimension", "8", "--seed", "3", "--out", run_dir,
        "--set", "loss.negatives=8", "--set", "train.eval_every=2",
        *extra,
    ])
    return code, run_dir


class TestConfigResolution:
    def test_defaults(self):
        config = resolve_config()
        assert config["sampler"]["kind"] == "sr"
        assert config["train"]["epochs"] == 100

    def test_file_overrides_defaults(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[train]\nepochs = 7\n[sampler]\nkind = rwisg\n")
        config = resolve_config(str(ini))
        assert config["train"]["epochs"] == 7
        assert config["sampler"]["kind"] == "rwisg"

    def test_cli_overrides_file(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[train]\nepochs = 7\n")
        config = resolve_config(str(ini), ["train.epochs=2"])
        assert config["train"]["epochs"] == 2

    def test_unknown_key_named_in_error(self):
        with pytest.raises(ConfigError, match="sampler.bogus"):
            resolve_config(None, ["sampler.bogus=1"])

    def test_bool_coercion(self):
        config = resolve_config(None, ["loss.neighbors_loss=true"])
        assert config["loss"]["neighbors_loss"] is True
        with pytest.raises(ConfigError):
            resolve_config(None, ["loss.neighbors_loss=maybe"])

    def test_defaults_pin_the_schema(self):
        """Keys come from the dataclass fields: a field that gains or loses a default shows here."""
        expected = {
            "dataset": {"root": "", "name": ""},
            "model": {"kind": "rotate", "dimension": 128},
            "sampler": {
                "kind": "sr",
                "batch_size": 1024,
                "restart_probability": 0.15,
                "restart_target": "start_node",
                "extra_neighbor_fraction": 0.5,
                "extra_neighbor_cap": 32,
            },
            "loss": {
                "margin": 6.0,
                "negatives": 64,
                "adversarial_temperature": 1.0,
                "filtered_negatives": True,
                "neighbors_loss": False,
                "neighbor_cap": 32,
            },
            "train": {
                "epochs": 100,
                "learning_rate": 1e-3,
                "optimizer": "adam",
                "eval_every": 10,
                "seed": 0,
                "normalize_entities": False,
            },
        }
        config = resolve_config()
        assert config == expected
        for section, keys in expected.items():
            for key, value in keys.items():
                assert type(config[section][key]) is type(value), f"{section}.{key}"

    def test_default_config_builds_the_default_train_config(self):
        assert cli._train_config(resolve_config()) == trainer.TrainConfig()
        seeded = cli._train_config(resolve_config(None, ["train.seed=5"]))
        assert seeded == trainer.TrainConfig(seed=5, sampler_policy=SamplerPolicy(seed=5))

    def test_renamed_loss_keys_reach_the_loss_config(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[loss]\nnegatives = 8\nneighbors_loss = true\n")
        loss = cli._train_config(resolve_config(str(ini))).loss_config
        assert loss.negatives_per_positive == 8
        assert loss.neighbors_loss_enabled is True


class TestMakeToy:
    def test_writes_splits(self, toy_dataset):
        for split in ("train.txt", "valid.txt", "test.txt"):
            assert os.path.isfile(os.path.join(toy_dataset, split))

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["make-toy", "--kind", "dense", "--out", str(a), "--seed", "4"])
        main(["make-toy", "--kind", "dense", "--out", str(b), "--seed", "4"])
        assert (a / "train.txt").read_text() == (b / "train.txt").read_text()


class TestTrainCommand:
    def test_run_directory_contents(self, tmp_path, toy_dataset):
        code, run_dir = run_training(tmp_path, toy_dataset)
        assert code == 0
        for fname in ("manifest.json", "train_log.jsonl", "last.ckpt", "best.ckpt",
                      "entities.tsv", "relations.tsv"):
            assert os.path.isfile(os.path.join(run_dir, fname)), fname
        manifest = json.loads(read_text(os.path.join(run_dir, "manifest.json")))
        assert manifest["config"]["train"]["epochs"] == 2
        assert manifest["config"]["loss"]["negatives"] == 8
        assert "train.txt" in manifest["dataset_fingerprint"]
        assert "started_at" in manifest and "finished_at" in manifest
        log_lines = read_text(os.path.join(run_dir, "train_log.jsonl")).splitlines()
        assert len(log_lines) == 2
        records = [json.loads(line) for line in log_lines]
        assert "valid" not in records[0]  # eval_every=2: only epoch 2 is evaluated
        assert "valid_s" not in records[0]
        assert isinstance(records[1]["valid_s"], float)
        assert 0.0 < records[1]["valid_s"] < 60.0
        assert set(records[1]["valid"]) == {"mrr", "mr", "hits1", "hits3", "hits10",
                                            "count", "protocol"}
        assert records[1]["valid"]["protocol"] == "filtered"
        assert manifest["best_valid"]["mrr"] == records[1]["valid"]["mrr"]
        assert not [f for f in os.listdir(run_dir) if f.endswith(".tmp")]
        store = load_checkpoint(os.path.join(run_dir, "last.ckpt"))
        assert store.model_kind == "distmult"

    def test_unknown_sampler_lists_kinds(self, tmp_path, toy_dataset, capsys):
        code = main(["train", "--dataset", toy_dataset, "--sampler", "frontier"])
        assert code == 1
        err = capsys.readouterr().err
        for kind in ("sr", "rw", "rwr", "rwisg", "rwisg_n"):
            assert kind in err

    def test_unknown_config_key_exits_usage(self, tmp_path, toy_dataset, capsys):
        code = main(["train", "--dataset", toy_dataset, "--set", "loss.negs=8"])
        assert code == 1
        assert "loss.negs" in capsys.readouterr().err

    def test_nonfinite_loss_writes_failed_batch(self, tmp_path, toy_dataset, monkeypatch):
        def nan_loss(g, store, m, config, rng):
            return float("nan"), None
        monkeypatch.setattr(trainer, "minibatch_loss_and_grads", nan_loss)
        code, run_dir = run_training(tmp_path, toy_dataset)
        assert code == 3
        with open(os.path.join(run_dir, "failed_batch.json")) as fh:
            failed = json.load(fh)
        assert set(failed) == {"epoch", "batch"}
        assert failed["epoch"] == 1
        assert len(failed["batch"]) == 128 and all(len(t) == 3 for t in failed["batch"])
        assert not [f for f in os.listdir(run_dir) if f.endswith(".tmp")]

    def test_bad_sampler_value_is_a_usage_error_before_the_load(self, tmp_path, toy_dataset,
                                                                capsys, monkeypatch):
        def no_load(directory):
            raise AssertionError("the dataset was loaded before the config was checked")
        monkeypatch.setattr(cli, "load_dataset", no_load)
        code, run_dir = run_training(tmp_path, toy_dataset,
                                     ["--set", "sampler.restart_probability=2"])
        assert code == 1
        assert "config error: restart_probability" in capsys.readouterr().err
        assert not os.path.exists(run_dir)

    @pytest.mark.parametrize("setting", ["model.kind=foo", "model.dimension=0",
                                         "loss.neighbor_cap=-1"])
    def test_bad_model_or_loss_value_leaves_no_run_directory(self, tmp_path, toy_dataset,
                                                             capsys, setting):
        run_dir = str(tmp_path / "run")
        code = main(["train", "--dataset", toy_dataset, "--out", run_dir, "--set", setting])
        assert code == 1
        assert capsys.readouterr().err.startswith("config error: ")
        assert not os.path.exists(run_dir)

    def test_missing_dataset_exits_data_error(self, tmp_path):
        code = main(["train", "--dataset", "no-such-dataset",
                     "--data-root", str(tmp_path)])
        assert code == 2


class TestEvalCommand:
    def test_eval_checkpoint(self, tmp_path, toy_dataset, capsys):
        code, run_dir = run_training(tmp_path, toy_dataset)
        assert code == 0
        capsys.readouterr()
        code = main(["eval", "--dataset", toy_dataset,
                     "--checkpoint", os.path.join(run_dir, "last.ckpt"),
                     "--split", "test", "--protocol", "filtered"])
        assert code == 0
        record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(record) == {"mrr", "mr", "hits1", "hits3", "hits10", "count", "protocol"}

    def test_filtered_at_least_raw(self, tmp_path, toy_dataset, capsys):
        code, run_dir = run_training(tmp_path, toy_dataset)
        ckpt = os.path.join(run_dir, "last.ckpt")
        results = {}
        for protocol in ("raw", "filtered"):
            capsys.readouterr()
            assert main(["eval", "--dataset", toy_dataset, "--checkpoint", ckpt,
                         "--protocol", protocol]) == 0
            results[protocol] = json.loads(
                capsys.readouterr().out.strip().splitlines()[-1])
        assert results["filtered"]["mrr"] >= results["raw"]["mrr"]

    def test_mismatched_checkpoint(self, tmp_path, toy_dataset, capsys):
        other = tmp_path / "other"
        main(["make-toy", "--kind", "variance", "--out", str(other), "--seed", "2"])
        code, run_dir = run_training(tmp_path, toy_dataset)
        code = main(["eval", "--dataset", str(other),
                     "--checkpoint", os.path.join(run_dir, "last.ckpt")])
        assert code == 2

    def test_empty_split_exits_data_error(self, tmp_path, toy_dataset, capsys):
        code, run_dir = run_training(tmp_path, toy_dataset)
        assert code == 0
        open(os.path.join(toy_dataset, "valid.txt"), "w").close()
        capsys.readouterr()
        code = main(["eval", "--dataset", toy_dataset, "--split", "valid",
                     "--checkpoint", os.path.join(run_dir, "last.ckpt")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "split 'valid' is empty" in err

    def test_random_checkpoint_near_random_baseline(self, tmp_path, toy_dataset, capsys):
        from kgsampler.scorers import initialize, save_checkpoint
        from kgsampler.graph import load_dataset
        g = load_dataset(toy_dataset)
        store = initialize(g.n_entities, g.n_relations, "distmult", 8, seed=9)
        ckpt = str(tmp_path / "random.ckpt")
        save_checkpoint(store, ckpt)
        capsys.readouterr()
        assert main(["eval", "--dataset", toy_dataset, "--checkpoint", ckpt,
                     "--protocol", "raw"]) == 0
        record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        expected = (np.log(g.n_entities) + 0.5772) / g.n_entities
        assert record["mrr"] < 10 * expected


class TestStatsCommand:
    def test_summary(self, toy_dataset, capsys):
        assert main(["stats", "--dataset", toy_dataset, "--summary"]) == 0
        out = capsys.readouterr().out
        assert "entities:   200" in out
        assert "relations:  3" in out

    def test_csv_outputs(self, tmp_path, toy_dataset):
        out = str(tmp_path / "stats")
        code = main(["stats", "--dataset", toy_dataset, "--samplers", "sr,rw",
                     "--batch-sizes", "32", "--num-batches", "30", "--out", out])
        assert code == 0
        sweep = read_text(os.path.join(out, "expected_degree.csv")).splitlines()
        assert sweep[0] == "policy,batch_size,expected_degree,std_error,num_batches"
        assert len(sweep) == 3
        dist = read_text(os.path.join(out, "degree_distributions.csv")).splitlines()
        assert dist[0] == "policy,batch_size,degree,probability"

    def test_single_batch(self, tmp_path, toy_dataset, capsys):
        # a one-batch sweep has no standard error; the sweep needs 30 batches
        out = str(tmp_path / "stats1")
        code = main(["stats", "--dataset", toy_dataset, "--samplers", "sr",
                     "--batch-sizes", "16", "--num-batches", "1", "--out", out])
        assert code == 1
        assert "config error" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("flag, value", [("--num-batches", "3"),
                                             ("--batch-sizes", "64,0"),
                                             ("--samplers", "sr,bogus")])
    def test_usage_error_names_the_flag_before_any_output(self, tmp_path, toy_dataset,
                                                          capsys, flag, value):
        out = str(tmp_path / "stats")
        code = main(["stats", "--dataset", toy_dataset, "--samplers", "sr",
                     "--batch-sizes", "16", "--num-batches", "30", "--out", out, flag, value])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"config error: {flag}" in captured.err
        assert not os.path.exists(out)

    def test_csvs_equal_the_library_sweep(self, tmp_path, toy_dataset):
        out = str(tmp_path / "stats")
        kinds, sizes, n, seed = ["sr", "rwr", "rwisg_n"], [16, 64], 30, 5
        assert main(["stats", "--dataset", toy_dataset, "--samplers", ",".join(kinds),
                     "--batch-sizes", "16,64", "--num-batches", str(n), "--seed", str(seed),
                     "--out", out]) == 0
        g = load_dataset(toy_dataset)
        policies = [SamplerPolicy(kind=k, seed=seed) for k in kinds]
        rows = ed_vs_batchsize_sweep(g, policies, sizes, n, seed=seed)
        dists = [row for pol, hists in sweep_points(g, policies, sizes, n, seed=seed)
                 for row in distribution_rows(pol, pol.batch_size, averaged_distribution(hists))]
        with open(os.path.join(out, "expected_degree.csv")) as fh:
            got = list(csv.DictReader(fh))
        assert got == [{k: str(v) for k, v in row.items()} for row in rows]
        with open(os.path.join(out, "degree_distributions.csv")) as fh:
            got = list(csv.DictReader(fh))
        assert got == [{k: str(v) for k, v in row.items()} for row in dists]


class TestVizCommand:
    def test_writes_dot(self, tmp_path, toy_dataset):
        out = str(tmp_path / "batch.dot")
        code = main(["viz", "--dataset", toy_dataset, "--sampler", "sr",
                     "--batch-size", "16", "--output", out])
        assert code == 0
        text = read_text(out)
        assert text.startswith("digraph")
        assert text.count("->") == 16

    def test_rw_batch_connected(self, tmp_path, toy_dataset):
        out = str(tmp_path / "walk.dot")
        code = main(["viz", "--dataset", toy_dataset, "--sampler", "rw",
                     "--batch-size", "16", "--output", out])
        assert code == 0

    def test_unwritable_output(self, tmp_path, toy_dataset):
        out = os.path.join(str(tmp_path), "missing-dir", "x.dot")
        code = main(["viz", "--dataset", toy_dataset, "--sampler", "sr",
                     "--batch-size", "4", "--output", out])
        assert code == 2
