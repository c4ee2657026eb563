import csv
import json
import os
import re
import shutil

import numpy as np
import pytest

from kgsampler import cli, trainer
from kgsampler.cli import main, resolve_config, ConfigError
from kgsampler.cli import id_space_digest
from kgsampler.graph import SPLIT_FILES, load_dataset
from kgsampler.samplers import SamplerPolicy, sample_minibatch, to_dot
from kgsampler.scorers import MODEL_KINDS, initialize, load_checkpoint, save_checkpoint
from kgsampler.stats import (
    averaged_distribution,
    distribution_rows,
    ed_vs_batchsize_sweep,
    sweep_points,
)

from conftest import readme_record_keys


def read_text(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


@pytest.fixture
def toy_dataset(tmp_path):
    out = tmp_path / "toy"
    assert main(["make-toy", "--kind", "planted", "--out", str(out), "--seed", "1"]) == 0
    return str(out)


# the eight spellings a boolean config value may take, in any case and padding
BOOLEAN_SPELLINGS = {"1": True, "yes": True, "true": True, "on": True,
                     "0": False, "no": False, "false": False, "off": False}


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

    @pytest.mark.parametrize("raw, value", [
        *[pytest.param(form, value, id=name) for spelling, value in BOOLEAN_SPELLINGS.items()
          for name, form in {spelling: spelling, spelling.upper(): spelling.upper(),
                             f"padded-{spelling}": f" {spelling}\t"}.items()],
        pytest.param("maybe", None, id="maybe"),
    ])
    def test_bool_coercion(self, raw, value):
        overrides = [f"loss.neighbors_loss={raw}"]
        if value is None:
            message = f"invalid boolean for loss.neighbors_loss: {raw!r}"
            with pytest.raises(ConfigError, match=re.escape(message)):
                resolve_config(None, overrides)
        else:
            assert resolve_config(None, overrides)["loss"]["neighbors_loss"] is value

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
        assert seeded == trainer.TrainConfig(seed=5)

    def test_renamed_loss_keys_reach_the_loss_config(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[loss]\nnegatives = 8\nneighbors_loss = true\n")
        loss = cli._train_config(resolve_config(str(ini))).loss_config
        assert loss.negatives_per_positive == 8
        assert loss.neighbors_loss_enabled is True


    @pytest.mark.parametrize("text, line", [
        (b"epochs = 7\n", 1),                          # no section header
        (b"[train]\nepochs = 7\nepochs = 8\n", 3),     # a duplicate key
        (b"[train]\nepochs = %(missing)s\n", None),   # a bad interpolation
        (b"[train]\nepochs = \xff\xfe\n", None),       # bytes that do not decode
    ], ids=["no_section_header", "duplicate_key", "bad_interpolation", "undecodable"])
    def test_malformed_ini_is_a_config_error(self, tmp_path, toy_dataset, capsys, text, line):
        ini = tmp_path / "run.ini"
        ini.write_bytes(text)
        with pytest.raises(ConfigError, match="run.ini"):
            resolve_config(str(ini))
        capsys.readouterr()
        run_dir = tmp_path / "run"
        assert main(["train", "--config", str(ini), "--dataset", toy_dataset,
                     "--out", str(run_dir), "--epochs", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err
        assert not run_dir.exists()
        # one line that names the file once, then its line number if configparser has one,
        # and does not quote the raw line
        assert err.endswith("\n") and err.count("\n") == 1 and err.count("run.ini") == 1
        assert err.startswith(f"config error: {ini}: " + (f"line {line}: " if line else ""))
        assert "epochs = " not in err


class TestMakeToy:
    def test_writes_splits(self, toy_dataset):
        for split in ("train.txt", "valid.txt", "test.txt"):
            assert os.path.isfile(os.path.join(toy_dataset, split))

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["make-toy", "--kind", "dense", "--out", str(a), "--seed", "4"])
        main(["make-toy", "--kind", "dense", "--out", str(b), "--seed", "4"])
        assert (a / "train.txt").read_text() == (b / "train.txt").read_text()

    def test_out_naming_a_file_is_a_data_error(self, tmp_path, capsys):
        out = tmp_path / "toy"
        out.write_text("")
        assert main(["make-toy", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("data error: ")
        assert out.read_text() == ""


class TestTrainCommand:
    def test_run_directory_contents(self, tmp_path, toy_dataset, caplog):
        code, run_dir = run_training(tmp_path, toy_dataset)
        assert code == 0
        assert "no validation will run" not in caplog.text
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
        peaks = [r["peak_rss_mb"] for r in records]
        assert all(isinstance(p, float) and p > 0.0 for p in peaks)
        assert peaks[1] >= peaks[0]   # a process's peak never falls
        assert "valid_s" not in records[0]
        assert isinstance(records[1]["valid_s"], float)
        assert 0.0 < records[1]["valid_s"] < 60.0
        assert set(records[1]["valid"]) == {"mrr", "mr", "hits1", "hits3", "hits10",
                                            "count", "protocol"}
        assert records[1]["valid"]["protocol"] == "filtered"
        assert manifest["best_valid"] == {"epoch": 2, "mrr": records[1]["valid"]["mrr"]}
        assert not [f for f in os.listdir(run_dir) if f.endswith(".tmp")]
        store = load_checkpoint(os.path.join(run_dir, "last.ckpt"))
        assert store.model_kind == "distmult"

    @pytest.mark.parametrize("extra, expected", [
        # the loss's query backward is per model
        *[pytest.param(["--model", kind], {"model.kind": kind}, id=kind) for kind in MODEL_KINDS],
        # a walk sampler that reads the visited entities' incidence runs for two rules
        pytest.param(["--sampler", "rwisg_n"], {"sampler.kind": "rwisg_n"}, id="rwisg_n"),
        # a cap of 2 truncates most of the toy graph's neighbor sets
        pytest.param(["--set", "loss.neighbors_loss=true", "--set", "loss.neighbor_cap=2"],
                     {"loss.neighbors_loss": True, "loss.neighbor_cap": 2}, id="neighbors_loss"),
        # the SGD step and the unit-ball projection, each over chunks of the touched rows
        pytest.param(["--set", "train.optimizer=sgd"], {"train.optimizer": "sgd"}, id="sgd"),
        pytest.param(["--set", "train.normalize_entities=true"],
                     {"train.normalize_entities": True}, id="normalize_entities"),
        # an INI file's renamed loss key and a train key
        pytest.param(["--config", "run.ini"],
                     {"loss.neighbors_loss": True, "train.learning_rate": 0.01}, id="config_file"),
    ])
    def test_one_epoch_trains(self, tmp_path, toy_dataset, monkeypatch, extra, expected):
        monkeypatch.chdir(tmp_path)    # --config names a file here
        (tmp_path / "run.ini").write_text("[loss]\nneighbors_loss = yes\n"
                                          "[train]\nlearning_rate = 0.01\n")
        code, run_dir = run_training(tmp_path, toy_dataset, [*extra, "--epochs", "1"])
        assert code == 0
        records = [json.loads(line)
                   for line in read_text(os.path.join(run_dir, "train_log.jsonl")).splitlines()]
        assert len(records) == 1 and np.isfinite(records[0]["mean_loss"])
        assert os.path.getsize(os.path.join(run_dir, "last.ckpt")) > 0
        config = json.loads(read_text(os.path.join(run_dir, "manifest.json")))["config"]
        for dotted, value in expected.items():
            section, key = dotted.split(".")
            assert config[section][key] == value and type(config[section][key]) is type(value)

    def test_runs_started_in_one_second_get_their_own_directories(self, tmp_path, toy_dataset,
                                                                  monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)    # the default run directories go under ./runs
        monkeypatch.setattr(cli.time, "strftime", lambda fmt: "20260101-120000")
        for seed in ("1", "2", "3"):
            assert main(["train", "--dataset", os.path.basename(toy_dataset),
                         "--data-root", str(tmp_path), "--model", "distmult",
                         "--dimension", "8", "--epochs", "1", "--seed", seed]) == 0
        base = os.path.join("runs", "toy-distmult-sr-20260101-120000")
        run_dirs = [base, f"{base}-2", f"{base}-3"]
        assert capsys.readouterr().out.splitlines() == [f"run directory: {d}" for d in run_dirs]
        assert sorted(os.listdir("runs")) == [os.path.basename(d) for d in run_dirs]
        seeds = [json.loads(read_text(os.path.join(d, "manifest.json")))["seed"] for d in run_dirs]
        assert seeds == [1, 2, 3]

    @pytest.mark.parametrize("dataset", ["absolute", "sub/toy", "sub/toy/"])
    def test_default_run_directory_is_named_for_the_dataset_base_name(self, tmp_path,
                                                                       monkeypatch, capsys,
                                                                       dataset):
        work = tmp_path / "work"
        assert main(["make-toy", "--kind", "planted", "--out", str(work / "sub" / "toy")]) == 0
        monkeypatch.chdir(work)
        monkeypatch.setattr(cli.time, "strftime", lambda fmt: "20260101-120000")
        if dataset == "absolute":
            dataset = str(work / "sub" / "toy")
        assert main(["train", "--dataset", dataset, "--model", "distmult",
                     "--dimension", "8", "--epochs", "1"]) == 0
        run_dir = os.path.join("runs", "toy-distmult-sr-20260101-120000")
        assert capsys.readouterr().out.splitlines()[-1] == f"run directory: {run_dir}"
        assert os.listdir("runs") == [os.path.basename(run_dir)]
        assert os.path.isfile(os.path.join(run_dir, "last.ckpt"))

    @pytest.mark.parametrize("kind, epochs, reason", [
        ("dense", "2", "empty valid split"),
        ("planted", "1", "train.epochs < train.eval_every"),
    ])
    def test_run_without_validation_records_no_best(self, tmp_path, caplog, kind, epochs,
                                                     reason):
        dataset = str(tmp_path / kind)
        assert main(["make-toy", "--kind", kind, "--out", dataset]) == 0
        code, run_dir = run_training(tmp_path, dataset, ["--epochs", epochs])
        assert code == 0
        assert f"no validation will run ({reason}): no best.ckpt" in caplog.text
        manifest = json.loads(read_text(os.path.join(run_dir, "manifest.json")))
        assert manifest["best_valid"] is None
        assert not os.path.exists(os.path.join(run_dir, "best.ckpt"))
        assert os.path.isfile(os.path.join(run_dir, "last.ckpt"))
        records = [json.loads(line)
                   for line in read_text(os.path.join(run_dir, "train_log.jsonl")).splitlines()]
        assert len(records) == int(epochs) and not any("valid" in r for r in records)

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

    def test_nonfinite_loss_writes_failed_batch(self, tmp_path, toy_dataset, monkeypatch,
                                                capsys):
        def nan_loss(g, store, m, config, rng):
            return float("nan"), None
        monkeypatch.setattr(trainer, "minibatch_loss_and_grads", nan_loss)
        capsys.readouterr()
        code, run_dir = run_training(tmp_path, toy_dataset)
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and "Traceback" not in err
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
                                         "loss.neighbor_cap=-1", "train.eval_every=0",
                                         "train.epochs=-1"])
    def test_bad_model_or_loss_value_leaves_no_run_directory(self, tmp_path, toy_dataset,
                                                             capsys, setting):
        run_dir = str(tmp_path / "run")
        code = main(["train", "--dataset", toy_dataset, "--out", run_dir, "--set", setting])
        assert code == 1
        assert capsys.readouterr().err.startswith("config error: ")
        assert not os.path.exists(run_dir)

    @pytest.mark.parametrize("setting, field", [
        ("loss.adversarial_temperature=nan", "adversarial_temperature"),
        ("loss.adversarial_temperature=inf", "adversarial_temperature"),
        ("train.learning_rate=nan", "learning_rate"),
        ("train.learning_rate=inf", "learning_rate"),
    ])
    def test_non_finite_value_is_a_usage_error_before_the_load(self, tmp_path, toy_dataset,
                                                                capsys, monkeypatch,
                                                                setting, field):
        def no_load(directory):
            raise AssertionError("the dataset was loaded before the config was checked")
        monkeypatch.setattr(cli, "load_dataset", no_load)
        code, run_dir = run_training(tmp_path, toy_dataset, ["--set", setting])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field} must be finite")
        assert not os.path.exists(run_dir)

    def test_negative_seed_is_a_usage_error_before_the_load(self, tmp_path, toy_dataset,
                                                             capsys, monkeypatch):
        def no_load(directory):
            raise AssertionError("the dataset was loaded before the config was checked")
        monkeypatch.setattr(cli, "load_dataset", no_load)
        code, run_dir = run_training(tmp_path, toy_dataset, ["--seed", "-1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: seed must be >= 0") and "Traceback" not in err
        assert not os.path.exists(run_dir)

    def test_empty_train_split_is_a_data_error(self, tmp_path, toy_dataset, capsys):
        open(os.path.join(toy_dataset, "train.txt"), "w").close()
        code, run_dir = run_training(tmp_path, toy_dataset)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "split 'train' is empty" in err
        assert not os.path.exists(run_dir)

    def test_one_entity_dataset_is_a_data_error(self, tmp_path, capsys):
        dataset = tmp_path / "one"
        dataset.mkdir()
        (dataset / "train.txt").write_text("a\tr\ta\n")
        (dataset / "valid.txt").write_text("")
        (dataset / "test.txt").write_text("")
        code, run_dir = run_training(tmp_path, str(dataset))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "1 entity, but corruption needs at least 2" in err
        assert not os.path.exists(run_dir)

    def test_epoch_record_keys_are_the_readme_list(self, tmp_path, toy_dataset):
        code, run_dir = run_training(tmp_path, toy_dataset)    # only epoch 2 validates
        assert code == 0
        records = [json.loads(line)
                   for line in read_text(os.path.join(run_dir, "train_log.jsonl")).splitlines()]
        every, extra = readme_record_keys()
        assert extra == {"valid", "valid_s"}
        assert set(records[0]) == every
        assert set(records[1]) == every | extra

    def test_out_naming_a_file_is_a_data_error(self, tmp_path, toy_dataset, capsys):
        open(tmp_path / "run", "w").close()
        code, run_dir = run_training(tmp_path, toy_dataset)
        assert code == 2
        assert capsys.readouterr().err.startswith("data error: ")
        assert os.path.getsize(run_dir) == 0

    def test_out_holding_a_previous_run_is_a_usage_error(self, tmp_path, toy_dataset, capsys):
        """A second run into a run directory writes nothing; an existing empty one trains."""
        os.mkdir(tmp_path / "run")
        assert run_training(tmp_path, toy_dataset)[0] == 0
        run_dir = tmp_path / "run"
        before = {f.name: f.read_bytes() for f in run_dir.iterdir()}
        capsys.readouterr()
        code, _ = run_training(tmp_path, toy_dataset, ["--seed", "4"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"config error: --out {run_dir} holds a previous run (manifest.json); "
            "name a new one\n")
        assert {f.name: f.read_bytes() for f in run_dir.iterdir()} == before

    def test_flags_apply_after_set_and_write_the_config_set_writes(self, tmp_path, toy_dataset):
        def run(name, *args):
            run_dir = str(tmp_path / name)
            assert main(["train", *args, "--out", run_dir, "--set", "loss.negatives=8"]) == 0
            return run_dir

        one = run("one", "--dataset", toy_dataset, "--model", "distmult", "--batch-size", "128",
                  "--dimension", "8", "--epochs", "1", "--set", "train.epochs=5")
        assert len(read_text(os.path.join(one, "train_log.jsonl")).splitlines()) == 1
        # every one of the eight flags, each away from its default, against the same
        # values as --set; --data-root with a bare --dataset name
        settings = {"--dataset": ("dataset.name", os.path.basename(toy_dataset)),
                    "--data-root": ("dataset.root", os.path.dirname(toy_dataset)),
                    "--model": ("model.kind", "transe"), "--dimension": ("model.dimension", "6"),
                    "--sampler": ("sampler.kind", "rw"),
                    "--batch-size": ("sampler.batch_size", "64"),
                    "--epochs": ("train.epochs", "1"), "--seed": ("train.seed", "5")}
        assert sorted(settings) == sorted(cli.TRAIN_FLAGS)
        flags = run("flags", *[arg for flag, (_, value) in settings.items()
                               for arg in (flag, value)])
        sets = run("sets", *[arg for dotted, value in settings.values()
                             for arg in ("--set", f"{dotted}={value}")])
        configs = [json.loads(read_text(os.path.join(d, "manifest.json")))["config"]
                   for d in (flags, sets)]
        # the JSON text, so that an int written as a float or a string shows
        assert json.dumps(configs[0], sort_keys=True) == json.dumps(configs[1], sort_keys=True)
        for dotted, value in settings.values():
            section, key = dotted.split(".")
            got = configs[0][section][key]
            assert str(got) == value and got != cli.DEFAULTS[section][key]

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
        capsys.readouterr()
        # the variance graph holds no test triples: evaluate its train split
        code = main(["eval", "--dataset", str(other), "--split", "train",
                     "--checkpoint", os.path.join(run_dir, "last.ckpt")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "does not match" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("fault", ["missing", "garbage", "header_cut"])
    def test_unreadable_checkpoint_is_a_data_error(self, tmp_path, toy_dataset, capsys, fault):
        ckpt = tmp_path / "model.ckpt"
        if fault == "garbage":
            ckpt.write_bytes(b"\x93garbage bytes\x00" * 8)
        elif fault == "header_cut":
            g = load_dataset(toy_dataset)
            save_checkpoint(initialize(g.n_entities, g.n_relations, "distmult", 8), str(ckpt))
            ckpt.write_bytes(ckpt.read_bytes()[:20])
        capsys.readouterr()
        assert main(["eval", "--dataset", toy_dataset, "--checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(ckpt) in err
        assert "Traceback" not in err

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


    def test_id_space_digest_follows_the_ids(self, tmp_path):
        """Equal for the same files; another digest when moved lines move the ids,
        or when a name moves between the entity and the relation lists."""
        def digest(name, train):
            (tmp_path / name).mkdir()
            for split, rows in (("train", train), ("valid", []), ("test", [])):
                (tmp_path / name / f"{split}.txt").write_text(
                    "".join("\t".join(row) + "\n" for row in rows), encoding="utf-8")
            return id_space_digest(load_dataset(str(tmp_path / name)))

        rows = [("alice", "knows", "bob"), ("bob", "likes", "carol")]
        first = digest("a", rows)
        assert len(first) == 32 and digest("b", rows) == first
        assert digest("moved", rows[::-1]) != first
        # names a, b, c in order, split 2 + 1 and 1 + 2
        assert digest("ab_c", [("a", "c", "b")]) != digest("a_bc", [("a", "b", "a"),
                                                                  ("a", "c", "a")])

    def test_moved_ids_are_a_data_error(self, tmp_path, toy_dataset, capsys):
        """The same triples with train.txt's lines shuffled give entities other ids."""
        code, run_dir = run_training(tmp_path, toy_dataset)
        assert code == 0
        ckpt = os.path.join(run_dir, "last.ckpt")
        moved = tmp_path / "moved"
        shutil.copytree(toy_dataset, moved)
        lines = (moved / "train.txt").read_text(encoding="utf-8").splitlines(keepends=True)
        order = np.random.default_rng(0).permutation(len(lines))
        (moved / "train.txt").write_text("".join(lines[i] for i in order), encoding="utf-8")
        g, h = load_dataset(toy_dataset), load_dataset(str(moved))
        assert (g.n_entities, g.n_relations) == (h.n_entities, h.n_relations)
        assert g.entity_names != h.entity_names
        capsys.readouterr()
        assert main(["eval", "--dataset", str(moved), "--checkpoint", ckpt]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "Traceback" not in err
        assert id_space_digest(g).hex() in err and id_space_digest(h).hex() in err
        assert load_checkpoint(ckpt).id_space == id_space_digest(g)

    def test_zero_dimension_checkpoint_is_a_data_error(self, tmp_path, toy_dataset, capsys):
        """A KGSCKPT2 header with K = 0 and the dataset's id space: a file of 80 bytes whose
        size matches its header, but whose zero-width tables cannot rank anything."""
        g = load_dataset(toy_dataset)
        store = initialize(g.n_entities, g.n_relations, "distmult", 8)
        store.id_space = id_space_digest(g)
        ckpt = tmp_path / "k0.ckpt"
        save_checkpoint(store, str(ckpt))
        blob = ckpt.read_bytes()
        ckpt.write_bytes(blob[:40] + bytes(8) + blob[48:80])    # K = 0, and no table bytes
        capsys.readouterr()
        assert main(["eval", "--dataset", toy_dataset, "--checkpoint", str(ckpt)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err == (f"data error: cannot load checkpoint: {ckpt}: "
                                "model dimension must be >= 1, got 0\n")

    def test_kgsckpt1_checkpoint_still_evaluates(self, tmp_path, toy_dataset, capsys, caplog):
        """A checkpoint in the header format without the id-space digest loads, with a warning."""
        assert run_training(tmp_path, toy_dataset)[0] == 0
        new = tmp_path / "run" / "last.ckpt"
        blob = new.read_bytes()
        assert blob[:8] == b"KGSCKPT2"
        old = tmp_path / "old.ckpt"
        old.write_bytes(b"KGSCKPT1" + blob[8:48] + blob[80:])   # the 48-byte header
        records = []
        for ckpt in (str(new), str(old)):
            capsys.readouterr()
            caplog.clear()
            assert main(["eval", "--dataset", toy_dataset, "--checkpoint", ckpt]) == 0
            records.append(capsys.readouterr().out)
        assert records[0] == records[1]
        assert "cannot be checked" in caplog.text and str(old) in caplog.text


class TestStatsCommand:
    @pytest.mark.parametrize("kind, lines", [
        ("planted", ["entities:   200", "relations:  3"]),
        ("variance", ["train:      6000"]),    # the key-based random graph generator's
        ("clusters", ["entities:   1990", "relations:  16"]),    # 10 in no triple are not written
    ], ids=["planted", "variance", "clusters"])
    def test_summary(self, tmp_path, capsys, kind, lines):
        dataset = str(tmp_path / kind)
        assert main(["make-toy", "--kind", kind, "--out", dataset, "--seed", "1"]) == 0
        assert main(["stats", "--dataset", dataset, "--summary"]) == 0
        out = capsys.readouterr().out
        for line in lines:
            assert line in out

    def test_summary_of_a_dataset_with_no_triples(self, tmp_path, capsys):
        """No entity has a degree, so the audit prints counts only, and numpy warns of nothing."""
        dataset = tmp_path / "empty"
        dataset.mkdir()
        for fname in SPLIT_FILES.values():
            (dataset / fname).write_text("")
        assert main(["stats", "--dataset", str(dataset), "--summary"]) == 0
        out = capsys.readouterr().out
        assert "entities:   0" in out and "train:      0" in out
        assert "degree" not in out

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

    def test_out_naming_a_file_is_a_data_error_before_any_output(self, tmp_path, toy_dataset,
                                                                  capsys):
        out = tmp_path / "stats"
        out.write_text("")
        code = main(["stats", "--dataset", toy_dataset, "--samplers", "sr",
                     "--batch-sizes", "16", "--num-batches", "30", "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("data error: ")
        assert out.read_text() == ""

    def test_undecodable_byte_is_a_data_error(self, toy_dataset, capsys):
        path = os.path.join(toy_dataset, "valid.txt")
        with open(path, "ab") as fh:
            fh.write("caf\u00e9\tr\tb\n".encode("latin-1"))
        assert main(["stats", "--dataset", toy_dataset, "--summary"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"data error: {path}: not UTF-8 text "
                                "(invalid continuation byte, byte b'\\xe9')\n")

    def test_csvs_equal_the_library_sweep(self, tmp_path, toy_dataset):
        out = str(tmp_path / "stats")
        kinds, sizes, n, seed = ["sr", "rwr", "rwisg_n"], [16, 64], 30, 5
        assert main(["stats", "--dataset", toy_dataset, "--samplers", ",".join(kinds),
                     "--batch-sizes", "16,64", "--num-batches", str(n), "--seed", str(seed),
                     "--out", out]) == 0
        g = load_dataset(toy_dataset)
        policies = [SamplerPolicy(kind=k) for k in kinds]
        rows = ed_vs_batchsize_sweep(g, policies, sizes, n, seed=seed)
        dists = [row for pol, hists in sweep_points(g, policies, sizes, n, seed=seed)
                 for row in distribution_rows(pol, pol.batch_size, averaged_distribution(hists))]
        with open(os.path.join(out, "expected_degree.csv")) as fh:
            got = list(csv.DictReader(fh))
        assert got == [{k: str(v) for k, v in row.items()} for row in rows]
        with open(os.path.join(out, "degree_distributions.csv")) as fh:
            got = list(csv.DictReader(fh))
        assert got == [{k: str(v) for k, v in row.items()} for row in dists]


class TestEmptyTrainSplit:
    """Commands that sample the train split stop with a data error when it is empty."""

    @pytest.fixture
    def no_train(self, toy_dataset):
        open(os.path.join(toy_dataset, "train.txt"), "w").close()
        return toy_dataset

    def test_stats_exits_data_error_before_any_output(self, tmp_path, no_train, capsys):
        out = str(tmp_path / "stats")
        code = main(["stats", "--dataset", no_train, "--batch-sizes", "4",
                     "--num-batches", "30", "--out", out])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("data error: ") and "split 'train' is empty" in captured.err
        assert captured.out == ""
        assert not os.path.exists(out)

    def test_stats_summary_still_works(self, no_train, capsys):
        assert main(["stats", "--dataset", no_train, "--summary"]) == 0
        assert "train:      0" in capsys.readouterr().out

    def test_viz_exits_data_error(self, tmp_path, no_train, capsys):
        out = str(tmp_path / "batch.dot")
        code = main(["viz", "--dataset", no_train, "--sampler", "rw",
                     "--batch-size", "4", "--output", out])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "Traceback" not in err
        assert not os.path.exists(out)


@pytest.mark.parametrize("command", [
    ["stats", "--dataset", "{toy}", "--batch-sizes", "16", "--num-batches", "30", "--out", "{out}"],
    ["viz", "--dataset", "{toy}", "--sampler", "rw", "--output", "{out}"],
    ["make-toy", "--out", "{out}"],
], ids=["stats", "viz", "make-toy"])
def test_negative_seed_is_a_usage_error(tmp_path, toy_dataset, capsys, command):
    """stats, viz and make-toy share one --seed check, made before any output."""
    out = tmp_path / "out"
    assert main([*(arg.format(toy=toy_dataset, out=out) for arg in command), "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "config error: --seed: seed must be >= 0\n"
    assert not out.exists()


@pytest.mark.parametrize("split, command", [
    ("train", ["stats", "--batch-sizes", "4", "--num-batches", "30"]),
    ("train", ["viz", "--sampler", "rw", "--batch-size", "4", "--output", "batch.dot"]),
    ("valid", ["eval", "--split", "valid", "--checkpoint", "model.ckpt"]),
], ids=["stats", "viz", "eval"])
def test_empty_split_names_the_dataset_directory(tmp_path, toy_dataset, capsys, monkeypatch,
                                                 split, command):
    """A dataset given by name under --data-root is reported as <root>/<name>."""
    open(os.path.join(toy_dataset, SPLIT_FILES[split]), "w").close()
    root, name = os.path.split(toy_dataset)
    cwd = tmp_path / "elsewhere"    # holds no directory called `name`
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert main([command[0], "--dataset", name, "--data-root", root, *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and os.listdir(".") == []
    assert captured.err == f"data error: {toy_dataset}: split '{split}' is empty\n"


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

    def test_zero_batch_size_is_a_usage_error(self, tmp_path, toy_dataset, capsys):
        out = str(tmp_path / "batch.dot")
        code = main(["viz", "--dataset", toy_dataset, "--sampler", "rw",
                     "--batch-size", "0", "--output", out])
        assert code == 1
        err = capsys.readouterr().err
        assert "config error: --batch-size: batch_size must be >= 1" in err
        assert "Traceback" not in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("kind", ["sr", "rwisg", "rwisg_n"])
    def test_dot_equals_the_library_batch(self, tmp_path, toy_dataset, kind):
        """``--seed N`` draws the batch from ``default_rng(N)``."""
        out = tmp_path / "batch.dot"
        assert main(["viz", "--dataset", toy_dataset, "--sampler", kind, "--batch-size", "24",
                     "--seed", "3", "--output", str(out)]) == 0
        g = load_dataset(toy_dataset)
        m = sample_minibatch(g, SamplerPolicy(kind, batch_size=24), np.random.default_rng(3))
        assert out.read_bytes() == to_dot(m, g).encode("utf-8")

    def test_unwritable_output(self, tmp_path, toy_dataset):
        out = os.path.join(str(tmp_path), "missing-dir", "x.dot")
        code = main(["viz", "--dataset", toy_dataset, "--sampler", "sr",
                     "--batch-size", "4", "--output", out])
        assert code == 2
