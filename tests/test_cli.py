"""End-to-end command tests: exit codes, outputs, reproducibility."""

import glob
import importlib
import inspect
import json
import os
import pkgutil
import re

import pytest

import kgreason
from conftest import LAYOUT_FAULTS, damage_layout, rewrite_header, set_header
from kgreason.cli import load_run_config, main, UserError
from kgreason.training import load_checkpoint

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")

# settings that have one value and are no longer keys of any section
RETIRED_KEYS = ("model.mlp_depth=3", "model.ffn_depth=2", "model.ffn_multiplier=4",
                "model.layer_norm_eps=1e-5", "model.norm_eps=1e-12", "model.dense_guard=4096",
                "training.adam_beta1=0.9", "training.adam_beta2=0.999", "training.adam_eps=1e-8")

TOY_TRIPLES = [
    ("a", "r0", "b"), ("b", "r0", "c"), ("c", "r1", "d"), ("d", "r0", "e"),
    ("e", "r1", "a"), ("a", "r1", "c"), ("b", "r1", "e"), ("c", "r0", "a"),
]


def write_dataset(d, splits: dict):
    d.mkdir()
    for name, rows in splits.items():
        (d / f"{name}.txt").write_text("".join(f"{h}\t{r}\t{t}\n" for h, r, t in rows))
    return d


def write_config(tmp_path, data_dir):
    cfg = tmp_path / "toy.cfg"
    cfg.write_text(f"""\
[dataset]
path = {data_dir}

[model]
hidden_dim = 8
attention_layers = 1
query_layers = 1
value_layers = 1
noise_mode = per_forward
precision = float64

[training]
learning_rate = 5e-3
num_negatives = 2
epochs = 2
batch_size = 4
seed = 3
eval_interval = 1

[run]
output_dir = {tmp_path / "run"}
verbosity = quiet
""")
    return cfg


@pytest.fixture
def toy_data(tmp_path):
    return write_dataset(tmp_path / "toy", {"train": TOY_TRIPLES[:6], "valid": TOY_TRIPLES[6:7],
                                            "test": TOY_TRIPLES[7:]})


@pytest.fixture
def toy_config(tmp_path, toy_data):
    return write_config(tmp_path, toy_data)


@pytest.fixture(scope="module")
def chain_data(tmp_path_factory):
    """A path over 4097 entities, one more than dense attention takes."""
    rows = [(f"e{i}", "r0", f"e{i + 1}") for i in range(4096)]
    return write_dataset(tmp_path_factory.mktemp("chain") / "chain",
                         {"train": rows, "valid": rows[:1], "test": rows[1:2]})


class TestConfigParsing:
    def test_round_trip(self, toy_config, toy_data):
        settings = load_run_config(str(toy_config))
        assert list(settings) == ["dataset", "model", "training", "run"]
        assert settings["model"].hidden_dim == 8 and settings["training"].epochs == 2
        assert settings["run"].verbosity == "quiet"
        assert settings["dataset"].path == str(toy_data) and settings["dataset"].mode == "auto"

    def test_byte_order_mark_ignored(self, toy_config, tmp_path):
        marked = tmp_path / "marked.cfg"
        marked.write_bytes(b"\xef\xbb\xbf" + toy_config.read_bytes())
        assert load_run_config(str(marked)) == load_run_config(str(toy_config))

    def test_resolved_config_loads_back_equal(self, toy_config, tmp_path):
        overrides = ["training.epochs=0", "training.max_valid_queries=3"]
        assert main(["train", "--config", str(toy_config), "--seed", "5",
                     *(f"--set={item}" for item in overrides)]) == 0
        settings = load_run_config(str(toy_config), overrides)
        settings["training"].seed = 5
        assert load_run_config(str(tmp_path / "run" / "resolved.cfg")) == settings

    @pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(CONFIGS, "*.cfg"))),
                             ids=os.path.basename)
    def test_shipped_configs_parse(self, path):
        settings = load_run_config(path)
        assert settings["dataset"].path and settings["run"].output_dir
        settings["model"].validate()

    def test_unknown_key_rejected(self, toy_config):
        with pytest.raises(UserError, match="unknown key"):
            load_run_config(str(toy_config), overrides=["model.not_a_knob=1"])

    def test_set_overrides_file(self, toy_config):
        settings = load_run_config(str(toy_config), overrides=["model.hidden_dim=16"])
        assert settings["model"].hidden_dim == 16

    def test_removed_keys_rejected(self, toy_config, capsys):
        for item in ("run.threads=2", "model.heads=1", *RETIRED_KEYS):
            section, key = item.split("=")[0].split(".")
            with pytest.raises(UserError, match="unknown key"):
                load_run_config(str(toy_config), overrides=[item])
            assert main(["train", "--config", str(toy_config), "--set", item]) == 2
            assert capsys.readouterr().err.startswith(f"error: unknown key {key!r} in section [{section}]")

    @pytest.mark.parametrize("item", ["model.hidden_dim=abc", "training.learning_rate=fast",
                                      "model.kernel_mode=bogus", "model.precision=float16"])
    def test_bad_values_exit_2(self, toy_config, item, capsys):
        assert main(["train", "--config", str(toy_config), "--set", item]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("hidden_dim = 8\n")
        assert main(["train", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: malformed config file")

    def test_missing_config_is_user_error(self):
        with pytest.raises(UserError):
            load_run_config("/does/not/exist.cfg")


class TestTrainCommand:
    def test_smoke_writes_outputs(self, toy_config, tmp_path, capsys):
        rc = main(["train", "--config", str(toy_config)])
        assert rc == 0
        out_dir = tmp_path / "run"
        assert (out_dir / "checkpoint.bin").exists()
        assert (out_dir / "metrics.jsonl").exists()
        assert (out_dir / "resolved.cfg").exists()
        assert "best validation MRR" in capsys.readouterr().out

    def test_missing_dataset_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[dataset]\npath = /nope/nothing\n")
        rc = main(["train", "--config", str(cfg)])
        assert rc == 2
        assert "/nope/nothing" in capsys.readouterr().err

    def test_unknown_dataset_mode_exits_2(self, toy_config, capsys):
        rc = main(["train", "--config", str(toy_config), "--set", "dataset.mode=bogus"])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()[-1]
        assert err == "error: unknown dataset mode 'bogus'; expected one of auto, transductive, inductive"

    def test_too_many_negatives_exits_2(self, tmp_path, capsys):
        data_dir = write_dataset(tmp_path / "tiny", {"train": [("a", "r0", "b"), ("b", "r0", "c")],
                                                     "valid": [("c", "r0", "a")],
                                                     "test": [("a", "r0", "c")]})
        cfg = write_config(tmp_path, data_dir)
        assert main(["train", "--config", str(cfg), "--set", "training.num_negatives=3"]) == 2
        err = capsys.readouterr().err.splitlines()[-1]
        assert err.startswith("error: training.num_negatives = 3") and "has 3" in err
        assert not (tmp_path / "run").exists()  # refused before any output, resolved.cfg included
        assert main(["train", "--config", str(cfg)]) == 0  # 2 negatives fit beside the gold

    def test_refused_resume_writes_nothing(self, toy_config, tmp_path, capsys):
        out = tmp_path / "first"
        assert main(["train", "--config", str(toy_config), "--set", "training.epochs=1",
                     "--set", "model.hidden_dim=8", "--out", str(out)]) == 0
        before = {f.name: f.read_bytes() for f in out.iterdir()}
        rc = main(["train", "--config", str(toy_config), "--resume", str(out / "checkpoint.bin"),
                   "--set", "model.hidden_dim=16", "--out", str(out)])
        assert rc == 2
        assert "checkpoint model configuration differs" in capsys.readouterr().err
        assert {f.name: f.read_bytes() for f in out.iterdir()} == before  # resolved.cfg included

    @pytest.mark.parametrize("train_rows", [
        [TOY_TRIPLES[2]] + TOY_TRIPLES[:2] + TOY_TRIPLES[3:6],  # the same facts, r1 first: ids swap
        [row for row in TOY_TRIPLES[:6] if row[1] == "r0"],     # r1 dropped
    ], ids=["reordered", "dropped"])
    def test_resume_refuses_foreign_relation_vocabulary(self, toy_config, tmp_path, train_rows, capsys):
        first = tmp_path / "first"
        assert main(["train", "--config", str(toy_config), "--set", "training.epochs=0",
                     "--out", str(first)]) == 0
        other = write_dataset(tmp_path / "other", {"train": train_rows, "valid": [TOY_TRIPLES[7]],
                                                   "test": [TOY_TRIPLES[7]]})
        out = tmp_path / "resumed"
        rc = main(["train", "--config", str(toy_config), "--set", f"dataset.path={other}",
                   "--resume", str(first / "checkpoint.bin"), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()[-1]
        assert err.startswith(f"error: {first / 'checkpoint.bin'}: checkpoint relation vocabulary differs")
        assert not out.exists()

    @pytest.mark.parametrize("damage, message", [
        (lambda h: h.update(rng={}), "rng.shuffle is not a PCG64 generator state"),
        (lambda h: h["rng"]["noise"].update(bit_generator="MT19937"),
         "rng.noise is not a PCG64 generator state"),
        (lambda h: h["rng"]["negatives"]["state"].update(inc="x"),
         "rng.negatives is not a PCG64 generator state"),
        (lambda h: h.update(training_state={}),
         "training_state.epoch is None; a resume needs an integer >= 0"),
        (lambda h: h["training_state"].update(evals_since_best=-1),
         "training_state.evals_since_best is -1; a resume needs an integer >= 0"),
        (lambda h: h["training_state"]["best"].update(epoch=1.5),
         "training_state.best.epoch is 1.5; a resume needs an integer >= 0"),
        (lambda h: h["training_state"]["best"].update(mrr="high"),
         "training_state.best.mrr is 'high'; a resume needs a number"),
        (lambda h: h.update(adam_step="x"), "adam_step is 'x'; a resume needs an integer >= 0"),
        (lambda h: h.update(adam_step=-1), "adam_step is -1; a resume needs an integer >= 0"),
    ], ids=["rng-empty", "rng-not-pcg64", "rng-bad-state", "training-state-empty",
            "evals-since-best-negative", "best-epoch-float", "best-mrr-string", "adam-step-string",
            "adam-step-negative"])
    def test_resume_state_fault_exits_2(self, toy_config, tmp_path, damage, message, capsys):
        first = tmp_path / "first"
        assert main(["train", "--config", str(toy_config), "--set", "training.epochs=1",
                     "--out", str(first)]) == 0
        rewrite_header(first / "checkpoint.bin", damage)
        capsys.readouterr()
        out = tmp_path / "resumed"
        assert main(["train", "--config", str(toy_config), "--resume", str(first / "checkpoint.bin"),
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == f"error: {first / 'checkpoint.bin'}: checkpoint {message}"
        assert not out.exists()  # refused before resolved.cfg or metrics.jsonl

    def test_resume_reads_checkpoint_once(self, toy_config, tmp_path, monkeypatch):
        out = tmp_path / "run"
        assert main(["train", "--config", str(toy_config), "--set", "training.epochs=1",
                     "--out", str(out)]) == 0
        reads = []

        def counted(path, *args, **kwargs):
            reads.append(path)
            return load_checkpoint(path, *args, **kwargs)

        monkeypatch.setattr("kgreason.training.load_checkpoint", counted)
        monkeypatch.setattr("kgreason.cli.load_checkpoint", counted)
        assert main(["train", "--config", str(toy_config), "--resume", str(out / "checkpoint.bin"),
                     "--out", str(out)]) == 0
        assert reads == [str(out / "checkpoint.bin")]

    @pytest.mark.parametrize("split, line, message", [
        ("train", "a\tr0", "{path}:8: expected 3 tab-separated fields, got 2"),
        ("valid", "a\tnew\tb", "{path}:3: unknown token 'new' under fixed vocabulary"),
    ])
    def test_bad_data_line_exits_2(self, toy_config, toy_data, split, line, message, capsys):
        path = toy_data / f"{split}.txt"
        path.write_text(path.read_text() + f"# comment\r\n{line}\n")
        assert main(["train", "--config", str(toy_config)]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == "error: " + message.format(path=path)

    @pytest.mark.parametrize("command", ["train", "wl"])
    def test_non_utf8_data_exits_2(self, toy_config, toy_data, tmp_path, command, capsys):
        path = toy_data / "train.txt"
        path.write_bytes(path.read_bytes() + b"\xffa\tr0\tb\n")
        argv = (["train", "--config", str(toy_config)] if command == "train"
                else ["diagnose", "wl", "--data", str(toy_data), "--head", "a"])
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"error: {path}:7: not valid UTF-8"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("item, message", [
        ("training.batch_size=0", "training.batch_size must be >= 1, got 0"),
        ("training.eval_interval=0", "training.eval_interval must be >= 1, got 0"),
        ("training.patience=0", "training.patience must be >= 1, got 0"),
        ("training.patience=-1", "training.patience must be >= 1, got -1"),
        ("training.num_negatives=-1", "training.num_negatives must be >= 0, got -1"),
        ("training.epochs=-1", "training.epochs must be >= 0, got -1"),
        ("training.learning_rate=nan", "training.learning_rate must be finite and >= 0, got nan"),
        ("training.learning_rate=inf", "training.learning_rate must be finite and >= 0, got inf"),
        ("training.learning_rate=-1e-3", "training.learning_rate must be >= 0, got -0.001"),
        ("training.weight_decay=inf", "training.weight_decay must be finite and >= 0, got inf"),
        ("training.weight_decay=nan", "training.weight_decay must be finite and >= 0, got nan"),
        ("training.weight_decay=-1", "training.weight_decay must be >= 0, got -1.0"),
    ])
    def test_loop_breaking_training_value_exits_2(self, toy_config, tmp_path, item, message, capsys):
        assert main(["train", "--config", str(toy_config), "--set", item]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == "error: " + message
        assert not (tmp_path / "run").exists()  # refused before resolved.cfg or metrics.jsonl

    def test_out_of_grid_warns_but_runs(self, toy_config, capsys):
        rc = main(["train", "--config", str(toy_config), "--set", "model.hidden_dim=8",
                   "--set", "training.epochs=1"])
        assert rc == 0
        assert "outside the default grid" in capsys.readouterr().err

    def test_seed_reproducibility(self, toy_config, tmp_path):
        blobs = []
        for name in ("x", "y"):
            out = tmp_path / name
            rc = main(["train", "--config", str(toy_config), "--seed", "11",
                       "--out", str(out), "--set", "training.log_timing=false"])
            assert rc == 0
            blobs.append((out / "checkpoint.bin").read_bytes())
        assert blobs[0] == blobs[1]


class TestEvalPredictCommands:
    @pytest.fixture
    def trained(self, toy_config, tmp_path):
        out = tmp_path / "trained"
        assert main(["train", "--config", str(toy_config), "--out", str(out)]) == 0
        return out / "checkpoint.bin"

    def test_eval_prints_metrics(self, trained, toy_data, capsys):
        rc = main(["eval", "--checkpoint", str(trained), "--data", str(toy_data),
                   "--split", "test"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert {"mrr", "hits1", "hits3", "hits10", "count", "split", "wall_ms"} <= set(report)
        assert report["count"] == 2  # one test triplet, both directions

    def test_eval_per_query_records(self, trained, toy_data, capsys):
        rc = main(["eval", "--checkpoint", str(trained), "--data", str(toy_data),
                   "--split", "valid", "--per-query"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        records = [json.loads(l) for l in lines[:-1]]
        assert len(records) == 2
        assert {"head", "relation", "gold", "rank"} == set(records[0])
        assert any(r["relation"].endswith("^-1") for r in records)

    def test_eval_deterministic_across_runs(self, trained, toy_data, capsys):
        outputs = []
        for _ in range(2):
            assert main(["eval", "--checkpoint", str(trained), "--data", str(toy_data),
                         "--noise-seed", "5"]) == 0
            out = capsys.readouterr().out
            outputs.append(json.loads(out.strip().splitlines()[-1])["mrr"])
        assert outputs[0] == outputs[1]

    def test_predict_top_k(self, trained, toy_data, capsys):
        rc = main(["predict", "--checkpoint", str(trained), "--data", str(toy_data),
                   "--head", "a", "--relation", "r0", "-k", "3"])
        assert rc == 0
        rows = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert len(rows) == 3
        assert all(set(r) == {"tail", "score"} for r in rows)
        scores = [r["score"] for r in rows]
        assert scores == sorted(scores, reverse=True)

    def test_predict_unknown_token_exits_2(self, trained, toy_data, capsys):
        rc = main(["predict", "--checkpoint", str(trained), "--data", str(toy_data),
                   "--head", "zzz", "--relation", "r0"])
        assert rc == 2
        assert "zzz" in capsys.readouterr().err

    def test_predict_k_clipped_with_warning(self, trained, toy_data, capsys):
        rc = main(["predict", "--checkpoint", str(trained), "--data", str(toy_data),
                   "--head", "a", "--relation", "r0", "-k", "99"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "clipped" in captured.err
        assert len(captured.out.strip().splitlines()) == 5

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("command", [("predict", "-k"), ("diagnose", "attention", "--top")],
                             ids=["predict-k", "attention-top"])
    def test_count_below_1_exits_2(self, trained, toy_data, command, value, capsys):
        rc = main([*command[:-1], "--checkpoint", str(trained), "--data", str(toy_data),
                   "--head", "a", "--relation", "r0", command[-1], value])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {command[-1]} must be at least 1, got {value}\n"

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_unknown_data_token_under_checkpoint_vocabulary_exits_2(self, trained, toy_data, command,
                                                                    capsys):
        path = toy_data / "test.txt"
        path.write_text(path.read_text() + "a\tr0\tzz\n")
        argv = [command, "--checkpoint", str(trained), "--data", str(toy_data)]
        rc = main(argv + (["--head", "a", "--relation", "r0"] if command == "predict" else []))
        assert rc == 2
        assert capsys.readouterr().err == f"error: {path}:2: unknown token 'zz' under fixed vocabulary\n"

    @pytest.mark.parametrize("argv, message", [
        (["train", "--set", "training.seed=-1"], "training.seed must be >= 0, got -1"),
        (["train", "--seed", "-1"], "training.seed must be >= 0, got -1"),
        (["train", "--set", "model.noise_mode=fixed_seed", "--set", "model.noise_seed=-1"],
         "noise_seed must be >= 0, got -1"),
        (["train", "--set", "training.max_valid_queries=-1"], "training.max_valid_queries must be >= 0, got -1"),
        (["eval", "--noise-seed", "-1"], "--noise-seed must be >= 0, got -1"),
        (["predict", "--head", "a", "--relation", "r0", "--noise-seed", "-1"],
         "--noise-seed must be >= 0, got -1"),
        (["diagnose", "attention", "--head", "a", "--relation", "r0", "--noise-seed", "-1"],
         "--noise-seed must be >= 0, got -1"),
    ], ids=["train-seed", "train-seed-flag", "noise-seed", "max-valid-queries", "eval", "predict",
            "attention"])
    def test_negative_seed_or_count_exits_2(self, trained, toy_config, toy_data, tmp_path, argv, message,
                                            capsys):
        command = argv[:2] if argv[0] == "diagnose" else argv[:1]
        source = ["--config", str(toy_config)] if argv[0] == "train" else \
            ["--checkpoint", str(trained), "--data", str(toy_data)]
        capsys.readouterr()  # drop the fixture's training output
        assert main([*command, *source, *argv[len(command):]]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.splitlines()[-1] == "error: " + message
        assert not (tmp_path / "run").exists()  # a refused train writes no output directory

    def test_inverse_relation_token(self, trained, toy_data, capsys):
        rc = main(["predict", "--checkpoint", str(trained), "--data", str(toy_data),
                   "--head", "b", "--relation", "r0^-1", "-k", "2"])
        assert rc == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 2

    def test_missing_checkpoint_exits_2(self, toy_config, toy_data, capsys):
        assert main(["eval", "--checkpoint", "/nope.bin", "--data", str(toy_data)]) == 2
        assert main(["train", "--config", str(toy_config), "--resume", "/nope.bin"]) == 2
        assert capsys.readouterr().err.count("error: /nope.bin: cannot read checkpoint") == 2

    def test_single_head_header_loads(self, trained, toy_data, capsys):
        argv = ["predict", "--checkpoint", str(trained), "--data", str(toy_data),
                "--head", "a", "--relation", "r0", "-k", "3"]
        assert main(argv) == 0
        before = capsys.readouterr().out
        set_header(trained, "model_config", "heads", 1)
        assert main(argv) == 0
        assert capsys.readouterr().out == before

    def test_multi_head_header_exits_2(self, trained, toy_data, capsys):
        set_header(trained, "model_config", "heads", 2)
        rc = main(["predict", "--checkpoint", str(trained), "--data", str(toy_data),
                   "--head", "a", "--relation", "r0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "model_config.heads = 2" in err

    def test_unknown_header_key_exits_2(self, trained, toy_data, capsys):
        set_header(trained, "model_config", "dropout", 0.1)
        rc = main(["predict", "--checkpoint", str(trained), "--data", str(toy_data),
                   "--head", "a", "--relation", "r0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "model_config.dropout" in err

    @pytest.mark.parametrize("damage, message", [
        (lambda h: h.pop("adam_step"), "checkpoint header lacks adam_step"),
        (lambda h: h.update(config_digest="0" * 64), "config_digest does not match"),
        (lambda h: h.update(format_version=2), "unsupported checkpoint format 2"),
        (lambda h: h["tensors"][0].update(name="bogus"), "has name 'bogus'; the model layout needs 'relations'"),
        (lambda h: h["tensors"][0].update(role="grad"), "has role 'grad'"),
        (lambda h: h["tensors"][0].update(dtype="int64"), "dtype 'int64'"),
        (lambda h: h.update(entity_tokens=5), "checkpoint entity_tokens is not a list of strings"),
        (lambda h: h["relation_tokens"].__setitem__(1, 7),
         "checkpoint relation_tokens is not a list of strings"),
        (None, "not a checkpoint file"),
    ], ids=["missing-key", "zeroed-digest", "unknown-version", "unknown-tensor", "unknown-role",
            "int-dtype", "entity-tokens-int", "relation-token-int", "wrong-magic"])
    def test_damaged_header_exits_2(self, trained, toy_data, damage, message, capsys):
        if damage is None:
            trained.write_bytes(b"KGRCKPT0" + trained.read_bytes()[8:])
        else:
            rewrite_header(trained, damage)
        rc = main(["eval", "--checkpoint", str(trained), "--data", str(toy_data)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {trained}: ") and message in err

    @pytest.mark.parametrize("command", ["eval", "predict", "resume"])
    @pytest.mark.parametrize("fault", sorted(LAYOUT_FAULTS))
    def test_layout_fault_exits_2(self, trained, toy_config, toy_data, tmp_path, fault, command, capsys):
        damage_layout(trained, fault)
        source = ["--checkpoint", str(trained), "--data", str(toy_data)]
        argv = {"eval": ["eval", *source],
                "predict": ["predict", *source, "--head", "a", "--relation", "r0"],
                "resume": ["train", "--config", str(toy_config), "--resume", str(trained),
                           "--out", str(tmp_path / "resumed")]}[command]
        capsys.readouterr()  # drop the fixture's training output
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(f"error: {re.escape(str(trained))}: {LAYOUT_FAULTS[fault]}.*",
                            captured.err.splitlines()[-1])
        assert not (tmp_path / "resumed").exists()

    @pytest.mark.parametrize("split, text", [("test", ""), ("valid", "# no facts\n")],
                             ids=["empty-test", "comment-only-valid"])
    def test_eval_on_split_without_facts_exits_2(self, trained, toy_data, split, text, capsys):
        (toy_data / f"{split}.txt").write_text(text)
        capsys.readouterr()  # drop the fixture's training output
        assert main(["eval", "--checkpoint", str(trained), "--data", str(toy_data), "--split", split]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {toy_data / (split + '.txt')}: no facts to evaluate\n"

    @pytest.mark.parametrize("keep", [lambda blob: blob[:len(blob) // 2], lambda blob: blob[:-8]],
                             ids=["half", "last-8-bytes-cut"])
    def test_truncated_checkpoint_exits_2(self, trained, toy_data, keep, capsys):
        trained.write_bytes(keep(trained.read_bytes()))
        rc = main(["predict", "--checkpoint", str(trained), "--data", str(toy_data),
                   "--head", "a", "--relation", "r0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "truncated checkpoint" in err


INDUCTIVE_SPLITS = {
    "train": [("a", "r0", "b"), ("b", "r0", "c"), ("c", "r1", "a")],
    "valid": [("a", "r0", "c")],
    "inference": [("x", "r0", "y"), ("x", "r0", "z"), ("y", "r1", "z")],
    "test": [("x", "r0", "w")],
}


class TestInductiveCommands:
    """Three training entities, four in the inference vocabulary (test adds ``w``)."""

    def test_train_validation_matches_eval(self, tmp_path, capsys):
        data = write_dataset(tmp_path / "ind", INDUCTIVE_SPLITS)
        cfg = write_config(tmp_path, data)
        out = tmp_path / "run-ind"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        records = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
        last_valid = [r for r in records if r["split"] == "valid"][-1]
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(out / "checkpoint.bin"), "--data", str(data),
                     "--split", "valid", "--noise-seed", "3"]) == 0
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert {k: report[k] for k in ("mrr", "hits1", "hits3", "hits10")} == \
            {k: last_valid[k] for k in ("mrr", "hits1", "hits3", "hits10")}

        assert main(["eval", "--checkpoint", str(out / "checkpoint.bin"), "--data", str(data),
                     "--split", "test", "--per-query"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [json.loads(line)["gold"] for line in lines[:-1]] == ["w", "x"]
        assert json.loads(lines[-1])["count"] == 2


class TestDiagnoseCommands:
    def test_kernel_error_pass(self, capsys):
        rc = main(["diagnose", "kernel-error", "--samples", "5000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "0.718282" in out

    def test_wl_classes(self, toy_data, capsys):
        rc = main(["diagnose", "wl", "--data", str(toy_data), "--head", "a"])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        classes = [json.loads(l) for l in out[:-1]]
        assert sum(c["size"] for c in classes) == 5
        assert "stable" in out[-1]

    def test_wl_unknown_head_exits_2(self, toy_data):
        assert main(["diagnose", "wl", "--data", str(toy_data), "--head", "nope"]) == 2

    def test_wl_missing_dataset_exits_2(self, tmp_path, capsys):
        rc = main(["diagnose", "wl", "--data", str(tmp_path / "absent"), "--head", "a"])
        assert rc == 2
        assert "error: dataset file not found" in capsys.readouterr().err

    def test_scaling_small_sizes(self, capsys):
        rc = main(["diagnose", "scaling", "--sizes", "200,400,800", "--dim", "8", "--reps", "2"])
        out = capsys.readouterr().out
        assert "linear fit R^2" in out
        assert rc in (0, 1)  # tiny sizes may be noisy; format is what matters here

    @pytest.mark.parametrize("sizes", ["100,abc", "200", "1,200", "0,200", ""])
    def test_scaling_bad_sizes_exit_2(self, sizes, capsys):
        assert main(["diagnose", "scaling", "--sizes", sizes, "--dim", "8", "--reps", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: --sizes expects")

    def test_attention_top_entities(self, toy_config, toy_data, tmp_path, capsys):
        out = tmp_path / "att"
        assert main(["train", "--config", str(toy_config), "--out", str(out)]) == 0
        capsys.readouterr()  # drop the train command's output
        rc = main(["diagnose", "attention", "--checkpoint", str(out / "checkpoint.bin"),
                   "--data", str(toy_data), "--head", "a", "--relation", "r0", "--top", "3"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header = json.loads(lines[0])
        assert "answer" in header
        rows = [json.loads(l) for l in lines[1:]]
        assert len(rows) == 3 and all(0.0 <= r["weight"] <= 1.0 for r in rows)

        rc = main(["diagnose", "attention", "--checkpoint", str(out / "checkpoint.bin"),
                   "--data", str(toy_data), "--head", "b", "--relation", "r0^-1", "--top", "2"])
        assert rc == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 3

    def test_grid_listing(self, capsys):
        assert main(["grid"]) == 0
        grids = json.loads(capsys.readouterr().out)
        assert grids["model"]["hidden_dim"] == [16, 32, 64]
        assert 64 in grids["training"]["num_negatives"]


@pytest.mark.parametrize("argv, message", [
    (["train", "--set", "run.verbosity=loud"], "run.verbosity must be info or quiet, got 'loud'"),
    (["diagnose", "kernel-error", "--samples", "-1"], "--samples must be at least 0, got -1"),
    (["diagnose", "kernel-error", "--dim", "0"], "--dim must be at least 1, got 0"),
    (["diagnose", "kernel-error", "--seed", "-1"], "--seed must be at least 0, got -1"),
    (["diagnose", "gradcheck", "--seed", "-1"], "--seed must be at least 0, got -1"),
    (["diagnose", "scaling", "--reps", "0"], "--reps must be at least 1, got 0"),
    (["diagnose", "scaling", "--seed", "-1"], "--seed must be at least 0, got -1"),
    (["diagnose", "scaling", "--dim", "0"], "--dim must be at least 1, got 0"),
    (["diagnose", "wl", "--rounds", "0"], "--rounds must be at least 1, got 0"),
    (["diagnose", "wl", "--rounds", "-2"], "--rounds must be at least 1, got -2"),
    (["train", "--set", "model.kernel_mode=full_exponential", "--set", "dataset.path={chain}"],
     "model.kernel_mode = full_exponential runs dense attention on at most 4096 entities; "
     "the training graph has 4097"),
], ids=["verbosity", "kernel-error-samples", "kernel-error-dim", "kernel-error-seed", "gradcheck-seed",
        "scaling-reps", "scaling-seed", "scaling-dim", "wl-rounds-0", "wl-rounds-negative", "dense-kernel"])
def test_out_of_range_setting_exits_2(toy_config, toy_data, chain_data, tmp_path, argv, message, capsys):
    inputs = {"train": ["--config", str(toy_config)], "wl": ["--data", str(toy_data), "--head", "a"]}
    argv = [arg.format(chain=chain_data) for arg in argv]
    command = argv[:2] if argv[0] == "diagnose" else argv[:1]
    assert main([*command, *inputs.get(command[-1], []), *argv[len(command):]]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines()[-1] == "error: " + message
    assert not (tmp_path / "run").exists()  # a refused train writes no output directory


@pytest.mark.parametrize("command, kernel_mode, message", [
    (["predict"], "full_exponential", "dense attention takes at most 4096 entities; the graph has 4097"),
    (["diagnose", "attention"], "approximate",
     "the dense attention oracle takes at most 4096 entities; the graph has 4097"),
], ids=["predict-full-exponential", "attention"])
def test_graph_too_large_for_dense_attention_exits_2(toy_config, chain_data, tmp_path, command, kernel_mode,
                                                     message, capsys):
    out = tmp_path / "chain-run"
    assert main(["train", "--config", str(toy_config), "--set", f"dataset.path={chain_data}",
                 "--set", "training.epochs=0", "--out", str(out)]) == 0
    set_header(out / "checkpoint.bin", "model_config", "kernel_mode", kernel_mode)
    capsys.readouterr()  # drop the train command's output
    assert main([*command, "--checkpoint", str(out / "checkpoint.bin"), "--data", str(chain_data),
                 "--head", "e0", "--relation", "r0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def _damage_operator_path(mistake, tmp_path, config, data):
    """Make one path that ``kgreason train`` is given unusable; returns the extra argv and that path."""
    if mistake == "config-not-utf8":
        config.write_bytes(config.read_bytes() + b"# \xff\n")
        return [], config
    if mistake == "config-directory":
        config.unlink()
        config.mkdir()
        return [], config
    if mistake == "out-existing-file":
        out = tmp_path / "taken"
        out.write_text("")
        return ["--out", str(out)], out
    if mistake == "out-under-file":
        (tmp_path / "taken").write_text("")
        out = tmp_path / "taken" / "run"
        return ["--out", str(out)], out
    assert mistake == "train-directory"
    (data / "train.txt").unlink()
    (data / "train.txt").mkdir()
    return [], data / "train.txt"


@pytest.mark.parametrize("mistake, message", [
    ("config-not-utf8", "config file is not valid UTF-8"),
    ("config-directory", "cannot read config file: Is a directory"),
    ("out-existing-file", "not a writable output directory: File exists"),
    ("out-under-file", "not a writable output directory: Not a directory"),
    ("train-directory", "cannot read dataset file: Is a directory"),
])
def test_operator_path_mistake_exits_2(toy_config, toy_data, tmp_path, mistake, message, capsys):
    argv, path = _damage_operator_path(mistake, tmp_path, toy_config, toy_data)
    assert main(["train", "--config", str(toy_config), *argv]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"error: {path}: {message}"
    assert not (tmp_path / "run").exists() and not list(tmp_path.rglob("resolved.cfg"))


# The operator's to fix (exit 2, "error: ...") or the program's (exit 1, "internal error: ...").
USER_ERRORS = {"UserError", "ConfigError", "DenseScopeError", "CheckpointError", "DatasetError", "ParseError",
               "VocabularyError"}
INTERNAL_ERRORS = {"ShapeError", "ContractError", "DeterminismError", "GraphError", "RankingError",
                   "MetricsError", "SamplingError", "TrainingDiverged", "WorkerError"}


def _kgreason_exceptions():
    modules = [kgreason, *(importlib.import_module(f"kgreason.{info.name}")
                           for info in pkgutil.iter_modules(kgreason.__path__))]
    return sorted({cls for module in modules for _, cls in inspect.getmembers(module, inspect.isclass)
                   if issubclass(cls, BaseException) and cls.__module__ == module.__name__},
                  key=lambda cls: cls.__name__)


def test_every_exception_class_picks_a_side():
    classes = _kgreason_exceptions()
    assert {cls.__name__ for cls in classes} == USER_ERRORS | INTERNAL_ERRORS
    assert {cls.__name__ for cls in classes if issubclass(cls, UserError)} == USER_ERRORS


@pytest.mark.parametrize("cls", _kgreason_exceptions(), ids=lambda cls: cls.__name__)
def test_main_exit_code_follows_the_error_family(cls, monkeypatch, capsys):
    exc = cls("boom")

    def failing(args):
        raise exc

    monkeypatch.setattr("kgreason.cli.cmd_grid", failing)
    if issubclass(cls, UserError):
        assert main(["grid"]) == 2
        assert capsys.readouterr().err == f"error: {exc}\n"
    else:
        assert main(["grid"]) == 1
        assert capsys.readouterr().err == f"internal error: {cls.__name__}: {exc}\n"
