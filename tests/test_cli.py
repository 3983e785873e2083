"""End-to-end command tests: exit codes, outputs, reproducibility."""

import json

import pytest

from conftest import set_header_heads
from kgreason.cli import load_run_config, main, UserError

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


class TestConfigParsing:
    def test_round_trip(self, toy_config):
        run, model, training = load_run_config(str(toy_config))
        assert model.hidden_dim == 8 and training.epochs == 2
        assert run.verbosity == "quiet"

    def test_unknown_key_rejected(self, toy_config):
        with pytest.raises(UserError, match="unknown key"):
            load_run_config(str(toy_config), overrides=["model.not_a_knob=1"])

    def test_set_overrides_file(self, toy_config):
        _, model, _ = load_run_config(str(toy_config), overrides=["model.hidden_dim=16"])
        assert model.hidden_dim == 16

    def test_removed_keys_rejected(self, toy_config):
        for item in ("run.threads=2", "model.heads=1"):
            with pytest.raises(UserError, match="unknown key"):
                load_run_config(str(toy_config), overrides=[item])

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

    def test_inverse_relation_token(self, trained, toy_data, capsys):
        rc = main(["predict", "--checkpoint", str(trained), "--data", str(toy_data),
                   "--head", "b", "--relation", "r0^-1", "-k", "2"])
        assert rc == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 2

    def test_missing_checkpoint_exits_2(self, toy_data):
        assert main(["eval", "--checkpoint", "/nope.bin", "--data", str(toy_data)]) == 2

    def test_single_head_header_loads(self, trained, toy_data, capsys):
        argv = ["predict", "--checkpoint", str(trained), "--data", str(toy_data),
                "--head", "a", "--relation", "r0", "-k", "3"]
        assert main(argv) == 0
        before = capsys.readouterr().out
        set_header_heads(trained, 1)
        assert main(argv) == 0
        assert capsys.readouterr().out == before

    def test_multi_head_header_exits_2(self, trained, toy_data, capsys):
        set_header_heads(trained, 2)
        rc = main(["predict", "--checkpoint", str(trained), "--data", str(toy_data),
                   "--head", "a", "--relation", "r0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "2 attention heads" in err


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
