import json
import os
import subprocess
import sys

import numpy as np
import pytest

import swinmim

from conftest import write_synthetic_dataset
from swinmim.cli import main
from swinmim.data import build_index
from swinmim.train import load_checkpoint, read_tsv_log


TINY = {
    "model": {"img_size": 64, "embed_dim": 16, "depths": [2, 2, 2, 2],
              "heads": [2, 2, 4, 4], "window_size": 4},
    "mask": {"mask_patch_size": 16, "mask_ratio": 0.5},
    "optimizer": {"base_lr": 0.002},
    "schedule": {"epochs": 1},
    "train": {"batch_size": 8, "mask_in_finetune": False},
}


@pytest.fixture
def tiny_config_path(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY))
    return str(path)


@pytest.fixture
def micro_root(tmp_path):
    return str(write_synthetic_dataset(tmp_path / "data", per_class=2))


class TestParsing:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["--help"])
        assert e.value.code == 0
        for sub in ("pretrain", "finetune", "eval", "mask-sweep", "count", "augment"):
            with pytest.raises(SystemExit) as e:
                main([sub, "--help"])
            assert e.value.code == 0
            assert "--" in capsys.readouterr().out

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as e:
            main(["count", "--kind", "msa", "--h", "8", "--w", "8", "--c", "4",
                  "--bogus", "1"])
        assert e.value.code == 2

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as e:
            main([])
        assert e.value.code == 2


class TestCount:
    def test_msa_example(self, capsys):
        assert main(["count", "--kind", "msa", "--h", "8", "--w", "8", "--c", "4"]) == 0
        assert capsys.readouterr().out.strip() == "36864"

    def test_wmsa_example(self, capsys):
        assert main(["count", "--kind", "wmsa", "--h", "8", "--w", "8", "--c", "4",
                     "--m", "4"]) == 0
        assert capsys.readouterr().out.strip() == "12288"

    def test_wmsa_needs_m(self, capsys):
        assert main(["count", "--kind", "wmsa", "--h", "8", "--w", "8", "--c", "4"]) == 2

    def test_model_counts(self, tmp_path, capsys):
        cfg = {"model": {"img_size": 224, "embed_dim": 96, "depths": [2, 2, 6, 2],
                         "heads": [3, 6, 12, 24], "window_size": 7}}
        path = tmp_path / "sl.json"
        path.write_text(json.dumps(cfg))
        assert main(["count", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        lines = dict(
            line.split("\t")[:2] for line in out.splitlines() if "\t" in line
        )
        assert int(lines["parameters"]) == 27527044
        assert abs(float(lines["gflops"]) - 4.49) <= 0.449

    def test_baseline_counts(self, tmp_path, capsys):
        cfg = {"model": {"img_size": 224, "embed_dim": 128, "depths": [2, 2, 18, 2],
                         "heads": [4, 8, 16, 32], "window_size": 7}}
        path = tmp_path / "b.json"
        path.write_text(json.dumps(cfg))
        assert main(["count", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        lines = dict(line.split("\t")[:2] for line in out.splitlines() if "\t" in line)
        assert int(lines["parameters"]) == 86753474
        assert abs(float(lines["gflops"]) - 15.26) <= 1.526

    def test_wrongly_typed_override_exit_2(self, tiny_config_path, capsys):
        code = main(["count", "--config", tiny_config_path,
                     "--override", "train.batch_size=abc"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "train.batch_size" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("override", ["mask_in_finetune=1", "epochs=2.5",
                                          "optimizer.base_lr=true", "data.mean=0.5",
                                          "model.depths=\"2\""])
    def test_override_type_must_fit_field(self, tiny_config_path, override, capsys):
        assert main(["count", "--config", tiny_config_path, "--override", override]) == 2
        assert capsys.readouterr().err.startswith("error: override")

    def test_every_config_field_has_a_checked_type(self):
        from swinmim.config import _JSON_TYPES, _SECTIONS
        for name, cls in _SECTIONS.items():
            for field, spec in cls.__dataclass_fields__.items():
                assert spec.type in _JSON_TYPES, f"{name}.{field}: {spec.type}"

    @pytest.mark.parametrize("override", ["optimizer.base_lr=1", "schedule.min_lr=null",
                                          "data.mean=[0.4,0.5,0.6]", "mask_in_finetune=true"])
    def test_fitting_override_accepted(self, tiny_config_path, override):
        assert main(["count", "--config", tiny_config_path, "--override", override]) == 0

    def test_bad_config_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"model": {"depths": [3, 2, 2, 2]}}')
        assert main(["count", "--config", str(path)]) == 2


class TestPretrainCommand:
    def test_smoke(self, tiny_config_path, micro_root, tmp_path, capsys):
        out_dir = str(tmp_path / "run")
        code = main(["pretrain", "--config", tiny_config_path, "--data", micro_root,
                     "--out", out_dir, "--seed", "1"])
        assert code == 0
        meta, tensors = load_checkpoint(tmp_path / "run" / "checkpoint.sldb")
        assert meta["kind"] == "pretrain"
        assert "mask_token" in tensors

    def test_missing_data_dir_exit_2(self, tiny_config_path, tmp_path, capsys):
        code = main(["pretrain", "--config", tiny_config_path,
                     "--data", str(tmp_path / "absent"), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "absent" in capsys.readouterr().err

    def test_zero_ratio_override_exit_2(self, tiny_config_path, micro_root, tmp_path,
                                        capsys):
        code = main(["pretrain", "--config", tiny_config_path, "--data", micro_root,
                     "--out", str(tmp_path / "o"), "--override", "mask_ratio=0"])
        assert code == 2
        assert not (tmp_path / "o" / "checkpoint.sldb").exists()

    def test_unknown_override_exit_2(self, tiny_config_path, micro_root, tmp_path):
        code = main(["pretrain", "--config", tiny_config_path, "--data", micro_root,
                     "--out", str(tmp_path / "o"), "--override", "nonsense=1"])
        assert code == 2


    def test_non_finite_loss_exit_1_keeps_last_good_checkpoint(
            self, tiny_config_path, micro_root, tmp_path, capsys, monkeypatch):
        import swinmim.train

        original = swinmim.train.pretrain_step
        calls = []

        def nan_from_epoch_2(*args, **kwargs):
            calls.append(1)
            loss = original(*args, **kwargs)
            return float("nan") if len(calls) > 3 else loss  # 3 steps per epoch

        monkeypatch.setattr(swinmim.train, "pretrain_step", nan_from_epoch_2)
        out = tmp_path / "run"
        code = main(["pretrain", "--config", tiny_config_path, "--data", micro_root,
                     "--out", str(out), "--override", "schedule.epochs=3"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: pretrain:") and "step 3" in err
        assert "Traceback" not in err
        assert (out / "checkpoint.sldb").read_bytes() == \
            (out / "checkpoint_e1.sldb").read_bytes()
        assert not (out / "checkpoint_e2.sldb").exists()


    def test_diverged_update_never_checkpointed(self, tiny_config_path, tmp_path, capsys):
        """One step per epoch, so the update that breaks the weights is an
        epoch's last: the run stops before that epoch's checkpoint."""
        root = write_synthetic_dataset(tmp_path / "ten", per_class=1)
        out = tmp_path / "run"
        code = main(["pretrain", "--config", tiny_config_path, "--data", str(root),
                     "--out", str(out), "--override", "train.batch_size=16",
                     "--override", "optimizer.base_lr=1e40", "--override", "schedule.epochs=3"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: pretrain:") and "not finite after epoch 1" in err
        for path in out.glob("*.sldb"):
            _, tensors = load_checkpoint(path)
            assert all(np.isfinite(t).all() for t in tensors.values()), path
        assert not list(out.glob("*.sldb"))

    def test_diverging_run_prints_only_the_error_line(self, tiny_config_path, micro_root,
                                                      tmp_path):
        src = os.path.dirname(os.path.dirname(swinmim.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "swinmim.cli", "pretrain", "--config", tiny_config_path,
             "--data", micro_root, "--out", str(tmp_path / "run"),
             "--override", "optimizer.base_lr=1e30"],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr


class TestFinetuneEval:
    def test_finetune_then_eval(self, tiny_config_path, micro_root, tmp_path, capsys):
        out_dir = str(tmp_path / "ft")
        code = main(["finetune", "--config", tiny_config_path, "--data", micro_root,
                     "--out", out_dir, "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy" in out and "confusion" in out
        assert (tmp_path / "ft" / "split.tsv").exists()

        code = main(["eval", "--checkpoint", str(tmp_path / "ft" / "checkpoint.sldb"),
                     "--data", micro_root])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("accuracy ")

    def test_eval_perfect_toy_model(self, tmp_path, capsys, monkeypatch):
        """A checkpoint evaluated on its own training data after overfitting
        prints accuracy 1.0000 (toy dataset is linearly separable colors)."""
        root = write_synthetic_dataset(tmp_path / "easy", per_class=3, seed=7)
        cfg = dict(TINY)
        cfg["schedule"] = {"epochs": 30}
        cfg["train"] = {"batch_size": 10, "mask_in_finetune": False,
                        "early_stop_acc": 1.0}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["finetune", "--config", str(cfg_path), "--data", str(root),
                     "--out", str(tmp_path / "ft"), "--seed", "0",
                     "--override", "data.train_fraction=0.7"])
        assert code == 0
        code = main(["eval", "--checkpoint", str(tmp_path / "ft" / "checkpoint.sldb"),
                     "--data", str(root)])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert any(l.startswith("accuracy 1.0000") for l in lines), lines

    def test_window_mismatch_without_flag_exit_2(self, micro_root, tmp_path, capsys):
        cfg_small = dict(TINY)
        cfg_small["model"] = dict(TINY["model"], window_size=2)
        p_small = tmp_path / "w2.json"
        p_small.write_text(json.dumps(cfg_small))
        code = main(["pretrain", "--config", str(p_small), "--data", micro_root,
                     "--out", str(tmp_path / "pre"), "--seed", "0"])
        assert code == 0

        p_big = tmp_path / "w4.json"
        p_big.write_text(json.dumps(TINY))
        code = main(["finetune", "--config", str(p_big), "--data", micro_root,
                     "--out", str(tmp_path / "ft"),
                     "--init-from", str(tmp_path / "pre" / "checkpoint.sldb")])
        assert code == 2
        assert "bias_table" in capsys.readouterr().err

        code = main(["finetune", "--config", str(p_big), "--data", micro_root,
                     "--out", str(tmp_path / "ft2"), "--remap-window",
                     "--init-from", str(tmp_path / "pre" / "checkpoint.sldb")])
        assert code == 0


class TestMaskSweep:
    def test_single_cell_matches_direct_finetune(self, micro_root, tmp_path, capsys):
        cfg = dict(TINY)
        cfg["train"] = {"batch_size": 8, "mask_in_finetune": True}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["mask-sweep", "--config", str(cfg_path), "--data", micro_root,
                     "--out", str(tmp_path / "sweep"), "--seed", "5",
                     "--patch-sizes", "16", "--ratios", "0.5"])
        assert code == 0
        out = capsys.readouterr().out
        columns, rows = read_tsv_log(tmp_path / "sweep" / "sweep.tsv")
        assert columns == ["patch_size", "ratio", "accuracy", "wall_time_s"]
        assert len(rows) == 1

        code = main(["finetune", "--config", str(cfg_path), "--data", micro_root,
                     "--out", str(tmp_path / "direct"), "--seed", "5",
                     "--override", "mask_patch_size=16", "--override", "mask_ratio=0.5"])
        assert code == 0
        direct_out = capsys.readouterr().out
        direct_acc = [l for l in direct_out.splitlines() if l.startswith("accuracy ")][0]
        sweep_acc = float(rows[0][2])
        assert np.isclose(float(direct_acc.split()[1]), sweep_acc, atol=5e-5)

    def test_grid_shape_three_by_three(self, micro_root, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(TINY))
        code = main(["mask-sweep", "--config", str(cfg_path), "--data", micro_root,
                     "--out", str(tmp_path / "sweep"), "--patch-sizes", "16,32",
                     "--ratios", "0.4,0.6"])
        assert code == 0
        _, rows = read_tsv_log(tmp_path / "sweep" / "sweep.tsv")
        assert len(rows) == 4
        assert {(r[0], r[1]) for r in rows} == {
            ("16", "0.4"), ("16", "0.6"), ("32", "0.4"), ("32", "0.6")
        }


class TestDeterminism:
    def test_same_command_same_seed_identical_logs(self, tiny_config_path, micro_root,
                                                   tmp_path):
        """Log bodies are byte-identical across reruns; only the '#' header
        line carries a timestamp."""
        for tag in ("a", "b"):
            code = main(["pretrain", "--config", tiny_config_path, "--data", micro_root,
                         "--out", str(tmp_path / tag), "--seed", "9"])
            assert code == 0

        def body(path):
            return [l for l in path.read_text().splitlines() if not l.startswith("#")]

        assert body(tmp_path / "a" / "pretrain_log.tsv") == \
            body(tmp_path / "b" / "pretrain_log.tsv")
        ck_a = (tmp_path / "a" / "checkpoint.sldb").read_bytes()
        ck_b = (tmp_path / "b" / "checkpoint.sldb").read_bytes()
        assert ck_a == ck_b


class TestAugmentCommand:
    def test_counts_table(self, micro_root, tmp_path, capsys):
        cfg = dict(TINY)
        cfg["augment"] = {"gaussian_noise": True}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["augment", "--config", str(cfg_path), "--data", micro_root,
                     "--out", str(tmp_path / "aug")])
        assert code == 0
        out = capsys.readouterr().out
        assert "class\tbefore\tafter" in out
        for line in out.splitlines()[1:11]:
            c, before, after = line.split("\t")
            assert int(after) == 2 * int(before)
        manifest = (tmp_path / "aug" / "manifest.tsv").read_text().strip().split("\n")
        written = len(list((tmp_path / "aug").rglob("*.ppm")))
        assert len(manifest) == written

    def test_no_strategies_counts_unchanged(self, micro_root, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(TINY))
        code = main(["augment", "--config", str(cfg_path), "--data", micro_root,
                     "--out", str(tmp_path / "aug")])
        assert code == 0
        for line in capsys.readouterr().out.splitlines()[1:11]:
            _, before, after = line.split("\t")
            assert before == after
