import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import swinmim

from conftest import write_synthetic_dataset
from swinmim.cli import main
from swinmim.config import _SECTIONS, RunConfig, config_from_dict, load_config
from swinmim.data import build_index
from swinmim.rng import Rng
from swinmim.swin import SwinClassifier
from swinmim.train import load_checkpoint, read_tsv_log, save_checkpoint

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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

    @pytest.mark.parametrize("message", ["Unable to allocate 1.82 PiB", ""])
    def test_memory_error_exit_1(self, tiny_config_path, capsys, monkeypatch, message):
        def exhausted(args):  # a stub: nothing is allocated
            raise MemoryError(message)

        monkeypatch.setattr("swinmim.cli.cmd_count", exhausted)
        assert main(["count", "--config", tiny_config_path]) == 1
        err = capsys.readouterr().err
        assert err == "error: out of memory" + (f": {message}" if message else "") + "\n"


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

    @pytest.mark.parametrize("override", ["model.num_classes=5", "model.in_channels=1"])
    def test_unfed_class_or_channel_count_exit_2(self, tiny_config_path, override, capsys):
        assert main(["count", "--config", tiny_config_path, "--override", override]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {override.split('=')[0]} ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("override", ["mask_in_finetune=1", "epochs=2.5",
                                          "optimizer.base_lr=true", "data.mean=0.5",
                                          "model.depths=\"2\"", 'data.mean=["a","b","c"]'])
    def test_override_type_must_fit_field(self, tiny_config_path, override, capsys):
        assert main(["count", "--config", tiny_config_path, "--override", override]) == 2
        assert capsys.readouterr().err.startswith("error: override")

    @pytest.mark.parametrize("section,key,value", [
        ("train", "batch_size", "abc"), ("model", "depths", 4), ("train", "mask_in_finetune", 1),
        ("optimizer", "base_lr", True), ("data", "mean", 0.5), ("schedule", "epochs", None),
        ("model", "depths", [[2], 2, 2, 2]), ("augment", "blur_lengths", ["a"]),
        ("data", "mean", ["a", "b", "c"]), ("data", "std", [0.5, True, 0.5]),
        ("model", "heads", [2, 2.5, 4, 4])])
    def test_file_value_type_must_fit_field(self, tmp_path, section, key, value, capsys):
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(dict(TINY, **{section: {key: value}})))
        assert main(["count", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {section}.{key} needs a JSON")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("name", sorted(os.listdir(os.path.join(REPO, "configs"))))
    def test_shipped_config_loads_validates_and_counts(self, name, capsys):
        path = os.path.join(REPO, "configs", name)
        load_config(path).validate()
        assert main(["count", "--config", path]) == 0
        assert capsys.readouterr().out.startswith("parameters\t")

    def test_every_config_field_has_a_checked_type(self):
        from swinmim.config import _JSON_TYPES, _SECTIONS
        for name, cls in _SECTIONS.items():
            for field, spec in cls.__dataclass_fields__.items():
                assert spec.type in _JSON_TYPES, f"{name}.{field}: {spec.type}"

    @pytest.mark.parametrize("name", sorted(os.listdir(os.path.join(REPO, "configs"))) + [None])
    def test_to_dict_round_trips_through_json(self, name):
        cfg = RunConfig() if name is None else load_config(os.path.join(REPO, "configs", name))
        assert config_from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_to_dict_keys_are_the_dataclass_fields(self):
        data = RunConfig().to_dict()
        assert list(data) == list(_SECTIONS) == [
            "model", "mask", "augment", "optimizer", "schedule", "train", "data"]
        for name, cls in _SECTIONS.items():
            assert list(data[name]) == [f.name for f in dataclasses.fields(cls)], name

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

    def test_empty_image_exit_2(self, tmp_path, capsys):
        root = tmp_path / "data"
        for c in range(10):
            (root / f"c{c}").mkdir(parents=True)
        (root / "c0" / "empty.ppm").write_bytes(b"P6\n0 0\n255\n")
        code = main(["pretrain", "--config", os.path.join(REPO, "configs", "tiny.json"),
                     "--data", str(root), "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "empty.ppm" in err
        assert len(err.splitlines()) == 1

    def test_zero_ratio_override_exit_2(self, tiny_config_path, micro_root, tmp_path,
                                        capsys):
        code = main(["pretrain", "--config", tiny_config_path, "--data", micro_root,
                     "--out", str(tmp_path / "o"), "--override", "mask_ratio=0"])
        assert code == 2
        assert not (tmp_path / "o" / "checkpoint.sldb").exists()

    def test_channel_mismatch_exit_2(self, tiny_config_path, micro_root, tmp_path, capsys):
        code = main(["pretrain", "--config", tiny_config_path, "--data", micro_root,
                     "--out", str(tmp_path / "o"), "--override", "model.in_channels=1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: model.in_channels 1 != the 3 image channels of data.mean\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["count", "pretrain"])
    def test_mlp_ratio_without_hidden_width_exit_2(self, tiny_config_path, micro_root, tmp_path,
                                                   capsys, command):
        args = [] if command == "count" else ["--data", micro_root, "--out", str(tmp_path / "o")]
        code = main([command, "--config", tiny_config_path, *args,
                     "--override", "model.mlp_ratio=0.01"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == ("error: model: mlp_ratio 0.01 gives stage 0 (width 16) an MLP hidden "
                       "width of 0\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["count", "pretrain"])
    def test_mask_unit_larger_than_image_exit_2(self, tiny_config_path, micro_root, tmp_path,
                                                capsys, command):
        args = [] if command == "count" else ["--data", micro_root, "--out", str(tmp_path / "o")]
        code = main([command, "--config", tiny_config_path, *args,
                     "--override", "mask.mask_patch_size=1000"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: mask.mask_patch_size 1000 > model.img_size 64: no mask unit fits\n"
        assert not (tmp_path / "o").exists()

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


    @pytest.mark.parametrize("command", ["pretrain", "finetune"])
    def test_resume_of_a_finished_run_exit_2(self, tiny_config_path, micro_root, tmp_path,
                                             capsys, command):
        """A checkpoint at the last epoch leaves nothing to train: the command
        says so before it touches the log or makes --out."""
        done = tmp_path / "done"
        assert main([command, "--config", tiny_config_path, "--data", micro_root,
                     "--out", str(done)]) == 0
        ckpt = done / "checkpoint.sldb"
        log = done / ("pretrain_log.tsv" if command == "pretrain" else "metrics_log.tsv")
        before = log.read_bytes()
        capsys.readouterr()
        for out in (done, tmp_path / "new"):
            code = main([command, "--config", tiny_config_path, "--data", micro_root,
                         "--out", str(out), "--resume", str(ckpt)])
            assert code == 2
            assert capsys.readouterr().err == (f"error: {ckpt} is at epoch 1 of 1: "
                                               "nothing left to train\n")
        assert log.read_bytes() == before
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("meta,named", [
        ({"kind": "pretrain"}, "progress.epoch"),
        ({"progress": {"epoch": 0}, "optimizer_step": 0}, "progress.global_step"),
        ({"progress": {"epoch": 0, "global_step": 0}, "optimizer_step": None}, "optimizer_step"),
        ({"progress": {"epoch": 0, "global_step": 0}, "optimizer_step": 0}, "optim.m.embed.weight"),
        (["progress"], "metadata is not a JSON object")],
        ids=["no progress", "no global_step", "no optimizer_step", "no moments", "a list"])
    @pytest.mark.parametrize("command", ["pretrain", "finetune"])
    def test_resume_of_an_incomplete_checkpoint_exit_2(self, tiny_config_path, micro_root,
                                                       tmp_path, capsys, command, meta, named):
        """Metadata without what a resume reads, or optimizer state without
        its moments, ends in one error line naming what is missing, before
        anything is restored or --out is made."""
        ckpt, out = tmp_path / "bad.sldb", tmp_path / "new"
        save_checkpoint(ckpt, meta, {})
        code = main([command, "--config", tiny_config_path, "--data", micro_root,
                     "--out", str(out), "--resume", str(ckpt)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt}: ") and err.count("\n") == 1 and named in err
        assert not out.exists()


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

    def test_eval_checkpoint_without_run_config_exit_2(self, micro_root, tmp_path, capsys):
        path = str(tmp_path / "bare.sldb")
        save_checkpoint(path, {"note": "x"}, {"w": np.zeros(3, np.float32)})
        assert main(["eval", "--checkpoint", path, "--data", micro_root]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and path in err and "run_config" in err
        assert len(err.splitlines()) == 1

    def pretrain_then_finetune(self, micro_root, tmp_path, pre_model):
        """Pretrain tiny with pre_model's model fields, then fine-tune plain
        tiny from that checkpoint; returns the fine-tune's exit code."""
        p_pre = tmp_path / "pre.json"
        p_pre.write_text(json.dumps(dict(TINY, model=dict(TINY["model"], **pre_model))))
        code = main(["pretrain", "--config", str(p_pre), "--data", micro_root,
                     "--out", str(tmp_path / "pre"), "--seed", "0"])
        assert code == 0
        p_ft = tmp_path / "ft.json"
        p_ft.write_text(json.dumps(TINY))
        return main(["finetune", "--config", str(p_ft), "--data", micro_root,
                     "--out", str(tmp_path / "ft"),
                     "--init-from", str(tmp_path / "pre" / "checkpoint.sldb")])

    def test_window_change_remapped_without_flag(self, micro_root, tmp_path, capsys):
        assert self.pretrain_then_finetune(micro_root, tmp_path, {"window_size": 2}) == 0
        blocks = sum(TINY["model"]["depths"])
        reports = [ln for ln in capsys.readouterr().out.splitlines()
                   if ln.startswith("warm start from ")]
        _, pre = load_checkpoint(str(tmp_path / "pre" / "checkpoint.sldb"))
        _, ft = load_checkpoint(str(tmp_path / "ft" / "checkpoint.sldb"))
        # fresh: the head's weight and bias; loaded: every other tensor
        tensors = len(list(SwinClassifier(config_from_dict(TINY).model, Rng(0)).named_params()))
        assert reports == [f"warm start from {tmp_path / 'pre' / 'checkpoint.sldb'}: "
                           f"{tensors - blocks - 2} loaded, {blocks} remapped, 2 fresh"]
        tables = [n for n in ft if n.startswith("stages.") and n.endswith("attn.bias_table")]
        assert len(tables) == sum(TINY["model"]["depths"])
        for name in tables:
            assert pre[name].shape == (9, ft[name].shape[1])
            assert ft[name].shape == (49, pre[name].shape[1])

    def test_class_count_mismatch_exit_2(self, tiny_config_path, micro_root, tmp_path, capsys):
        code = main(["finetune", "--config", tiny_config_path, "--data", micro_root,
                     "--out", str(tmp_path / "ft"), "--override", "model.num_classes=5"])
        assert code == 2
        assert capsys.readouterr().err == "error: model.num_classes 5 != the dataset's 10 classes\n"
        assert not (tmp_path / "ft").exists()

    def test_head_count_change_exit_2(self, micro_root, tmp_path, capsys):
        code = self.pretrain_then_finetune(micro_root, tmp_path, {"heads": [2, 2, 2, 4]})
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "stages.2.blocks.0.attn.bias_table" in err[0]
        assert not (tmp_path / "ft" / "checkpoint.sldb").exists()


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

    def test_failing_cell_recorded_as_nan_exit_1(self, micro_root, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(TINY))
        code = main(["mask-sweep", "--config", str(cfg_path), "--data", micro_root,
                     "--out", str(tmp_path / "sweep"), "--patch-sizes", "6,16",
                     "--ratios", "0.5"])
        assert code == 1
        assert "# cell patch=6 ratio=0.5 failed: " in capsys.readouterr().err
        _, rows = read_tsv_log(tmp_path / "sweep" / "sweep.tsv")
        accuracy = {r[0]: float(r[2]) for r in rows}
        assert accuracy.keys() == {"6", "16"}
        assert np.isnan(accuracy["6"]) and np.isfinite(accuracy["16"])

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

    def test_no_images_exit_2(self, tiny_config_path, tmp_path, capsys):
        root = tmp_path / "empty"
        for c in range(10):
            (root / f"c{c}").mkdir(parents=True)
        code = main(["augment", "--config", tiny_config_path, "--data", str(root),
                     "--out", str(tmp_path / "aug")])
        assert code == 2
        assert capsys.readouterr().err == f"error: no .ppm images under {root}\n"
        assert not (tmp_path / "aug").exists()
