import gc
import math
import os
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import swinmim.cli as cli_mod
import swinmim.tensor as tensor_mod
import swinmim.train as train_mod
from conftest import tiny_config, write_synthetic_dataset
from swinmim.config import RunConfig, config_from_dict
from swinmim.data import build_index, split_dataset
from swinmim.mim import MIMPretrainModel
from swinmim.rng import Rng
from swinmim.swin import SwinClassifier, SwinConfig, count_params
from swinmim.tensor import Tape, Tensor
from swinmim.train import (
    AdamW,
    CheckpointError,
    CheckpointMagicError,
    CheckpointNameError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    CosineSchedule,
    Metrics,
    TsvLog,
    evaluate,
    load_checkpoint,
    load_pretrained_encoder,
    make_schedule,
    read_tsv_log,
    remap_bias_table,
    restore_model_state,
    run_finetune,
    run_pretrain,
    save_checkpoint,
    save_model_checkpoint,
    soft_cross_entropy,
)


def desk_config(**over):
    """A fast RunConfig on the tiny model for loop tests."""
    data = {
        "model": {"img_size": 64, "embed_dim": 16, "depths": [2, 2, 2, 2],
                  "heads": [2, 2, 4, 4], "window_size": 4},
        "mask": {"mask_patch_size": 16, "mask_ratio": 0.5},
        "optimizer": {"base_lr": 0.002},
        "schedule": {"epochs": 2},
        "train": {"batch_size": 8, "mask_in_finetune": False},
    }
    cfg = config_from_dict(data)
    for key, value in over.items():
        section, field = key.split(".")
        setattr(getattr(cfg, section), field, value)
    return cfg.validate()


class TestAdamW:
    def test_pure_decay_with_zero_grad(self):
        p = Tensor(np.array([4.0], np.float32), requires_grad=True)
        opt = AdamW({"p": p}, weight_decay=0.05)
        p.grad = np.zeros(1, np.float32)
        opt.step(0.2)
        assert np.allclose(p.numpy(), 4.0 * (1 - 0.2 * 0.05))

    def test_first_step_is_signed_unit(self):
        p = Tensor(np.array([1.0, -1.0], np.float64), requires_grad=True)
        opt = AdamW({"p": p}, weight_decay=0.0, eps=1e-12)
        p.grad = np.array([0.3, -0.7])
        opt.step(0.01)
        # bias correction makes m_hat/sqrt(v_hat) = sign(g) at t=1
        assert np.allclose(p.numpy(), [1.0 - 0.01, -1.0 + 0.01])

    def test_zero_lr_no_change(self):
        p = Tensor(np.array([2.5], np.float32), requires_grad=True)
        before = p.numpy().copy()
        opt = AdamW({"p": p})
        p.grad = np.ones(1, np.float32)
        opt.step(0.0)
        assert np.array_equal(p.numpy(), before)

    def test_none_grad_skipped(self):
        p = Tensor(np.array([1.0], np.float32), requires_grad=True)
        opt = AdamW({"p": p})
        opt.step(0.1)
        assert p.numpy()[0] == 1.0

    def test_in_place_step_matches_formula_bitwise(self):
        b1, b2, eps, wd = 0.9, 0.999, 1e-8, 0.05
        rng = Rng(41)
        p = Tensor(rng.child(0).normal(size=(64, 48)).astype(np.float32), requires_grad=True)
        idle = Tensor(rng.child(1).normal(size=(7,)).astype(np.float32), requires_grad=True)
        idle_before = idle.data.copy()
        opt = AdamW({"p": p, "idle": idle}, b1, b2, eps, wd)
        theta = p.data.copy()
        m = np.zeros_like(theta)
        v = np.zeros_like(theta)
        for t, lr in enumerate((1e-2, 5e-3, 2e-3), start=1):
            g = rng.child(2, t).normal(size=theta.shape).astype(np.float32)
            p.grad = g.copy()
            opt.step(lr)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            c1, c2 = 1 - b1 ** t, 1 - b2 ** t
            theta = theta - lr * ((m / c1) / (np.sqrt(v / c2) + eps) + wd * theta)
            assert theta.dtype == np.float32
            assert np.array_equal(p.data, theta)
            assert np.array_equal(opt.m["p"], m) and np.array_equal(opt.v["p"], v)
            assert p.grad is None
        assert np.array_equal(idle.data, idle_before)
        assert not opt.m["idle"].any() and not opt.v["idle"].any()

    def test_blocked_update_matches_unblocked(self, monkeypatch):
        # multi-block rows, one row wider than a block, a 1-D param over
        # several blocks, a scalar and a float64 param
        shapes = {"w": (768, 200), "wide": (3, 70000), "b": (100000,), "s": (), "d": (5, 7)}
        rng = Rng(42)
        init = {n: rng.child(i, 0).normal(size=sh).astype(np.float64 if n == "d" else np.float32)
                for i, (n, sh) in enumerate(shapes.items())}
        results = []
        for block in (train_mod._ADAM_BLOCK, 1 << 40):  # 1 << 40: every param in one block
            monkeypatch.setattr(train_mod, "_ADAM_BLOCK", block)
            params = {n: Tensor(a.copy(), requires_grad=True) for n, a in init.items()}
            opt = AdamW(params)
            for t, lr in ((1, 1e-2), (2, 5e-3)):
                for i, (n, p) in enumerate(params.items()):
                    p.grad = rng.child(i, t).normal(size=p.shape).astype(p.data.dtype)
                opt.step(lr)
            results.append([params[n].data.tobytes() + opt.m[n].tobytes() + opt.v[n].tobytes()
                            for n in shapes])
        assert results[0] == results[1]

    def test_quadratic_convergence(self):
        theta = Tensor(np.array([1.0], np.float64), requires_grad=True)
        opt = AdamW({"theta": theta}, weight_decay=0.0)
        for _ in range(500):
            theta.grad = 2.0 * theta.numpy()  # d/dx x^2
            opt.step(0.01)
        assert abs(theta.numpy()[0]) < 1e-3


class TestSchedule:
    def test_endpoints(self):
        s = CosineSchedule(1.0, 0.01, 100, warmup_steps=10)
        assert s.lr_at(0) == 0.0
        assert s.lr_at(10) == 1.0
        assert np.isclose(s.lr_at(100), 0.01)

    def test_cosine_midpoint(self):
        s = CosineSchedule(2.0, 1.0, 100, warmup_steps=0)
        assert np.isclose(s.lr_at(50), 1.5)

    def test_no_warmup_starts_at_base(self):
        s = CosineSchedule(0.5, 0.0, 10)
        assert s.lr_at(0) == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            CosineSchedule(1.0, 2.0, 10)
        with pytest.raises(ValueError):
            CosineSchedule(1.0, 0.0, 10, warmup_steps=10)
        s = CosineSchedule(1.0, 0.0, 10)
        with pytest.raises(ValueError):
            s.lr_at(11)

    def test_default_min_lr_is_hundredth(self):
        cfg = desk_config()
        s = make_schedule(cfg.optimizer, cfg.schedule, 100)
        assert np.isclose(s.min_lr, cfg.optimizer.base_lr / 100)


class TestSoftCrossEntropy:
    def test_uniform_logits_ln10(self):
        logits = Tensor(np.zeros((3, 10), np.float64))
        labels = np.eye(10)[:3]
        assert np.isclose(soft_cross_entropy(logits, labels).item(), math.log(10))

    def test_confident_match_approaches_zero(self):
        logits = np.zeros((1, 10))
        logits[0, 4] = 50.0
        labels = np.eye(10)[[4]]
        assert soft_cross_entropy(Tensor(logits), labels).item() < 1e-8

    def test_soft_label_uniform_logits(self):
        logits = Tensor(np.zeros((1, 10), np.float64))
        labels = np.zeros((1, 10))
        labels[0, 2], labels[0, 5] = 0.7, 0.3
        assert np.isclose(soft_cross_entropy(logits, labels).item(), math.log(10))


class TestMetrics:
    def test_perfect_predictor(self):
        m = Metrics.from_pairs(np.arange(10).repeat(5), np.arange(10).repeat(5))
        assert m.accuracy == 1.0
        assert np.allclose(m.f1, 1.0)
        assert np.array_equal(m.confusion, np.eye(10, dtype=int) * 5)

    def test_constant_predictor(self):
        true = np.arange(10).repeat(100)
        pred = np.zeros(1000, int)
        m = Metrics.from_pairs(true, pred)
        assert np.isclose(m.accuracy, 0.1)
        assert np.isclose(m.precision[0], 0.1)
        assert np.isclose(m.recall[0], 1.0)
        assert np.allclose(m.recall[1:], 0.0)

    def test_row_sums_are_truth_counts(self):
        rng = Rng(0).child(0)
        true = rng.integers(0, 10, size=500)
        pred = rng.integers(0, 10, size=500)
        m = Metrics.from_pairs(true, pred)
        assert np.array_equal(m.confusion.sum(axis=1), np.bincount(true, minlength=10))
        assert m.accuracy == np.trace(m.confusion) / 500

    def test_brute_force_recount_oracle(self):
        """Confusion and P/R/F1 vs a per-pair recount on 1000 random pairs."""
        rng = Rng(1).child(0)
        true = rng.integers(0, 10, size=1000)
        pred = rng.integers(0, 10, size=1000)
        m = Metrics.from_pairs(true, pred)
        for c in range(10):
            tp = sum(1 for t, p in zip(true, pred) if t == c and p == c)
            fp = sum(1 for t, p in zip(true, pred) if t != c and p == c)
            fn = sum(1 for t, p in zip(true, pred) if t == c and p != c)
            precision = tp / (tp + fp) if tp + fp else 0.0
            recall = tp / (tp + fn) if tp + fn else 0.0
            f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
            assert np.isclose(m.precision[c], precision)
            assert np.isclose(m.recall[c], recall)
            assert np.isclose(m.f1[c], f1)
            for c2 in range(10):
                assert m.confusion[c, c2] == sum(
                    1 for t, p in zip(true, pred) if t == c and p == c2
                )
        assert m.accuracy == sum(1 for t, p in zip(true, pred) if t == p) / 1000


class TestCheckpointFormat:
    def tensors(self):
        rng = Rng(2)
        return {
            "a.weight": rng.child(0).normal(size=(3, 4)).astype(np.float32),
            "b.bias": rng.child(1).normal(size=7).astype(np.float64),
            "scalar": np.float32(2.5).reshape(()),
        }

    def test_round_trip_bitwise(self, tmp_path):
        path = tmp_path / "t.sldb"
        tensors = self.tensors()
        save_checkpoint(path, {"k": [1, 2]}, tensors)
        meta, loaded = load_checkpoint(path)
        assert meta == {"k": [1, 2]}
        for name, arr in tensors.items():
            assert loaded[name].dtype == arr.dtype
            assert np.array_equal(loaded[name], arr)

    def test_save_load_save_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.sldb", tmp_path / "b.sldb"
        save_checkpoint(p1, {"x": 1}, self.tensors())
        meta, tensors = load_checkpoint(p1)
        save_checkpoint(p2, meta, tensors)
        assert p1.read_bytes() == p2.read_bytes()

    def test_corrupt_magic(self, tmp_path):
        path = tmp_path / "bad.sldb"
        save_checkpoint(path, {}, self.tensors())
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointMagicError):
            load_checkpoint(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v.sldb"
        save_checkpoint(path, {}, self.tensors())
        blob = bytearray(path.read_bytes())
        blob[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointVersionError):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "t.sldb"
        save_checkpoint(path, {}, self.tensors())
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 9])
        with pytest.raises(CheckpointTruncatedError):
            load_checkpoint(path)

    def test_unknown_tensor_on_restore(self, tmp_path):
        cfg = tiny_config()
        model = SwinClassifier(cfg, Rng(3))
        tensors = {n: p.data for n, p in model.named_params()}
        tensors["mystery.weight"] = np.zeros(3, np.float32)
        path = tmp_path / "u.sldb"
        save_checkpoint(path, {}, tensors)
        _, loaded = load_checkpoint(path)
        with pytest.raises(CheckpointNameError) as e:
            restore_model_state(model, loaded)
        assert "mystery.weight" in str(e.value)

    def test_missing_tensor_on_restore(self, tmp_path):
        cfg = tiny_config()
        model = SwinClassifier(cfg, Rng(4))
        tensors = {n: p.data for n, p in model.named_params()}
        tensors.pop("head.bias")
        path = tmp_path / "m.sldb"
        save_checkpoint(path, {}, tensors)
        _, loaded = load_checkpoint(path)
        with pytest.raises(CheckpointNameError) as e:
            restore_model_state(model, loaded)
        assert "head.bias" in str(e.value)

    def test_restore_keeps_gradient_cells_consistent(self):
        """A restored float64 array is cast, so each parameter's gradient
        cell still names its data's shape and dtype, and backward runs."""
        model = SwinClassifier(tiny_config(), Rng(5))
        restore_model_state(model, {n: p.data.astype(np.float64) * 0.5
                                    for n, p in model.named_params()})
        for name, param in model.named_params():
            assert (param.node.shape, param.node.dtype) == (param.data.shape, np.float32), name
        with Tape() as tape:
            loss = soft_cross_entropy(model(Tensor(np.ones((2, 64, 64, 3), np.float32))),
                                      np.eye(10, dtype=np.float32)[:2])
        tape.backward(loss)
        assert all(p.grad.shape == p.data.shape for _, p in model.named_params())

    def test_param_count_in_header(self, tmp_path):
        cfg = tiny_config()
        model = SwinClassifier(cfg, Rng(5))
        path = tmp_path / "c.sldb"
        meta = save_model_checkpoint(path, model, desk_config(), "classifier", 0,
                                     {"epoch": 0, "global_step": 0})
        assert meta["model_param_count"] == count_params(cfg)
        loaded_meta, _ = load_checkpoint(path)
        assert loaded_meta["model_param_count"] == count_params(cfg)


class TestBiasTableRemap:
    def test_constant_preserved(self):
        table = np.full((11 * 11, 3), 1.25, np.float32)
        out = remap_bias_table(table, 6, 7)
        assert out.shape == (13 * 13, 3)
        assert np.allclose(out, 1.25, atol=1e-6)

    def test_identity_when_same_window(self):
        rng = Rng(6).child(0)
        table = rng.normal(size=(9, 2)).astype(np.float32)
        out = remap_bias_table(table, 2, 2)
        assert np.allclose(out, table, atol=1e-6)

    def test_monotone_ramp_stays_monotone(self):
        side = 2 * 4 - 1
        ramp = np.linspace(-1, 1, side)[:, None].repeat(side, 1)
        table = ramp.reshape(side * side, 1)
        out = remap_bias_table(table, 4, 6).reshape(11, 11)
        diffs = np.diff(out[:, 5])
        assert (diffs >= -1e-9).all()
        assert np.isclose(out[0, 5], -1, atol=1e-6)
        assert np.isclose(out[-1, 5], 1, atol=1e-6)


class TestTransferLoading:
    def test_encoder_weights_carried_over(self, tmp_path):
        cfg = tiny_config()
        pre = MIMPretrainModel(cfg, Rng(7), target_factor=32)
        path = tmp_path / "pre.sldb"
        save_model_checkpoint(path, pre, desk_config(), "pretrain", 0,
                              {"epoch": 1, "global_step": 10})
        _, tensors = load_checkpoint(path)
        clf = SwinClassifier(cfg, Rng(8), with_mask_token=True)
        report = load_pretrained_encoder(clf, tensors)
        assert "embed.weight" in report["loaded"]
        assert "mask_token" in report["loaded"]
        assert set(report["fresh"]) == {"head.weight", "head.bias"}
        for name, param in clf.named_params():
            if name in report["loaded"]:
                assert np.array_equal(param.data, tensors[name])

    def pretrained_tensors(self, tmp_path, **model):
        pre = MIMPretrainModel(tiny_config(**model), Rng(9))
        path = tmp_path / "pre.sldb"
        save_model_checkpoint(path, pre, desk_config(), "pretrain", 0,
                              {"epoch": 1, "global_step": 1})
        return load_checkpoint(path)[1]

    def test_window_change_remapped(self, tmp_path):
        tensors = self.pretrained_tensors(tmp_path, window_size=2)
        clf = SwinClassifier(tiny_config(window_size=4), Rng(10))
        report = load_pretrained_encoder(clf, tensors)
        tables = [n for n, _ in clf.named_params() if n.endswith("bias_table")]
        assert len(tables) == sum(tiny_config().depths)
        assert report["remapped"] == tables
        assert not set(tables) & set(report["loaded"])
        for name, param in clf.named_params():
            assert (param.node.shape, param.node.dtype) == (param.data.shape, param.data.dtype)
            if name.endswith("bias_table"):
                expect = remap_bias_table(tensors[name], 2, 4)
                assert param.data.tobytes() == expect.tobytes()

    def test_head_count_change_rejected(self, tmp_path):
        tensors = self.pretrained_tensors(tmp_path, heads=(2, 2, 2, 4))
        clf = SwinClassifier(tiny_config(), Rng(10))  # heads (2, 2, 4, 4)
        with pytest.raises(CheckpointNameError) as e:
            load_pretrained_encoder(clf, tensors)
        assert str(e.value).endswith("['stages.2.blocks.0.attn.bias_table', "
                                     "'stages.2.blocks.1.attn.bias_table']")


def micro_dataset(tmp_path, per_class=2):
    root = write_synthetic_dataset(tmp_path / "micro", per_class=per_class)
    return build_index(root)


def log_body(path):
    """A TsvLog's lines without the timestamped '#' header."""
    return [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]


class TestLoadedCheckpointLifetime:
    """A loaded checkpoint's arrays go once they are restored: the model and
    the optimizer keep copies, and no dict of them lives on while training
    or eval runs."""

    @staticmethod
    def alive_at_first(monkeypatch, module, name):
        """(refs, alive): weak references to every array that
        module.load_checkpoint returns, and, once module.<name> is first
        called, how many of them are still alive then."""
        refs, alive = [], []
        load, first = module.load_checkpoint, getattr(module, name)

        def spy_load(path):
            meta, tensors = load(path)
            refs.extend(weakref.ref(a) for a in tensors.values())
            return meta, tensors

        def spy_first(*args, **kwargs):
            if not alive:
                gc.collect()
                alive.append(sum(ref() is not None for ref in refs))
            return first(*args, **kwargs)

        monkeypatch.setattr(module, "load_checkpoint", spy_load)
        monkeypatch.setattr(module, name, spy_first)
        return refs, alive

    def test_resume_and_warm_start_drop_the_checkpoint(self, tmp_path, monkeypatch):
        index = micro_dataset(tmp_path, per_class=3)
        train_idx, eval_idx = split_dataset(index, 0.7, seed=0)
        _, ckpt = run_pretrain(desk_config(**{"schedule.epochs": 1}), index,
                               tmp_path / "pre", seed=0)
        for run in (lambda: run_pretrain(desk_config(), index, tmp_path / "resumed",
                                         seed=0, resume=ckpt),
                    lambda: run_finetune(desk_config(**{"schedule.epochs": 1}), train_idx,
                                         eval_idx, tmp_path / "warm", seed=0,
                                         init_checkpoint=ckpt)):
            with monkeypatch.context() as m:
                refs, alive = self.alive_at_first(m, train_mod, "make_batches")
                run()
            assert len(refs) > 0 and alive == [0]

    def test_eval_drops_the_checkpoint(self, tmp_path, monkeypatch, capsys):
        index = micro_dataset(tmp_path, per_class=3)
        train_idx, eval_idx = split_dataset(index, 0.7, seed=0)
        _, _, ckpt = run_finetune(desk_config(**{"schedule.epochs": 1}), train_idx, eval_idx,
                                  tmp_path / "ft", seed=0)
        refs, alive = self.alive_at_first(monkeypatch, cli_mod, "evaluate")
        assert cli_mod.main(["eval", "--checkpoint", str(ckpt),
                             "--data", str(tmp_path / "micro")]) == 0
        assert len(refs) > 0 and alive == [0]


class TestRunPretrain:
    def test_smoke_run_writes_checkpoint_and_log(self, tmp_path):
        cfg = desk_config()
        index = micro_dataset(tmp_path)
        model, ckpt = run_pretrain(cfg, index, tmp_path / "run", seed=0)
        assert os.path.exists(ckpt)
        columns, rows = read_tsv_log(tmp_path / "run" / "pretrain_log.tsv")
        assert columns == ["step", "lr", "loss"]
        steps = [int(r[0]) for r in rows]
        assert steps == sorted(steps)
        for _, lr, loss in rows:
            assert float(lr) >= 0 and np.isfinite(float(loss))

    def test_zero_ratio_rejected_before_training(self, tmp_path):
        cfg = desk_config()
        cfg.mask.mask_ratio = 0.0
        with pytest.raises(ValueError):
            run_pretrain(cfg, micro_dataset(tmp_path), tmp_path / "run", seed=0)

    def test_resume_equivalence_bitwise(self, tmp_path):
        """Training 4 epochs equals training 2 then resuming 2 more."""
        index = micro_dataset(tmp_path)

        straight_cfg = desk_config()
        straight_cfg.schedule.epochs = 4
        straight, _ = run_pretrain(straight_cfg, index, tmp_path / "straight", seed=11)

        resumed_cfg = desk_config()
        resumed_cfg.schedule.epochs = 4
        resumed, _ = run_pretrain(
            resumed_cfg, index, tmp_path / "resumed", seed=11,
            resume=tmp_path / "straight" / "checkpoint_e2.sldb",
        )

        a = dict(straight.named_params())
        b = dict(resumed.named_params())
        assert a.keys() == b.keys()
        for name in a:
            assert np.array_equal(a[name].data, b[name].data), name

    def test_resume_into_same_dir_logs_each_step_once(self, tmp_path):
        index = micro_dataset(tmp_path)
        cfg = desk_config(**{"train.log_every": 1})
        run_pretrain(cfg, index, tmp_path / "run", seed=8)
        log = tmp_path / "run" / "pretrain_log.tsv"
        straight = log_body(log)
        header = log.read_text().splitlines()[0]
        run_pretrain(cfg, index, tmp_path / "run", seed=8,
                     resume=tmp_path / "run" / "checkpoint_e1.sldb")
        assert log_body(log) == straight
        assert log.read_text().splitlines()[0] == header

    def test_same_seed_same_result(self, tmp_path):
        index = micro_dataset(tmp_path)
        m1, _ = run_pretrain(desk_config(), index, tmp_path / "a", seed=5)
        m2, _ = run_pretrain(desk_config(), index, tmp_path / "b", seed=5)
        for (n1, p1), (n2, p2) in zip(m1.named_params(), m2.named_params()):
            assert n1 == n2
            assert np.array_equal(p1.data, p2.data)


class TestDropPath:
    """Stochastic depth draws from a per-step stream, so both loops train
    with it and resume exactly."""

    def test_pretrain_trains_and_resumes_bitwise(self, tmp_path):
        index = micro_dataset(tmp_path)
        cfg = desk_config(**{"model.drop_path": 0.1})
        straight, _ = run_pretrain(cfg, index, tmp_path / "straight", seed=4)
        _, rows = read_tsv_log(tmp_path / "straight" / "pretrain_log.tsv")
        assert rows and all(np.isfinite(float(r[2])) for r in rows)
        resumed, _ = run_pretrain(cfg, index, tmp_path / "resumed", seed=4,
                                  resume=tmp_path / "straight" / "checkpoint_e1.sldb")
        no_drop, _ = run_pretrain(desk_config(), index, tmp_path / "no_drop", seed=4)
        a, b = dict(straight.named_params()), dict(resumed.named_params())
        for name in a:
            assert np.array_equal(a[name].data, b[name].data), name
        c = dict(no_drop.named_params())
        assert any(not np.array_equal(a[n].data, c[n].data) for n in a)

    def test_finetune_trains_and_resumes_bitwise(self, tmp_path):
        index = micro_dataset(tmp_path, per_class=3)
        train_idx, eval_idx = split_dataset(index, 0.7, seed=0)
        cfg = desk_config(**{"model.drop_path": 0.1, "train.mask_in_finetune": True})
        straight, _, _ = run_finetune(cfg, train_idx, eval_idx,
                                      tmp_path / "straight", seed=6)
        _, rows = read_tsv_log(tmp_path / "straight" / "metrics_log.tsv")
        assert len(rows) == 2 and all(np.isfinite(float(r[1])) for r in rows)
        resumed, _, _ = run_finetune(cfg, train_idx, eval_idx, tmp_path / "resumed", seed=6,
                                     resume=tmp_path / "straight" / "checkpoint_e1.sldb")
        a, b = dict(straight.named_params()), dict(resumed.named_params())
        for name in a:
            assert np.array_equal(a[name].data, b[name].data), name


class TestHelperThread:
    def test_split_pipeline_bytes_repeat(self, tmp_path, monkeypatch):
        """With the split threshold lowered so that every op splits, a tiny
        pretrain -> warm-started fine-tune (CutMix/MixUp, masked input)
        writes the same checkpoints and log bodies each time, however the
        two threads interleave."""
        index = micro_dataset(tmp_path)
        train_idx, eval_idx = split_dataset(index, 0.7, seed=0)
        cfg = desk_config(**{"train.mask_in_finetune": True, "augment.cutmix": True,
                             "augment.mixup": True})
        monkeypatch.setattr(tensor_mod, "_SPLIT_MIN", 2)
        tasks = []

        class CountingPool(ThreadPoolExecutor):
            def submit(self, *args, **kwargs):
                tasks.append(1)
                return super().submit(*args, **kwargs)

        def pipeline(out):
            with CountingPool(1) as pool:
                monkeypatch.setattr(tensor_mod, "_POOL", pool)
                run_pretrain(cfg, index, out / "pre", seed=5)
                run_finetune(cfg, train_idx, eval_idx, out / "ft", seed=5,
                             init_checkpoint=out / "pre" / "checkpoint.sldb")
            files = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*.sldb"))}
            logs = [log_body(out / "pre" / "pretrain_log.tsv"),
                    log_body(out / "ft" / "metrics_log.tsv")]
            return files, logs

        first = pipeline(tmp_path / "first")
        halves = len(tasks)  # a batch half per taped forward and backward
        assert halves > 20
        assert len(first[0]) == 6
        assert pipeline(tmp_path / "second") == first
        assert len(tasks) == 2 * halves


class TestRunFinetune:
    def test_smoke_and_metrics_log(self, tmp_path):
        cfg = desk_config()
        index = micro_dataset(tmp_path, per_class=3)
        train_idx, eval_idx = split_dataset(index, 0.7, seed=0)
        model, metrics, ckpt = run_finetune(cfg, train_idx, eval_idx,
                                            tmp_path / "ft", seed=0)
        assert os.path.exists(ckpt)
        assert metrics.confusion.sum() == len(eval_idx)
        columns, rows = read_tsv_log(tmp_path / "ft" / "metrics_log.tsv")
        assert columns[0] == "epoch" and len(rows) == cfg.schedule.epochs
        # one image per class leaves the 0.8 training split empty
        one_each = build_index(write_synthetic_dataset(tmp_path / "one", per_class=1))
        empty_train, rest = split_dataset(one_each, 0.8, seed=0)
        with pytest.raises(ValueError, match="finetune: the training index is empty"):
            run_finetune(cfg, empty_train, rest, tmp_path / "empty", seed=0)

    def test_pretrained_init_changes_only_weights_not_data_order(self, tmp_path):
        index = micro_dataset(tmp_path, per_class=3)
        train_idx, eval_idx = split_dataset(index, 0.7, seed=0)
        pre_cfg = desk_config()
        pre_cfg.schedule.epochs = 1
        _, ckpt = run_pretrain(pre_cfg, index, tmp_path / "pre", seed=3)

        cfg = desk_config()
        cfg.schedule.epochs = 1
        m_scratch, _, _ = run_finetune(cfg, train_idx, eval_idx, tmp_path / "s", seed=7)
        m_warm, _, _ = run_finetune(cfg, train_idx, eval_idx, tmp_path / "w", seed=7,
                                    init_checkpoint=ckpt)
        # identical seeds, different initial encoders -> different weights,
        # but the head/geometry and parameter inventory agree
        names_s = [n for n, _ in m_scratch.named_params()]
        names_w = [n for n, _ in m_warm.named_params()]
        assert names_s == names_w

    def test_resume_equivalence_bitwise(self, tmp_path):
        index = micro_dataset(tmp_path, per_class=3)
        train_idx, eval_idx = split_dataset(index, 0.7, seed=0)

        straight_cfg = desk_config()
        straight_cfg.schedule.epochs = 4
        straight, _, _ = run_finetune(straight_cfg, train_idx, eval_idx,
                                      tmp_path / "straight", seed=2)

        resumed_cfg = desk_config()
        resumed_cfg.schedule.epochs = 4
        resumed, _, _ = run_finetune(
            resumed_cfg, train_idx, eval_idx, tmp_path / "resumed", seed=2,
            resume=tmp_path / "straight" / "checkpoint_e2.sldb",
        )
        a = dict(straight.named_params())
        b = dict(resumed.named_params())
        for name in a:
            assert np.array_equal(a[name].data, b[name].data), name

    def test_resume_into_same_dir_logs_each_epoch_once(self, tmp_path):
        index = micro_dataset(tmp_path, per_class=3)
        train_idx, eval_idx = split_dataset(index, 0.7, seed=0)
        cfg = desk_config()
        run_finetune(cfg, train_idx, eval_idx, tmp_path / "run", seed=4)
        log = tmp_path / "run" / "metrics_log.tsv"
        straight = log_body(log)
        run_finetune(cfg, train_idx, eval_idx, tmp_path / "run", seed=4,
                     resume=tmp_path / "run" / "checkpoint_e1.sldb")
        assert log_body(log) == straight

    def test_mask_in_finetune_changes_only_masked_positions(self, tmp_path):
        cfg = desk_config()
        cfg.train.mask_in_finetune = True
        model = SwinClassifier(cfg.model, Rng(12), with_mask_token=True)
        images = Rng(13).child(0).normal(size=(2, 64, 64, 3)).astype(np.float32)
        from swinmim.mim import MaskSpec, generate_mask
        from swinmim.swin import patch_partition

        masks = np.stack([
            generate_mask(MaskSpec(16, 0.5), 64, Rng(14).child(i)).token_mask()
            for i in range(2)
        ])
        enc = model.encoder
        x = patch_partition(Tensor(images))
        embedded = enc.embed_norm(enc.embed(x)).numpy()
        from swinmim.mim import apply_mask

        substituted = apply_mask(Tensor(embedded), masks, model.mask_token).numpy()
        differs = (substituted != embedded).any(axis=-1)
        assert np.array_equal(differs, masks)


class TestEvaluate:
    def test_deterministic_bitwise(self, tmp_path):
        cfg = desk_config()
        index = micro_dataset(tmp_path, per_class=2)
        model = SwinClassifier(cfg.model, Rng(15))
        m1 = evaluate(model, index, cfg)
        m2 = evaluate(model, index, cfg)
        assert np.array_equal(m1.confusion, m2.confusion)

    def test_row_sums_match_class_counts(self, tmp_path):
        cfg = desk_config()
        index = micro_dataset(tmp_path, per_class=2)
        model = SwinClassifier(cfg.model, Rng(16))
        m = evaluate(model, index, cfg)
        assert m.confusion.sum(axis=1).tolist() == index.class_counts()


class TestTsvLog:
    def test_round_trip_and_header_timestamp(self, tmp_path):
        path = tmp_path / "log.tsv"
        log = TsvLog(path, ("a", "b"), "unit")
        log.write(1, 0.5)
        log.write(2, 0.25)
        log.close()
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# unit started ")
        columns, rows = read_tsv_log(path)
        assert columns == ["a", "b"]
        assert [(int(a), float(b)) for a, b in rows] == [(1, 0.5), (2, 0.25)]
