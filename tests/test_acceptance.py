"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Desk-scale fixtures (tiny model, synthetic data) keep every
criterion far under its stated runtime budget.
"""

import math
import time

import numpy as np
import pytest

from conftest import synthetic_image, tiny_config, write_synthetic_dataset
from swinmim.augment import cutmix, mixup, sample_cut_box, sample_lambda
from swinmim.config import config_from_dict
from swinmim.data import (
    DatasetIndex,
    ImageRecord,
    build_index,
    one_hot,
    split_dataset,
)
from swinmim.mim import (
    MaskSpec,
    MIMPretrainModel,
    generate_mask,
    masked_l1_loss,
    pretrain_step,
    round_half_up,
)
from swinmim.rng import Rng
from swinmim.swin import SwinConfig, count_attention_flops, count_flops, count_params
from swinmim.tensor import Tape, Tensor, cyclic_shift, grad_check, window_partition, window_reverse
from swinmim.train import (
    AdamW,
    CosineSchedule,
    Metrics,
    load_checkpoint,
    read_tsv_log,
    run_finetune,
    run_pretrain,
    save_checkpoint,
)

SL = SwinConfig()  # lightweight model: C=96, depths (2,2,6,2), heads (3,6,12,24)
BASELINE = SwinConfig(embed_dim=128, depths=(2, 2, 18, 2), heads=(4, 8, 16, 32))


def report(number, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: PASS{suffix}")


def desk_config(**sections):
    data = {
        "model": {"img_size": 64, "embed_dim": 16, "depths": [2, 2, 2, 2],
                  "heads": [2, 2, 4, 4], "window_size": 4},
        "mask": {"mask_patch_size": 16, "mask_ratio": 0.5},
        "optimizer": {"base_lr": 0.002},
        "schedule": {"epochs": 1},
        "train": {"batch_size": 8, "mask_in_finetune": False},
    }
    data.update(sections)
    return config_from_dict(data).validate()


def test_criterion_01_parameter_counts():
    start = time.monotonic()
    sl = count_params(SL)
    base = count_params(BASELINE)
    elapsed = time.monotonic() - start
    assert abs(sl - 27_527_044) <= 0.01 * 27_527_044
    assert abs(base - 86_753_474) <= 0.01 * 86_753_474
    assert elapsed < 1.0
    report(1, "parameter counts", f"{sl} and {base}, {elapsed:.3f}s")


def test_criterion_02_flop_counts():
    start = time.monotonic()
    sl = count_flops(SL, 224)
    base = count_flops(BASELINE, 224)
    # the attention formulas themselves, exact integer equality
    assert count_attention_flops("msa", 8, 8, 4) == 4 * 64 * 16 + 2 * 64 * 64 * 4
    assert count_attention_flops("wmsa", 8, 8, 4, 4) == 4 * 64 * 16 + 2 * 16 * 64 * 4
    for h, w, c, m in [(56, 56, 96, 7), (28, 28, 192, 7), (14, 14, 384, 7), (7, 7, 768, 7)]:
        assert count_attention_flops("wmsa", h, w, c, m) == \
            4 * h * w * c * c + 2 * m * m * h * w * c
        assert count_attention_flops("msa", h, w, c) == \
            4 * h * w * c * c + 2 * (h * w) ** 2 * c
    elapsed = time.monotonic() - start
    assert abs(sl / 1e9 - 4.49) <= 0.1 * 4.49
    assert abs(base / 1e9 - 15.26) <= 0.1 * 15.26
    assert elapsed < 1.0
    report(2, "FLOP counts", f"{sl / 1e9:.3f}G and {base / 1e9:.3f}G, {elapsed:.3f}s")


def test_criterion_03_gradient_suite():
    start = time.monotonic()
    from test_tensor import KERNELS, t64
    from test_tensor import test_kernel_grad_check

    for seed in (0, 1, 2):
        for name in KERNELS:
            test_kernel_grad_check(name, seed)

    # end-to-end masked pretraining loss on the tiny config, float64
    model = MIMPretrainModel(tiny_config(), Rng(13), mask_spec=MaskSpec(16, 0.5),
                             dtype=np.float64)
    rng = Rng(14)
    images = Tensor(rng.child(0).uniform(-1, 1, size=(1, 64, 64, 3)))
    masks = [generate_mask(model.mask_spec, 64, rng.child(1, 0))]
    worst = 0.0
    coord_rng = Rng(15)
    for i, (name, param) in enumerate(model.named_params()):
        err = grad_check(lambda _p: model.loss(images, masks, training=False),
                         param, h=1e-6, num_samples=2, rng=coord_rng.child(i))
        worst = max(worst, err)
        assert err < 1e-4, f"{name}: rel err {err}"
    elapsed = time.monotonic() - start
    assert elapsed < 300
    report(3, "gradient suite", f"worst end-to-end rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_04_mask_locality_and_counts():
    # gradient locality: unmasked pixels get exactly zero gradient
    rng = Rng(16)
    pred = Tensor(rng.child(0).normal(size=(2, 32, 32, 3)), requires_grad=True)
    target = Tensor(rng.child(1).normal(size=(2, 32, 32, 3)))
    pixel_mask = rng.child(2).uniform(size=(2, 32, 32)) < 0.5
    with Tape() as tape:
        loss = masked_l1_loss(pred, target, pixel_mask)
    tape.backward(loss)
    assert (pred.grad[~pixel_mask] == 0.0).all()
    assert (pred.grad[pixel_mask] != 0.0).any()

    # count exactness over the full strategy grid, 100 seeds each
    for patch in (16, 32, 64):
        for ratio in (0.4, 0.5, 0.6):
            spec = MaskSpec(patch, ratio)
            units = spec.units_per_side(224) ** 2
            expected = round_half_up(ratio * units)
            for seed in range(100):
                m = generate_mask(spec, 224, Rng(seed))
                assert m.unit_grid.sum() == expected
    report(4, "masked-loss locality and count exactness")


def test_criterion_05_pretraining_convergence():
    start = time.monotonic()
    model = MIMPretrainModel(tiny_config(), Rng(19), mask_spec=MaskSpec(16, 0.5))
    rng = Rng(20)
    raw = np.stack([synthetic_image(c, rng.child(c), 64, noise=0.0) for c in range(8)])
    images = Tensor(((raw - 0.5) / 0.5).astype(np.float32))
    opt = AdamW(dict(model.named_params()), weight_decay=0.05)
    schedule = CosineSchedule(2e-3, 2e-5, 200)
    losses = []
    for step in range(200):
        masks = [generate_mask(model.mask_spec, 64, rng.child(1, step, i))
                 for i in range(8)]
        losses.append(pretrain_step(images, masks, model, opt, schedule.lr_at(step)))
    elapsed = time.monotonic() - start
    assert min(losses) <= 0.1 * losses[0]
    assert elapsed < 600
    report(5, "pretraining convergence",
           f"loss {losses[0]:.4f} -> {min(losses):.4f} in 200 steps, {elapsed:.1f}s")


def test_criterion_06_finetune_overfit(tmp_path):
    start = time.monotonic()
    root = write_synthetic_dataset(tmp_path / "ds", per_class=20, seed=42)
    index = build_index(root)
    results = {}
    for mix in (False, True):
        cfg = desk_config(
            augment={"cutmix": mix, "mixup": mix, "alpha": 1.0},
            schedule={"epochs": 50},
            train={"batch_size": 32, "mask_in_finetune": False, "early_stop_acc": 1.0},
        )
        _, metrics, _ = run_finetune(cfg, index, index, tmp_path / f"ft{mix}", seed=0)
        _, rows = read_tsv_log(tmp_path / f"ft{mix}" / "metrics_log.tsv")
        assert len(rows) <= 50
        assert metrics.accuracy == 1.0
        results[mix] = len(rows)
    elapsed = time.monotonic() - start
    assert elapsed < 900
    report(6, "fine-tune overfit",
           f"100% train acc in {results[False]}/{results[True]} epochs "
           f"(plain/mixed), {elapsed:.1f}s")


def test_criterion_07_augmentation_algebra():
    # box extents follow W*sqrt(1-lambda) exactly (integer rounding)
    for seed in range(100):
        lam = sample_lambda(1.0, Rng(30).child(seed))
        box = sample_cut_box(224, 224, lam, Rng(31).child(seed))
        assert box.r_w == round_half_up(224 * math.sqrt(1 - lam))
        assert box.r_h == round_half_up(224 * math.sqrt(1 - lam))

    # unclipped box area fraction equals 1 - lambda (brute-force pixel count)
    checked = 0
    for seed in range(300):
        lam = sample_lambda(1.0, Rng(32).child(seed))
        box = sample_cut_box(128, 128, lam, Rng(33).child(seed))
        if box.r_x + box.r_w > 128 or box.r_y + box.r_h > 128:
            continue
        grid = np.zeros((128, 128), bool)
        grid[box.r_y:box.r_y + box.r_h, box.r_x:box.r_x + box.r_w] = True
        assert abs(grid.sum() / 128 ** 2 - (1 - lam)) <= (box.r_w + box.r_h + 1) / 128 ** 2
        checked += 1
    assert checked >= 30

    # mixup identity at lambda = 1, soft-label closure everywhere
    rng = Rng(34)
    img_a = rng.child(0).uniform(size=(32, 32, 3)).astype(np.float32)
    img_b = rng.child(1).uniform(size=(32, 32, 3)).astype(np.float32)
    out, label = mixup((img_a, one_hot([3])[0]), (img_b, one_hot([8])[0]), 1.0)
    assert np.array_equal(out, img_a)
    for seed in range(50):
        lam = sample_lambda(1.0, Rng(35).child(seed))
        _, lbl = mixup((img_a, one_hot([3])[0]), (img_b, one_hot([8])[0]), lam)
        assert lbl.min() >= 0 and abs(lbl.sum() - 1) < 1e-6
        _, lbl, _ = cutmix((img_a, one_hot([1])[0]), (img_b, one_hot([2])[0]),
                           lam, Rng(36).child(seed))
        assert lbl.min() >= 0 and abs(lbl.sum() - 1) < 1e-6

    # Beta(1,1) uniformity by Kolmogorov-Smirnov
    stream = Rng(37).child(0)
    draws = np.sort([sample_lambda(1.0, stream) for _ in range(10_000)])
    n = len(draws)
    ks = max(np.abs(np.arange(1, n + 1) / n - draws).max(),
             np.abs(draws - np.arange(0, n) / n).max())
    assert ks < 0.02
    report(7, "augmentation algebra", f"KS statistic {ks:.4f}")


def test_criterion_08_structural_inverses(tmp_path):
    rng = Rng(40)
    x = Tensor(rng.child(0).normal(size=(8, 8, 3)).astype(np.float32))
    back = window_reverse(window_partition(x, 4), 4, 8, 8)
    assert np.array_equal(back.numpy(), x.numpy())
    rolled = cyclic_shift(cyclic_shift(x, 3, 5), -3, -5)
    assert np.array_equal(rolled.numpy(), x.numpy())

    # checkpoint round trip is bitwise, and resaving is byte-identical
    tensors = {"w": rng.child(1).normal(size=(7, 3)).astype(np.float32),
               "b": rng.child(2).normal(size=5)}
    p1, p2 = tmp_path / "a.sldb", tmp_path / "b.sldb"
    save_checkpoint(p1, {"note": "x"}, tensors)
    meta, loaded = load_checkpoint(p1)
    for k in tensors:
        assert np.array_equal(loaded[k], tensors[k])
    save_checkpoint(p2, meta, loaded)
    assert p1.read_bytes() == p2.read_bytes()

    # resume equivalence: 4 epochs straight == 2 epochs + resume
    root = write_synthetic_dataset(tmp_path / "ds", per_class=1, seed=5)
    index = build_index(root)
    cfg = desk_config(schedule={"epochs": 4})
    straight, _ = run_pretrain(cfg, index, tmp_path / "straight", seed=11)
    resumed, _ = run_pretrain(desk_config(schedule={"epochs": 4}), index,
                              tmp_path / "resumed", seed=11,
                              resume=tmp_path / "straight" / "checkpoint_e2.sldb")
    for (name, a), (_, b) in zip(straight.named_params(), resumed.named_params()):
        assert np.array_equal(a.data, b.data), name
    report(8, "structural inverses and resume equivalence")


def test_criterion_09_split_reproduction():
    index = DatasetIndex(root="mem")
    index.by_class[0] = [ImageRecord(f"mem/c0/{i}.ppm", 0) for i in range(2489)]
    for c in range(1, 10):
        index.by_class[c] = [ImageRecord(f"mem/c{c}/{i}.ppm", c) for i in range(100)]
    train, test = split_dataset(index, 0.8, seed=0)
    assert len(train.by_class[0]) == 1991
    assert len(test.by_class[0]) == 498

    train2, test2 = split_dataset(index, 0.8, seed=0)
    assert [r.path for r in train2.records] == [r.path for r in train.records]
    for c in range(10):
        a = {r.path for r in train.by_class[c]}
        b = {r.path for r in test.by_class[c]}
        assert not a & b
        assert a | b == {r.path for r in index.by_class[c]}
    report(9, "data split reproduction", "c0: 1991/498")


def test_criterion_10_metrics_oracle():
    rng = Rng(50).child(0)
    true = rng.integers(0, 10, size=1000)
    pred = rng.integers(0, 10, size=1000)
    m = Metrics.from_pairs(true, pred)
    pairs = list(zip(true.tolist(), pred.tolist()))
    assert m.accuracy == sum(t == p for t, p in pairs) / 1000
    for c in range(10):
        tp = sum(1 for t, p in pairs if t == c and p == c)
        fp = sum(1 for t, p in pairs if t != c and p == c)
        fn = sum(1 for t, p in pairs if t == c and p != c)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        assert m.precision[c] == precision
        assert m.recall[c] == recall
        assert np.isclose(m.f1[c], f1, rtol=0, atol=1e-15)
        for c2 in range(10):
            assert m.confusion[c, c2] == sum(1 for t, p in pairs if t == c and p == c2)
    report(10, "metrics oracle")


def test_criterion_11_mask_sweep_harness(tmp_path):
    start = time.monotonic()
    from swinmim.cli import main

    root = write_synthetic_dataset(tmp_path / "ds", per_class=2, seed=3)
    cfg_path = tmp_path / "cfg.json"
    import json

    cfg = {
        "model": {"img_size": 64, "embed_dim": 16, "depths": [2, 2, 2, 2],
                  "heads": [2, 2, 4, 4], "window_size": 4},
        "optimizer": {"base_lr": 0.002},
        "schedule": {"epochs": 1},
        "train": {"batch_size": 8},
    }
    cfg_path.write_text(json.dumps(cfg))
    code = main(["mask-sweep", "--config", str(cfg_path), "--data", str(root),
                 "--out", str(tmp_path / "sweep")])
    assert code == 0
    columns, rows = read_tsv_log(tmp_path / "sweep" / "sweep.tsv")
    assert columns == ["patch_size", "ratio", "accuracy", "wall_time_s"]
    assert len(rows) == 9
    grid = {(int(p), float(r)) for p, r, _, _ in rows}
    assert grid == {(p, r) for p in (16, 32, 64) for r in (0.4, 0.5, 0.6)}
    for _, _, acc, wall in rows:
        assert np.isfinite(float(acc)) and float(wall) >= 0
    elapsed = time.monotonic() - start
    assert elapsed < 5400
    report(11, "mask-sweep harness", f"9 cells in {elapsed:.1f}s")
