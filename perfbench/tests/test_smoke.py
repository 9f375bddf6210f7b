"""Smoke tests of the benchmark itself; no timing is asserted.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

import swinmim  # noqa: E402
import swinmim.train  # noqa: E402


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_yields_every_metric_with_a_unit(workload, trace):
    result = _result(_run("--workload", workload, "--seed", "3", "--seconds", "0.5",
                          "--trace", str(trace), "--smoke"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = ([(n, u) for n, u, _ in layers.PER_LAYER] if trace
                else list(run.END_TO_END))
    assert list(result["metrics"]) == [n for n, _ in expected]
    for name, unit in expected:
        metric = result["metrics"][name]
        assert metric["unit"] == unit
        assert np.isfinite(metric["value"])
        if not trace:
            assert metric["value"] > 0, name


def test_same_seed_gives_same_loss_digest():
    digests = set()
    for _ in range(2):
        _result(_run("--workload", "finetune-224", "--seed", "5", "--seconds", "0.2",
                     "--smoke"))
        path = os.path.join(BENCH, "results", "finetune-224_seed5_trace0.json")
        with open(path) as f:
            digests.add(json.load(f)["details"]["loss_digest"])
    assert len(digests) == 1


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER


def test_traced_span_tree_nests():
    cfg = swinmim.SwinConfig(**workloads.SMOKE_MODEL)
    model = swinmim.SwinClassifier(cfg, swinmim.Rng(0), with_mask_token=True)
    opt = swinmim.train.AdamW(dict(model.named_params()))
    images = swinmim.Tensor(np.random.default_rng(0).standard_normal(
        (2, cfg.img_size, cfg.img_size, 3)).astype(np.float32))
    labels = np.eye(10, dtype=np.float32)[[1, 2]]
    t = tracer_mod.Tracer(swinmim).install()
    try:
        t.step = 0
        with swinmim.Tape() as tape:
            loss = swinmim.train.soft_cross_entropy(model(images, training=True), labels)
        tape.backward(loss)
        opt.step(1e-3)
        t.step = 1
        model(images)
    finally:
        t.uninstall()
    assert swinmim.tensor.matmul.__name__ == "matmul"
    assert not hasattr(swinmim.swin.matmul, "__wrapped__")
    assert tracer_mod.check_nesting(t.spans) == []
    assert all(own >= 0 for own in tracer_mod.self_times(t.spans))
    names = {s[0] for s in t.spans}
    assert {"train.fwd", "tensor.backward", "train.optim", "train.loss", "swin.encoder",
            "swin.attn", "swin.stage3.block1", "swin.merge1", "tensor.op.matmul"} <= names
    values, problems = layers.analyse(swinmim.swin, t.spans, t.counters, 2, [1.0])
    assert problems == []
    assert values["tensor.tape_records"] > 0


def test_nesting_check_rejects_a_child_outside_its_parent():
    spans = [["parent", 10, 20, -1, 0, None], ["child", 15, 25, 0, 0, None]]
    assert tracer_mod.check_nesting(spans)


def test_fails_without_the_program(tmp_path):
    """In a tree holding only BENCHMARK.json and perfbench, the runner exits
    non-zero without printing a result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "_work", "__pycache__"))
    proc = _run("--workload", "tiny-pipeline", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
