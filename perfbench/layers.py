"""Per-layer metric catalogue and its computation from a traced run.

Unless a metric says otherwise, a value is a mean per loop iteration of
the traced window (see README.md for what one iteration is on each
workload).  Each metric names the end-to-end metric it should move.
"""

import statistics

from tracer import TENSOR_OPS, ancestors, check_nesting, self_times

MB = 1e6
MS = 1e6  # ns per ms

_TRAIN = "train_img_per_s on pretrain-192 and finetune-224"
_BOTH = "train_img_per_s and eval_img_per_s on pretrain-192 and finetune-224"
_TINY = "train_img_per_s and eval_img_per_s on tiny-pipeline (and its pretrain_s, finetune_s)"
_EXPAND = "expand_s on tiny-pipeline (reported beside the gated metrics)"


def _catalogue():
    """(name, unit, better, the end-to-end metric it should move) per metric."""
    rows = [
        ("tensor.backward_ms", "ms", "lower", _TRAIN),
        ("tensor.tape_records", "count", "lower",
         "step_ms_p50 on all workloads; most on tiny-pipeline, where per-op overhead dominates"),
        ("tensor.taped_mb", "MB", "lower", "peak_rss_mb on pretrain-192 and finetune-224"),
    ]
    for op in TENSOR_OPS:
        rows += [
            (f"tensor.op.{op}.calls", "count", "lower", _BOTH),
            (f"tensor.op.{op}.self_ms", "ms", "lower", _BOTH),
            (f"tensor.op.{op}.out_mb", "MB", "lower", "peak_rss_mb and " + _BOTH),
        ]
    rows += [
        ("tensor.op.matmul.gmac", "GMAC", "lower", _BOTH),
        ("tensor.op.linear.gmac", "GMAC", "lower", _BOTH),
        ("swin.encoder.fwd_ms", "ms", "lower", _BOTH),
        ("swin.embed.fwd_ms", "ms", "lower", _BOTH),
    ]
    rows += [(f"swin.stage{s}.fwd_ms", "ms", "lower", _BOTH) for s in range(4)]
    rows += [(f"swin.merge{s}.fwd_ms", "ms", "lower", _BOTH) for s in range(1, 4)]
    rows.append(("swin.attn.fwd_ms", "ms", "lower", _BOTH))
    rows += [(f"swin.stage{s}.gmac", "GMAC", "lower", _BOTH) for s in range(4)]
    rows += [
        ("mim.mask_ms", "ms", "lower",
         "train_img_per_s on pretrain-192; pretrain_s on tiny-pipeline"),
        ("mim.apply_mask_ms", "ms", "lower", "train_img_per_s on pretrain-192 and finetune-224"),
        ("mim.head_ms", "ms", "lower", "train_img_per_s and eval_img_per_s on pretrain-192"),
        ("mim.loss_ms", "ms", "lower", "train_img_per_s and eval_img_per_s on pretrain-192"),
        ("augment.mix_ms", "ms", "lower",
         "train_img_per_s on finetune-224; finetune_s on tiny-pipeline"),
    ]
    rows += [(f"augment.{name}_ms", "ms", "lower", _EXPAND)
             for name in ("adjust_hsv", "motion_blur", "gaussian_noise", "scale_and_flip")]
    rows.append(("augment.expand_images", "count", "lower", _EXPAND))
    for name in ("load_ppm", "save_ppm", "resize_bilinear"):
        rows += [
            (f"data.{name}.calls", "count", "lower", _TINY + "; " + _EXPAND),
            (f"data.{name}.ms", "ms", "lower", _TINY + "; " + _EXPAND),
        ]
    rows += [
        ("data.cache_hit_ratio", "ratio", "higher", _TINY),
        ("data.batch_wait_ms", "ms", "lower", _TINY),
        ("train.fwd_ms", "ms", "lower", _TRAIN),
        ("train.optim_ms", "ms", "lower", _TRAIN),
        ("train.loss_ms", "ms", "lower", "train_img_per_s on finetune-224 and tiny-pipeline"),
        ("train.eval_ms", "ms", "lower", _TINY),
        ("train.checkpoint_save_ms", "ms", "lower", _TINY),
        ("train.checkpoint_load_ms", "ms", "lower", _TINY),
        ("train.checkpoint_mb", "MB", "lower", _TINY),
        # Traced step_ms_p50: minus the untraced value it is the tracing overhead.
        ("trace.step_ms_p50", "ms", "lower", "none (tracing overhead)"),
        # Encoder MACs from spans over swin.count_flops x batch; above 1 by the
        # work spent on window padding.
        ("trace.encoder_mac_ratio", "ratio", "lower",
         "train_img_per_s where a stage pads (tiny-pipeline)"),
    ]
    return rows


CATALOGUE = _catalogue()
PER_LAYER = [(name, unit, better) for name, unit, better, _ in CATALOGUE]
MOVES = {name: moves for name, _, _, moves in CATALOGUE}


def _stage_of(name):
    """Stage index for block/merge span names, else None."""
    if name.startswith("swin.stage"):
        return int(name[len("swin.stage")])
    if name.startswith("swin.merge"):
        return int(name[len("swin.merge"):])
    return None


def encoder_macs(swin, config):
    """(swin.count_flops without head, the same plus window padding).

    SwinBlock pads a stage whose token grid the window does not divide, and
    its attention then runs on the padded grid; count_flops counts the
    unpadded one.  The two agree when no stage pads.
    """
    formula = swin.count_flops(config, include_head=False)
    padded = formula
    m = config.window_size
    res = config.img_size // swin.PATCH
    for s, depth in enumerate(config.depths):
        if s:
            res //= 2
        side = -(-res // m) * m
        if side != res:
            dim = config.stage_dim(s)
            padded += depth * (swin.count_attention_flops("wmsa", side, side, dim, m)
                               - swin.count_attention_flops("wmsa", res, res, dim, m))
    return formula, padded


def analyse(swin, spans, counters, iterations, traced_steps_ms):
    """Per-layer metric values plus the tracer's own checks.

    Returns (metrics dict, list of problems).  `iterations` is the number
    of loop iterations the spans cover.
    """
    n = max(iterations, 1)
    own = self_times(spans)
    total = {}
    self_ns = {}
    calls = {}
    attr_sum = {}
    stage_ns = [0] * 4
    stage_mac = [0] * 4
    encoder_mac = {}
    for i, s in enumerate(spans):
        name, dur = s[0], s[2] - s[1]
        total[name] = total.get(name, 0) + dur
        self_ns[name] = self_ns.get(name, 0) + own[i]
        calls[name] = calls.get(name, 0) + 1
        attrs = s[5] or {}
        for key, value in attrs.items():
            if key != "config":
                attr_sum[(name, key)] = attr_sum.get((name, key), 0) + value
        stage = _stage_of(name)
        if stage is not None and not any(
                _stage_of(spans[a][0]) is not None for a in ancestors(spans, i)):
            stage_ns[stage] += dur
        if "mac" in attrs:
            for a in ancestors(spans, i):
                anc = spans[a][0]
                stage = _stage_of(anc)
                if stage is not None:
                    stage_mac[stage] += attrs["mac"]
                if anc == "swin.encoder":
                    encoder_mac[a] = encoder_mac.get(a, 0) + attrs["mac"]
                    break

    def ms(name):
        return total.get(name, 0) / MS / n

    def per_call_ms(name):
        return total.get(name, 0) / MS / calls[name] if calls.get(name) else 0.0

    tapes = sum(v for (k, _), v in counters.items() if k == "tensor.tapes")
    records = sum(v for (k, _), v in counters.items() if k == "tensor.tape_records")
    taped = sum(v for (k, _), v in counters.items() if k == "tensor.taped_bytes")
    m = {
        "tensor.backward_ms": ms("tensor.backward"),
        "tensor.tape_records": records / tapes if tapes else 0.0,
        "tensor.taped_mb": taped / MB / tapes if tapes else 0.0,
    }
    for op in TENSOR_OPS:
        key = f"tensor.op.{op}"
        m[f"{key}.calls"] = calls.get(key, 0) / n
        m[f"{key}.self_ms"] = self_ns.get(key, 0) / MS / n
        m[f"{key}.out_mb"] = attr_sum.get((key, "out_bytes"), 0) / MB / n
    for op in ("matmul", "linear"):
        m[f"tensor.op.{op}.gmac"] = attr_sum.get((f"tensor.op.{op}", "mac"), 0) / 1e9 / n
    m["swin.encoder.fwd_ms"] = ms("swin.encoder")
    m["swin.embed.fwd_ms"] = sum(ms(k) for k in (
        "swin.patch_partition", "swin.embed.linear", "swin.embed.norm"))
    for s in range(4):
        m[f"swin.stage{s}.fwd_ms"] = stage_ns[s] / MS / n
    for s in range(1, 4):
        m[f"swin.merge{s}.fwd_ms"] = ms(f"swin.merge{s}")
    m["swin.attn.fwd_ms"] = ms("swin.attn")
    for s in range(4):
        m[f"swin.stage{s}.gmac"] = stage_mac[s] / 1e9 / n
    m["mim.mask_ms"] = ms("mim.mask")
    m["mim.apply_mask_ms"] = ms("mim.apply_mask")
    m["mim.head_ms"] = ms("mim.head")
    m["mim.loss_ms"] = ms("mim.loss")
    m["augment.mix_ms"] = ms("augment.mix")
    for name in ("adjust_hsv", "motion_blur", "gaussian_noise", "scale_and_flip"):
        m[f"augment.{name}_ms"] = per_call_ms(f"augment.{name}")
    m["augment.expand_images"] = attr_sum.get(("augment.expand_dataset", "images"), 0) / n
    for name in ("load_ppm", "save_ppm", "resize_bilinear"):
        m[f"data.{name}.calls"] = calls.get(f"data.{name}", 0) / n
        m[f"data.{name}.ms"] = ms(f"data.{name}")
    lookups = calls.get("data.cache_get", 0)
    misses = attr_sum.get(("data.cache_get", "miss"), 0)
    m["data.cache_hit_ratio"] = (lookups - misses) / lookups if lookups else 0.0
    m["data.batch_wait_ms"] = per_call_ms("data.batch_wait")
    m["train.fwd_ms"] = ms("train.fwd")
    m["train.optim_ms"] = ms("train.optim")
    m["train.loss_ms"] = ms("train.loss")
    m["train.eval_ms"] = ms("train.eval")
    m["train.checkpoint_save_ms"] = ms("train.checkpoint_save")
    m["train.checkpoint_load_ms"] = ms("train.checkpoint_load")
    saves = calls.get("train.checkpoint_save", 0)
    m["train.checkpoint_mb"] = (attr_sum.get(("train.checkpoint_save", "bytes"), 0) / MB / saves
                                if saves else 0.0)
    m["trace.step_ms_p50"] = statistics.median(traced_steps_ms) if traced_steps_ms else 0.0

    problems = check_nesting(spans)
    ratios = []
    for i, mac in encoder_mac.items():
        attrs = spans[i][5]
        formula, padded = encoder_macs(swin, attrs["config"])
        ratios.append(mac / (formula * attrs["batch"]))
        if abs(mac / (padded * attrs["batch"]) - 1.0) > 0.10:
            problems.append(f"encoder MACs from spans are {mac / (padded * attrs['batch']):.3f}x "
                            "swin.count_flops x batch (window padding included)")
    m["trace.encoder_mac_ratio"] = statistics.mean(ratios) if ratios else 0.0
    if not ratios:
        problems.append("no encoder forward was traced")
    missing = [name for name, _, _ in PER_LAYER if name not in m]
    if missing:
        problems.append(f"per-layer metrics not computed: {missing}")
    return m, problems
