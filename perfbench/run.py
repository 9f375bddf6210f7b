"""Benchmark runner for swinmim; see README.md beside this file.

    python3 perfbench/run.py --workload pretrain-192 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One workload per process.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}; the metrics are the
end-to-end ones with --trace 0 and the per-layer ones with --trace 1.
`--workload all` runs every workload untraced and then traced, each in a
fresh process, and prints one table with the tracing overhead.
"""

import os

# Pin the BLAS pool before numpy loads: one thread keeps step times steady
# on a small shared machine, and BLAS results bitwise repeatable.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

END_TO_END = (
    ("train_img_per_s", "img/s"),
    ("step_ms_p50", "ms"),
    ("step_ms_tail", "ms"),
    ("eval_img_per_s", "img/s"),
    ("final_loss", "loss"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
SETUP_SAMPLES = 3  # two fresh child processes plus this one
READY = "SETUP_READY"
CHILD_TIMEOUT_S = 170


def process_age_s():
    """Seconds since this process started (0 where /proc is unavailable)."""
    try:
        with open("/proc/self/stat") as f:
            start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as f:
            uptime = float(f.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))


def blas_runtime_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    try:
        with open("/proc/self/maps") as f:
            paths = {ln.split()[-1] for ln in f if "openblas" in ln.lower()}
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_runtime": blas_runtime_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def import_swinmim():
    sys.path.insert(0, SRC)
    import swinmim
    import swinmim.augment
    import swinmim.config
    import swinmim.data
    import swinmim.mim
    import swinmim.swin
    import swinmim.train

    if os.path.dirname(os.path.abspath(swinmim.__file__)) != os.path.join(SRC, "swinmim"):
        raise ImportError(f"swinmim imported from {swinmim.__file__}, not from {SRC}")
    return swinmim


def child_args(args, *extra):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    return cmd + (["--smoke"] if args.smoke else []) + list(extra)


def probe_setup(args):
    """Wall time from spawning a fresh interpreter to its warm-up step done."""
    start = time.perf_counter()
    proc = subprocess.Popen(child_args(args, "--setup-probe"), stdout=subprocess.PIPE,
                            text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != READY or code != 0:
        raise RuntimeError(f"setup probe failed (exit {code}, said {line.strip()!r})")
    return elapsed


def run_workload(args):
    started = time.perf_counter()
    age = process_age_s()
    swinmim = import_swinmim()
    imports_s = age + time.perf_counter() - started

    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    if args.setup_probe:
        cls(swinmim, ROOT, args.seed, args.smoke).setup()
        print(READY, flush=True)
        os._exit(0)  # skip teardown of the model: it is not part of set-up

    samples = [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
    began = time.perf_counter()
    wl = cls(swinmim, ROOT, args.seed, args.smoke)
    wl.setup()
    samples.append(imports_s + time.perf_counter() - began)

    workdir = os.path.join(HERE, "_work", f"{args.workload}-{os.getpid()}")
    tracer = None
    try:
        wl.prepare(workdir)
        gc.collect()
        if args.trace:
            from tracer import Tracer

            tracer = Tracer(swinmim).install()
        before = resource.getrusage(resource.RUSAGE_SELF)
        try:
            e2e, details = wl.run(args.seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        after = resource.getrusage(resource.RUSAGE_SELF)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # absent, or another run's work dir is still inside

    e2e["setup_s"] = statistics.median(samples)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    details["setup_samples_s"] = samples
    details["iterations"] = wl.iterations
    # CPU split and page faults of the measured window: where the time went
    # when wall-clock figures move between runs.
    details["window_cpu_user_s"] = after.ru_utime - before.ru_utime
    details["window_cpu_sys_s"] = after.ru_stime - before.ru_stime
    details["window_minor_faults"] = after.ru_minflt - before.ru_minflt

    if args.trace:
        from layers import MOVES, PER_LAYER, analyse

        values, problems = analyse(swinmim.swin, tracer.spans, tracer.counters,
                                   wl.iterations, wl.step_ms)
        wl.check("trace_tree_and_macs", not problems, "; ".join(problems[:5]) or
                 f"{len(tracer.spans)} spans nest; encoder MACs "
                 f"{values['trace.encoder_mac_ratio']:.4f}x swin.count_flops x batch")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
        details["moves"] = MOVES
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    correct = all(ok for _, ok, _ in wl.checks)
    result = {"correct": correct, "attempted": wl.attempted, "failed": wl.failed,
              "metrics": metrics}
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "environment": environment(args.seed),
              "checks": wl.checks, "details": details, **result}

    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(report, f, indent=1, default=str)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} -> {os.path.relpath(path, ROOT)}")
    print(f"# environment {json.dumps(report['environment'])}")
    for name, m in metrics.items():
        print(f"# {args.workload:14s} {name:34s} {m['value']:14.4f} {m['unit']}")
    for key, value in details.items():
        if key != "moves":
            print(f"# {args.workload:14s} {key:34s} {value}")
    for name, ok, detail in wl.checks:
        print(f"# check {name}: {'ok' if ok else 'FAILED'} ({detail})")
    print(json.dumps(result), flush=True)
    return 0


def run_all(args):
    """Each workload untraced, then traced, each in a fresh process."""
    from workloads import WORKLOADS

    rows, ok = {}, True
    for name in WORKLOADS:
        for trace in (0, 1):
            sub = argparse.Namespace(**{**vars(args), "workload": name})
            proc = subprocess.run(child_args(sub, "--trace", str(trace)), cwd=ROOT,
                                  stdout=subprocess.PIPE, text=True,
                                  timeout=CHILD_TIMEOUT_S + args.seconds * 4)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}")
                ok = False
                continue
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            rows[(name, trace)] = result
    print("\nworkload        metric                           value  unit")
    for (name, trace), result in rows.items():
        if trace == 0:
            for metric, m in result["metrics"].items():
                print(f"{name:15s} {metric:24s} {m['value']:14.4f}  {m['unit']}")
    for name in WORKLOADS:
        if (name, 0) in rows and (name, 1) in rows:
            plain = rows[(name, 0)]["metrics"]["step_ms_p50"]["value"]
            traced = rows[(name, 1)]["metrics"]["trace.step_ms_p50"]["value"]
            print(f"{name:15s} tracing overhead on step_ms_p50: {traced - plain:+.2f} ms "
                  f"({100 * (traced - plain) / plain:+.1f}%)")
    summary = {f"{n}/trace{t}": r["correct"] for (n, t), r in rows.items()}
    print(json.dumps({"correct": ok, "runs": summary}))
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   help="pretrain-192, finetune-224, tiny-pipeline, or all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="shrink every workload to a minimal size (for the smoke tests)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "swinmim", "__init__.py")):
        print(f"error: no swinmim package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
