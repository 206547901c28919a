"""tarjama benchmark: fixed-seed workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload pipeline --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 36 --trace 0

Each workload sets up its generated inputs several times (the median is
``setup_s``), then repeats its job until ``--seconds`` have passed and
reports medians.  With ``--trace 0`` the last line of standard output is
the end-to-end result; with ``--trace 1`` the job alternates untraced and
traced repeats, and the last line holds the per-layer metrics from the
traced ones plus the tracing overhead.  The earlier lines name the
machine and every workload-specific metric (see README.md).
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOAD_NAMES = ("pipeline", "translate", "text_tools")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
MIN_REPEATS = 4

END_TO_END = [
    ("job_ref", "ref"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("heldout_nll", "nat/tok"),
]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def machine():
    import numpy as np

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def run_workload(args):
    # One thread of load: keep BLAS single-threaded unless told otherwise.
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    start = perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import tracing
        import workloads
        from reference import Reference
    except ImportError as exc:
        print("bench: cannot import tarjama from %s: %s"
              % (os.path.join(ROOT, "src"), exc), file=sys.stderr)
        return 2
    # This process can import only once; two child processes time the
    # same imports again, and set-up counts the median of the three.
    import_s = statistics.median(
        [perf_counter() - start] + [_child_import_s() for _ in range(2)])

    work = os.path.join(ROOT, ".bench_work", "%s-%d" % (args.workload, os.getpid()))
    try:
        return _measure(args, workloads, tracing, Reference, import_s, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _child_import_s():
    code = ("import sys, time; sys.path[:0] = %r; start = time.perf_counter(); "
            "import tracing, workloads, reference; print(time.perf_counter() - start)"
            % [os.path.join(ROOT, "src"), BENCH])
    out = subprocess.run([sys.executable, "-c", code], stdout=subprocess.PIPE,
                         text=True, check=True, timeout=60)
    return float(out.stdout)


def _measure(args, workloads, tracing, Reference, import_s, work):
    ops = workloads.Ops()
    wl = workloads.WORKLOADS[args.workload]()
    setup_times = []
    for k in range(SETUP_REPEATS):
        directory = os.path.join(work, "setup-%d" % k)
        os.makedirs(directory)
        start = perf_counter()
        wl.setup(args.seed, directory, ops)
        setup_times.append(perf_counter() - start)

    # plain / traced: whole-job times; steps: each step's times over the
    # untraced repeats.  Every time is read from the reference clock, which
    # leaves out the reference loop's own samples.
    plain, traced, steps, layers = [], [], {}, []
    plain_ref, traced_ref = [], []  # reference samples taken during each kind
    with Reference() as ref:
        tracer = tracing.Tracer(ref.clock) if args.trace else None
        begin = perf_counter()
        while True:
            done = len(plain) + len(traced)
            typical = statistics.median(plain + traced) if done else 0.0
            if done >= MIN_REPEATS and perf_counter() - begin + typical > args.seconds:
                break
            wl.prepare()
            with_trace = tracer is not None and done % 2 == 1
            if with_trace:
                tracer.reset_counts()
                first = len(tracer.spans)
                tracer.install()
            start, sampled = ref.clock(), len(ref.samples)
            try:
                parts = wl.job(ops, ref.clock)
            finally:
                took = ref.clock() - start
                if with_trace:
                    tracer.uninstall()
            (traced if with_trace else plain).append(took)
            (traced_ref if with_trace else plain_ref).extend(ref.samples[sampled:])
            if with_trace:
                layers.append(tracing.layer_metrics(tracer, first))
            else:
                for name, seconds in parts.items():
                    steps.setdefault(name, []).append(seconds)
    ref_s = statistics.median(ref.samples)

    heldout = ops.run("heldout_nll", wl.heldout_nll)
    if heldout is None:
        heldout = float("nan")

    print("machine: " + json.dumps(machine(), sort_keys=True))
    print("workload: %s seed=%d seconds=%g trace=%d repeats=%d setup_repeats=%d "
          "reference_samples=%d" % (args.workload, args.seed, args.seconds, args.trace,
                                    len(plain) + len(traced), SETUP_REPEATS,
                                    len(ref.samples)))
    for problem in ops.problems[:20]:
        print("FAILED " + problem)
    named = _named_metrics(args.workload, steps, heldout)
    named["job_s"] = (job_seconds(steps), "s")
    named["reference_ms"] = (1000.0 * ref_s, "ms")
    named["error_rate"] = (ops.failed / ops.attempted, "1")
    for name, (value, unit) in named.items():
        print("metric %s = %.6g %s" % (name, value, unit))

    if tracer is None:
        metrics = {
            "job_ref": job_seconds(steps) / ref_s,
            "setup_s": import_s + statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "heldout_nll": heldout,
        }
        units = dict(END_TO_END)
    else:
        metrics = {name: statistics.median(run[name] for run in layers)
                   for name, _ in tracing.PER_LAYER}
        for name in tracing.COUNTERS:
            values = {run[name] for run in layers}
            ops.attempted += 1
            if len(values) != 1:
                ops.failed += 1
                print("FAILED work counter %s differs between repeats: %s"
                      % (name, sorted(values)))
            metrics[name] = layers[0][name]
        # Each kind of repeat against the reference samples taken during
        # it, so that drift between the repeats does not read as overhead.
        share = (statistics.median(traced) / statistics.median(traced_ref)) / (
            statistics.median(plain) / statistics.median(plain_ref)) - 1.0
        metrics["trace.overhead_s"] = share * statistics.median(plain)
        metrics["trace.overhead_pct"] = 100.0 * share
        units = dict(tracing.PER_LAYER)
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        tracer.write(os.path.join(ROOT, ".bench_out", "spans-%s.tsv" % args.workload))
        for name, _ in tracing.PER_LAYER:
            print("layer %s = %.6g %s" % (name, metrics[name], units[name]))

    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def job_seconds(steps):
    """A job's time with each step at its median over the repeats, so that
    a job of many steps averages the noise of every step."""
    return sum(statistics.median(times) for times in steps.values())


def _named_metrics(workload, steps, heldout):
    """The workload-specific names used in README.md, from untraced repeats."""
    named = {}
    if workload == "pipeline":
        named["experiment_s"] = (job_seconds(steps), "s")
        named["dev_nll"] = (heldout, "nat/tok")
    elif workload == "translate":
        decode_ms = [1000.0 * t for name, times in steps.items()
                     if name.startswith("sentence-") for t in times]
        named["translate_sent_per_s"] = (1000.0 * len(decode_ms) / sum(decode_ms), "1/s")
        named["decode_ms_p50"] = (statistics.median(decode_ms), "ms")
        named["decode_ms_p90"] = (statistics.quantiles(decode_ms, n=10)[-1], "ms")
        named["decode_samples"] = (len(decode_ms), "count")
    else:
        named["text_tools_s"] = (job_seconds(steps), "s")
        for metric, command in (("bpe_learn_s", "bpe-learn"), ("bpe_apply_s", "bpe-apply"),
                                ("lm_train_s", "lm-train"), ("bleu_s", "bleu")):
            named[metric] = (statistics.median(steps[command]), "s")
    return named


def run_all(args):
    """Each workload in its own process, so peak RSS stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print("[%s] %s" % (name, line))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"]["%s.%s" % (name, metric)] = value
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
