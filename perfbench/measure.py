"""One workload, measured in a fresh process.

run.py generates the inputs, pickles them and starts this script, so
that input generation is not charged to this process's peak memory.
Usage: measure.py INPUTS.pkl SECONDS TRACE OUT_STEM

The loop is closed: one caller, one frame at a time, the next frame only
after the previous one is checked. A frame is the engine (build_graph
plus run on the serial driver) and the dense oracle on the same image.
It fails if either raised, if the outputs differ, if the cycle report
differs from estimate_cycles, or if a residual join ever waited on its
skip input.

Each iteration sets the workload up, runs analysis passes, then runs one
frame of a builtin or one frame of every net in the corpus. Interleaving
them makes every metric sample the whole run.

The host's speed drifts: on a shared 2-core machine it switched between
a fast and a slow state every few seconds, and runs minutes apart
differed by up to 50% in raw host seconds. So a fixed reference
workload, the probe, is timed before and after every measured block,
and each sample is scaled by the mean of its two probes over
PROBE_REF_S before the median is taken. The raw values, the probe times
and the load average go to the result file.
"""

import contextlib
import gc
import json
import pickle
import resource
import statistics
import sys
import time
import traceback

import numpy as np

from qnnstream import engine, netdesc, oracle, resources

MIN_ITERATIONS = 3
SETUPS_PER_ITERATION = 3
ANALYSIS_S_PER_ITERATION = 0.5
# hardware-measured cycles for resnet18 at 224x224, the only reference
REFERENCE_CYCLES = 1_850_000
FIFO_CAPACITY = {"corpus-fifo1": 1}  # absent: the default capacities

PROBE_REF_S = 0.030
_PROBE_A = (np.arange(200 * 400) % 7 - 3).reshape(200, 400)
_PROBE_B = _PROBE_A.T.copy()

UNITS = {
    "engine_frame_s": "s",
    "oracle_frame_s": "s",
    "sim_cycles_per_s": "1/s",
    "setup_s": "s",
    "analysis_s": "s",
    "peak_rss_mb": "MB",
    "sim_cycles": "cycles",
    "model_error_pct": "%",
    "exact_frac": "ratio",
}


def set_up(items):
    """Description to loaded params, for every net of the workload."""
    nets = []
    for spec, blob, _ in items:
        if spec in netdesc.BUILTIN_BUILDERS:
            net = netdesc.BUILTIN_BUILDERS[spec]()
        else:
            net = netdesc.parse_netdesc(spec)
        nets.append((net, netdesc.load_params(blob, net)))
    return nets


def analysis_pass(nets, cfg):
    """The estimate and partition commands' calls, over every net."""
    for net, _ in nets:
        engine.estimate_cycles(net, cfg)
        resources.estimate_resources(net)
        resources.partition_network(net)


def probe():
    """Seconds for a fixed mix of interpreter and NumPy integer work."""
    t0 = time.perf_counter()
    x = 0
    for i in range(200_000):
        x += i * i
    _PROBE_A @ _PROBE_B
    return time.perf_counter() - t0


def frame_problems(result, ref, expected, graph):
    problems = []
    if not np.array_equal(result.output, ref):
        problems.append("engine output differs from dense_infer")
    if result.report != expected:
        problems.append("cycle report differs from estimate_cycles")
    stalls = sum(getattr(s, "stalled_on_skip", 0) for s in graph.stages)
    if stalls:
        problems.append("joins stalled on skip %d times" % stalls)
    return problems


class Bench:
    def __init__(self, workload, items, tracer):
        self.items = items
        self.capacity = FIFO_CAPACITY.get(workload)
        self.tracer = tracer
        self.cfg = engine.ModelConfig()
        self.nets = None
        self.expected = None
        self.setup_s = []  # (seconds, slowness)
        self.analysis = []  # (passes, seconds, slowness) per iteration
        self.probes = []
        self.last_probe = None
        # per iteration: frames ok, engine s, oracle s, cycles,
        # untraced engine s, slowness
        self.iterations = []
        self.attempted = 0
        self.failed = 0

    def phase(self, name):
        return self.tracer.phase(name) if self.tracer else contextlib.nullcontext()

    def warm_up(self):
        """One untimed set-up and analysis pass: the first of each in a
        process ran markedly slower than the rest."""
        self.nets = set_up(self.items)
        self.expected = [engine.estimate_cycles(net, self.cfg) for net, _ in self.nets]
        analysis_pass(self.nets, self.cfg)
        self.last_probe = probe()

    def slowness(self):
        """Probe the host; its slowness over the block measured since the
        last probe, the mean of the two probes over PROBE_REF_S."""
        before, self.last_probe = self.last_probe, probe()
        self.probes.append(self.last_probe)
        return (before + self.last_probe) / 2 / PROBE_REF_S

    def iteration(self, index):
        if self.tracer:
            self.tracer.frame = -1
        for _ in range(SETUPS_PER_ITERATION):
            self.nets = None
            gc.collect()
            t0 = time.perf_counter()
            with self.phase("setup"):
                self.nets = set_up(self.items)
            self.setup_s.append((time.perf_counter() - t0, self.slowness()))

        gc.collect()
        passes = 0
        t0 = time.perf_counter()
        with self.phase("analysis"):
            while not passes or time.perf_counter() < t0 + ANALYSIS_S_PER_ITERATION:
                analysis_pass(self.nets, self.cfg)
                passes += 1
        self.analysis.append((passes, time.perf_counter() - t0, self.slowness()))

        sums = [0, 0.0, 0.0, 0, 0.0]
        for i in range(len(self.nets)):
            got = self.frame(i, index)
            if got is not None:
                sums[0] += 1
                for j, value in enumerate(got):
                    sums[j + 1] += value
        slowness = self.slowness()
        if sums[0]:
            self.iterations.append(tuple(sums) + (slowness,))

    def engine_frame(self, net, params, image, traced):
        if traced:
            with self.tracer.phase("frames"):
                t0 = time.perf_counter()
                graph = engine.build_graph(net, params, fifo_capacity=self.capacity)
                self.tracer.instrument(graph)
                result = engine.run(graph, image, self.cfg)
                elapsed = time.perf_counter() - t0
            self.tracer.after_run(graph)
            return graph, result, elapsed
        build, run = engine.build_graph, engine.run
        if self.tracer:
            build = self.tracer.originals["engine.build_graph"]
            run = self.tracer.originals["engine.run"]
        t0 = time.perf_counter()
        graph = build(net, params, fifo_capacity=self.capacity)
        result = run(graph, image, self.cfg)
        return graph, result, time.perf_counter() - t0

    def frame(self, i, index):
        """One checked frame; its timings, or None if it failed."""
        (net, params), images = self.nets[i], self.items[i][2]
        image = images[index % len(images)]
        self.attempted += 1
        untraced = 0.0
        try:
            if self.tracer:
                self.tracer.frame = self.attempted
                gc.collect()
                untraced = self.engine_frame(net, params, image, False)[2]
            gc.collect()
            graph, result, engine_s = self.engine_frame(net, params, image,
                                                        self.tracer is not None)
            gc.collect()
            t0 = time.perf_counter()
            with self.phase("oracle"):
                ref = oracle.dense_infer(net, params, image)
            oracle_s = time.perf_counter() - t0
            problems = frame_problems(result, ref, self.expected[i], graph)
        except Exception:  # a frame that raised is a failed frame
            traceback.print_exc()
            self.failed += 1
            return None
        if problems:
            print("frame %d (%s): %s" % (self.attempted, net.name, "; ".join(problems)),
                  file=sys.stderr)
            self.failed += 1
            return None
        return engine_s, oracle_s, result.report.total_cycles, untraced


def median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(bench, workload):
    """The gated metrics, printed one a line with how each was taken, and
    the raw host values."""
    calibration = engine.estimate_cycles(netdesc.build_resnet18()).total_cycles
    error_pct = (calibration - REFERENCE_CYCLES) / REFERENCE_CYCLES * 100.0
    its = bench.iterations
    passes = sum(a[0] for a in bench.analysis)
    raw = {
        "engine_frame_s": median(it[1] / it[0] for it in its),
        "oracle_frame_s": median(it[2] / it[0] for it in its),
        "sim_cycles_per_s": median(it[3] / it[1] for it in its),
        "setup_s": median(t for t, _ in bench.setup_s),
        "analysis_s": sum(a[1] for a in bench.analysis) / passes,
    }
    values = {
        "engine_frame_s": median(it[1] / it[0] / it[5] for it in its),
        "oracle_frame_s": median(it[2] / it[0] / it[5] for it in its),
        "sim_cycles_per_s": median(it[3] / it[1] * it[5] for it in its),
        "setup_s": median(t / k for t, k in bench.setup_s),
        "analysis_s": sum(a[1] / a[2] for a in bench.analysis) / passes,
    }
    print("host speed: probes %.5f s median over %d, %.3f x the reference %.3f s"
          % (median(bench.probes), len(bench.probes),
             median(bench.probes) / PROBE_REF_S, PROBE_REF_S))
    values.update({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_cycles": median(it[3] / it[0] for it in its),
        "model_error_pct": abs(error_pct),
        "exact_frac": 1.0 - bench.failed / max(bench.attempted, 1),
    })
    per_frame = "median of %d %s" % (
        len(its), "frames" if len(bench.nets) == 1
        else "sweeps of %d nets, per net" % len(bench.nets))
    notes = {
        "engine_frame_s": per_frame,
        "oracle_frame_s": per_frame,
        "sim_cycles_per_s": per_frame,
        "setup_s": "median of %d set-ups" % len(bench.setup_s),
        "analysis_s": "mean of %d passes in %d blocks" % (passes, len(bench.analysis)),
        "peak_rss_mb": "input generation not included",
        "sim_cycles": "per frame",
        "exact_frac": "1 - mismatch_frac",
    }
    if workload == "resnet18":
        notes["model_error_pct"] = "%+.2f%%: %d simulated vs %d reference cycles" % (
            error_pct, calibration, REFERENCE_CYCLES)
    else:
        notes["model_error_pct"] = (
            "resnet18 calibration of the cycle model; %s has no reference,"
            " so the model is unvalidated on it" % workload)
    for name, value in raw.items():
        notes[name] = "raw %.6g; %s" % (value, notes[name])
    metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()}
    for name, m in metrics.items():
        print("%-18s %.6g %s  (%s)" % (name, m["value"], m["unit"], notes[name]))
    return metrics, raw


def per_layer(bench, tracer):
    """The traced run's layer metrics, and the split of engine.run_s."""
    from tracing import KINDS
    its = bench.iterations
    traced_s = median(it[1] / it[0] for it in its)
    untraced_s = median(it[4] / it[0] for it in its)
    metrics, absent = tracer.metrics(
        sum(it[0] for it in its), len(bench.setup_s),
        sum(a[0] for a in bench.analysis),
        {"trace.engine_frame_s": traced_s,
         "trace.untraced_engine_frame_s": untraced_s,
         "trace.overhead_s": traced_s - untraced_s})
    v = {name: m["value"] for name, m in metrics.items()}
    kernel_self = sum(v["kernels.%s.self_s" % k] for k in KINDS)
    remainder = v["engine.run_s"] - (kernel_self + v["engine.fifo_s"]
                                     + v["kernels.linebuffer_s"] + v["engine.driver_self_s"])
    print("split of engine.run_s %.6f s: kernel self %.6f + fifo %.6f"
          " + linebuffer %.6f + driver self %.6f, remainder %.3g s"
          % (v["engine.run_s"], kernel_self, v["engine.fifo_s"],
             v["kernels.linebuffer_s"], v["engine.driver_self_s"], remainder))
    if absent:
        print("absent (hooked attribute missing, reported as 0): " + ", ".join(absent))
    for name, m in metrics.items():
        print("%-34s %.6g %s" % (name, m["value"], m["unit"]))
    return metrics


def main(argv):
    path, seconds, traced, stem = argv[1], float(argv[2]), argv[3] == "1", argv[4]
    with open(path, "rb") as fh:
        doc = pickle.load(fh)
    workload = doc["workload"]
    tracer = None
    if traced:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    bench = Bench(workload, doc["items"], tracer)
    bench.warm_up()
    start = time.perf_counter()
    index = 0
    last = 0.0
    # stop where the next iteration would end nearer the target than not
    while index < MIN_ITERATIONS or time.perf_counter() + last / 2 < start + seconds:
        t0 = time.perf_counter()
        bench.iteration(index)
        last = time.perf_counter() - t0
        index += 1

    print("frames attempted %d failed %d mismatch_frac %.6f"
          % (bench.attempted, bench.failed, bench.failed / max(bench.attempted, 1)))
    if tracer:
        metrics, raw = per_layer(bench, tracer), None
    else:
        metrics, raw = end_to_end(bench, workload)
    header = {
        "workload": workload, "seed": doc["seed"], "seconds": seconds,
        "trace": int(traced), "machine": doc["machine"],
        "fingerprints": doc["fingerprints"],
        "attempted": bench.attempted, "failed": bench.failed,
        "metrics": metrics, "raw": raw, "probe_ref_s": PROBE_REF_S,
        "samples": {"iterations": bench.iterations, "setup_s": bench.setup_s,
                    "analysis": bench.analysis, "probes": bench.probes},
    }
    if tracer:
        tracer.write(stem, header)
    else:
        with open(stem + ".json", "w") as fh:
            json.dump(header, fh, indent=1, sort_keys=True)
    ok = sum(it[0] for it in bench.iterations)
    print(json.dumps({"correct": bench.failed == 0 and ok > 0,
                      "attempted": bench.attempted, "failed": bench.failed,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
