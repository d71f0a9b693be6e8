"""Per-layer tracing from outside the program.

Nothing under src/ knows about this. The tracer replaces public module
functions with timed wrappers, and after each build_graph it replaces
step on every stage, push/pop on every FIFO and push/gather on every
line buffer with instance attributes that time and count the call. A
hook whose attribute no longer exists is skipped, and the metrics that
need it are reported as absent rather than failing the run.

Spans (frame, layer, start ns, end ns, parent span) are kept in memory
at step granularity, in flat integer columns, and written out at the
end; frame -1 marks set-up and analysis. FIFO and line-buffer calls are
only counted and timed, not spanned: there are millions of them.

Self times split engine.run exactly: a stage's self time is its step
time minus the FIFO and line-buffer time inside that step, and the
driver's self time is run time outside every stage step, which includes
the FIFO calls made by the source and the sink.
"""

import json
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

from qnnstream import engine, netdesc, oracle, quant, resources

KINDS = ("conv", "firstconv", "maxpool", "avgpool", "join", "tee", "subsample", "fc")

# owner object, attribute, layer key
MODULE_HOOKS = (
    (engine, "build_graph", "engine.build_graph"),
    (engine, "run", "engine.run"),
    (engine, "estimate_cycles", "engine.estimate_cycles"),
    (netdesc, "parse_netdesc", "netdesc.parse"),
    (netdesc, "load_params", "netdesc.load_params"),
    (netdesc, "fold_batchnorm", "quant.fold"),
    (oracle, "dense_infer", "oracle.infer"),
    (oracle, "dense_conv", "oracle.conv"),
    (oracle, "quantize_dense", "oracle.quantize"),
    (getattr(quant, "BnQuantizer", None), "quantize_array", "quant.quantize"),
    (resources, "estimate_resources", "resources.estimate"),
    (resources, "partition_network", "resources.partition"),
)

# metric name -> (unit, hooks it needs)
METRICS = {
    "engine.build_graph_s": ("s", ("engine.build_graph",)),
    "engine.run_s": ("s", ("engine.run",)),
    "engine.driver_self_s": ("s", ("engine.run", "step")),
    "engine.step_calls": ("count", ("step",)),
    "engine.useful_step_ratio": ("ratio", ("step",)),
    "engine.fifo_ops": ("count", ("fifo",)),
    "engine.fifo_s": ("s", ("fifo",)),
    "engine.elems_per_fifo_op": ("elems/op", ("fifo",)),
    "engine.fifo_peak_frac": ("ratio", ("fifo_peak",)),
    "engine.estimate_cycles_s": ("s", ("engine.estimate_cycles",)),
    **{"kernels.%s.%s" % (k, m): ("s", ("step",))
       for k in KINDS for m in ("step_s", "self_s")},
    "kernels.linebuffer_s": ("s", ("lbuf",)),
    "kernels.window_fires": ("count", ("lbuf",)),
    "kernels.conv.ns_per_mac": ("ns", ("step",)),
    "quant.quantize_s": ("s", ("quant.quantize",)),
    "quant.quantize_calls": ("count", ("quant.quantize",)),
    "quant.fold_s": ("s", ("quant.fold",)),
    "netdesc.parse_s": ("s", ("netdesc.parse",)),
    "netdesc.load_params_s": ("s", ("netdesc.load_params",)),
    "oracle.conv_s": ("s", ("oracle.conv",)),
    "oracle.quantize_s": ("s", ("oracle.quantize",)),
    "oracle.fc_s": ("s", ("oracle.infer", "oracle.conv", "oracle.quantize")),
    "resources.estimate_s": ("s", ("resources.estimate",)),
    "resources.partition_s": ("s", ("resources.partition",)),
    "trace.engine_frame_s": ("s", ()),
    "trace.untraced_engine_frame_s": ("s", ()),
    "trace.overhead_s": ("s", ()),
}


class Tracer:
    def __init__(self):
        self.columns = {c: array("q") for c in ("frame", "layer", "start", "end", "parent")}
        self.layer_ids = {}
        self.ns = Counter()  # busy nanoseconds by key
        self.calls = Counter()
        self.phase_ns = {}
        self.phase_calls = {}
        self.present = set()
        self.originals = {}
        self.frame = -1
        self.fifo_peak = 0.0
        self._stack = []  # indices of open spans
        self._kind = None  # kind of the stage whose step is running

    # -- spans -----------------------------------------------------------

    def _open(self, layer):
        cols = self.columns
        idx = len(cols["start"])
        lid = self.layer_ids.setdefault(layer, len(self.layer_ids))
        cols["frame"].append(self.frame)
        cols["layer"].append(lid)
        cols["parent"].append(self._stack[-1] if self._stack else -1)
        cols["start"].append(0)
        cols["end"].append(0)
        return idx

    def _timed(self, key, fn):
        clock, cols, stack, ns, calls = (time.perf_counter_ns, self.columns,
                                         self._stack, self.ns, self.calls)

        def wrapper(*args, **kwargs):
            idx = self._open(key)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                cols["start"][idx] = t0
                cols["end"][idx] = t1
                ns[key] += t1 - t0
                calls[key] += 1
        return wrapper

    def install(self):
        """Wrap the public module functions; call once per process."""
        for owner, attr, key in MODULE_HOOKS:
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            self.originals[key] = fn
            setattr(owner, attr, self._timed(key, fn))
            self.present.add(key)

    @contextmanager
    def phase(self, name):
        """Charge the time and calls made inside the block to a phase."""
        ns0, calls0 = Counter(self.ns), Counter(self.calls)
        try:
            yield
        finally:
            self.phase_ns.setdefault(name, Counter()).update(self.ns - ns0)
            self.phase_calls.setdefault(name, Counter()).update(self.calls - calls0)

    # -- per-graph instance hooks ---------------------------------------

    def instrument(self, graph):
        """Wrap the stages, FIFOs and line buffers of a built graph."""
        plans = getattr(graph, "plans", ())
        for plan, stage in zip(plans, getattr(graph, "stages", ())):
            if plan.kind == "conv":
                o, i = plan.out_shape, plan.in_shape
                self.calls["conv_macs"] += o.h * o.w * o.c * plan.k * plan.k * i.c
            if hasattr(stage, "step"):
                stage.step = self._step(stage.step, plan.kind, stage.name)
                self.present.add("step")
            lbuf = getattr(stage, "lbuf", None)
            if hasattr(lbuf, "push") and hasattr(lbuf, "gather"):
                lbuf.push = self._lbuf(lbuf.push, False)
                lbuf.gather = self._lbuf(lbuf.gather, True)
                self.present.add("lbuf")
        for fifo in getattr(graph, "fifos", ()):
            if hasattr(fifo, "push") and hasattr(fifo, "pop"):
                fifo.push = self._fifo(fifo.push, True)
                fifo.pop = self._fifo(fifo.pop, False)
                self.present.add("fifo")

    def after_run(self, graph):
        for fifo in getattr(graph, "fifos", ()):
            if hasattr(fifo, "max_occ") and hasattr(fifo, "capacity"):
                self.fifo_peak = max(self.fifo_peak, fifo.max_occ / fifo.capacity)
                self.present.add("fifo_peak")

    def _step(self, fn, kind, name):
        clock, cols, ns, calls = time.perf_counter_ns, self.columns, self.ns, self.calls
        key = "step." + kind

        def step():
            idx = self._open(name)
            prev, self._kind = self._kind, kind
            t0 = clock()
            try:
                progressed = fn()
            finally:
                t1 = clock()
                self._kind = prev
                cols["start"][idx] = t0
                cols["end"][idx] = t1
                ns[key] += t1 - t0
                calls[key] += 1
            if progressed:
                calls["useful_steps"] += 1
            return progressed
        return step

    def _fifo(self, fn, is_push):
        clock, ns, calls = time.perf_counter_ns, self.ns, self.calls

        def call(arg):
            t0 = clock()
            got = fn(arg)
            t1 = clock()
            ns["fifo." + (self._kind or "driver")] += t1 - t0
            calls["fifo_ops"] += 1
            calls["fifo_elems"] += got if is_push else len(got)
            return got
        return call

    def _lbuf(self, fn, is_gather):
        clock, ns, calls = time.perf_counter_ns, self.ns, self.calls

        def call(arg):
            t0 = clock()
            got = fn(arg)
            ns["lbuf." + (self._kind or "driver")] += clock() - t0
            if is_gather:
                calls["window_fires"] += 1
            return got
        return call

    # -- results ---------------------------------------------------------

    def metrics(self, frames, setups, passes, overhead):
        """Per-layer metrics: per frame, per set-up or per analysis pass,
        as the layer's end-to-end metric is. Means, not medians, so that
        the self times add up exactly."""
        fr = self.phase_ns.get("frames", Counter())
        fc = self.phase_calls.get("frames", Counter())
        orc = self.phase_ns.get("oracle", Counter())
        orc_calls = self.phase_calls.get("oracle", Counter())
        st = self.phase_ns.get("setup", Counter())
        an = self.phase_ns.get("analysis", Counter())
        frames = max(frames, 1)
        setups = max(setups, 1)
        passes = max(passes, 1)

        def per_frame(ns):
            return ns / 1e9 / frames

        steps = sum(fr["step." + k] for k in KINDS)
        step_calls = sum(fc["step." + k] for k in KINDS)
        stage_fifo = sum(fr["fifo." + k] for k in KINDS)
        stage_lbuf = sum(fr["lbuf." + k] for k in KINDS)
        out = {
            "engine.build_graph_s": per_frame(fr["engine.build_graph"]),
            "engine.run_s": per_frame(fr["engine.run"]),
            "engine.driver_self_s": per_frame(fr["engine.run"] - steps),
            "engine.step_calls": step_calls / frames,
            "engine.useful_step_ratio": fc["useful_steps"] / max(step_calls, 1),
            "engine.fifo_ops": fc["fifo_ops"] / frames,
            "engine.fifo_s": per_frame(stage_fifo),
            "engine.elems_per_fifo_op": fc["fifo_elems"] / max(fc["fifo_ops"], 1),
            "engine.fifo_peak_frac": self.fifo_peak,
            "engine.estimate_cycles_s": an["engine.estimate_cycles"] / 1e9 / passes,
            "kernels.linebuffer_s": per_frame(stage_lbuf),
            "kernels.window_fires": fc["window_fires"] / frames,
        }
        for k in KINDS:
            own = fr["step." + k] - fr["fifo." + k] - fr["lbuf." + k]
            out["kernels.%s.step_s" % k] = per_frame(fr["step." + k])
            out["kernels.%s.self_s" % k] = per_frame(own)
        out["kernels.conv.ns_per_mac"] = \
            (fr["step.conv"] - fr["fifo.conv"] - fr["lbuf.conv"]) / max(fc["conv_macs"], 1)
        conv, quantize = orc["oracle.conv"], orc["oracle.quantize"]
        out.update({
            "quant.quantize_s": per_frame(orc["quant.quantize"]),
            "quant.quantize_calls": orc_calls["quant.quantize"] / frames,
            "quant.fold_s": st["quant.fold"] / 1e9 / setups,
            "netdesc.parse_s": st["netdesc.parse"] / 1e9 / setups,
            "netdesc.load_params_s": st["netdesc.load_params"] / 1e9 / setups,
            "oracle.conv_s": per_frame(conv),
            "oracle.quantize_s": per_frame(quantize),
            "oracle.fc_s": per_frame(orc["oracle.infer"] - conv - quantize),
            "resources.estimate_s": an["resources.estimate"] / 1e9 / passes,
            "resources.partition_s": an["resources.partition"] / 1e9 / passes,
        })
        out.update(overhead)
        absent = sorted(name for name, (_, hooks) in METRICS.items()
                        if not self.present.issuperset(hooks))
        for name in absent:
            out[name] = 0.0
        return {name: {"value": out[name], "unit": METRICS[name][0]}
                for name in METRICS}, absent

    def write(self, stem, header):
        """Spans to stem.spans.npz (layer column indexes the layers
        array, parent -1 is a root), counters to stem.json."""
        names = sorted(self.layer_ids, key=self.layer_ids.get)
        np.savez_compressed(stem + ".spans.npz", layers=np.array(names),
                 **{c: np.frombuffer(col, dtype=np.int64)
                    for c, col in self.columns.items()})
        doc = dict(header)
        doc["phase_ns"] = {p: dict(c) for p, c in self.phase_ns.items()}
        doc["phase_calls"] = {p: dict(c) for p, c in self.phase_calls.items()}
        with open(stem + ".json", "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
