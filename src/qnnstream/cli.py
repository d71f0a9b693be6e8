"""Command line front end.

Four commands share the network loading flags:

    run        simulate one frame, report the class and cycle counts
    estimate   analytic cycle report, no input data needed
    partition  place stages onto devices and check link bandwidth
    compare    run the streaming engine and the dense reference side
               by side and verify they agree exactly

Exit codes: 0 success, 1 invalid input (bad description, parameters,
image or flags, or a network too big to allocate), 2 semantic failure
(engine/reference mismatch or an infeasible partition). Images are raw
bytes, one per element in stream order, with the dimensions given on
the command line. JSON output is byte stable: the same invocation
always prints the same bytes.
"""

import argparse
import json
import sys

import numpy as np

from .engine import (
    CIN_MODES,
    STALL_MODELS,
    ModelConfig,
    build_graph,
    estimate_cycles,
    run,
)
from .errors import PartitionError, QnnError
from .netdesc import BUILTIN_BUILDERS, load_params, parse_netdesc, random_params
from .oracle import dense_infer
from .resources import MAX_DEVICES, DeviceBudget, STRATIX_V_5SGSD8, partition_network

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_MISMATCH = 2

# measured throughput reported for this architecture class on the same
# topology at 224x224; estimates are sanity-checked against it
CALIBRATION_TARGET_CYCLES = 1_850_000


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; here 2 means mismatch, so remap."""

    def error(self, message):
        self.exit(EXIT_INVALID, "%s: error: %s\n" % (self.prog, message))


def _add_net_flags(p):
    p.add_argument("--net", metavar="PATH", help="network description file")
    p.add_argument("--builtin", choices=sorted(BUILTIN_BUILDERS),
                   help="use a builtin model instead of --net")


def seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("a seed is a non-negative integer, got %s" % text)
    return value


def _add_params_flags(p):
    p.add_argument("--params", metavar="PATH", help="parameter blob")
    p.add_argument("--random-params", metavar="SEED", type=seed,
                   help="generate well-scaled random parameters")


def _add_image_flags(p):
    p.add_argument("--image", metavar="PATH",
                   help="raw image bytes, one per element in stream order")
    p.add_argument("--image-dims", metavar=("H", "W", "C"), nargs=3, type=int,
                   help="dimensions of the raw image file")
    p.add_argument("--random-image", metavar="SEED", type=seed,
                   help="generate a random input frame")


def _add_model_flags(p):
    p.add_argument("--cin-mode", choices=CIN_MODES, default=ModelConfig.cin_mode)
    p.add_argument("--stall-model", choices=STALL_MODELS, default=ModelConfig.stall_model)
    p.add_argument("--c-mac", type=int, default=ModelConfig.c_mac)


def _load_net(args):
    if bool(args.net) == bool(args.builtin):
        raise QnnError("give exactly one of --net or --builtin")
    if args.builtin:
        return BUILTIN_BUILDERS[args.builtin]()
    with open(args.net, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise QnnError("%s is not UTF-8 text: %s" % (args.net, e))
    name = args.net.rsplit("/", 1)[-1].rsplit(".", 1)[0]
    return parse_netdesc(text, name=name)


def _load_net_params(args, net):
    if bool(args.params) == (args.random_params is not None):
        raise QnnError("give exactly one of --params or --random-params")
    if args.params:
        with open(args.params, "rb") as fh:
            blob = fh.read()
    else:
        blob = random_params(net, np.random.default_rng(args.random_params))
    return load_params(blob, net)


def _load_image(args, net):
    ish = net.input_shape
    if args.image and args.random_image is not None:
        raise QnnError("give --image or --random-image, not both")
    if args.image:
        if not args.image_dims:
            raise QnnError("--image needs --image-dims H W C")
        h, w, c = args.image_dims
        if (h, w, c) != (ish.h, ish.w, ish.c):
            raise QnnError("--image-dims %d %d %d do not match the network "
                           "input %d %d %d" % (h, w, c, ish.h, ish.w, ish.c))
        with open(args.image, "rb") as fh:
            data = np.frombuffer(fh.read(), dtype=np.uint8)
        if data.size != h * w * c:
            raise QnnError("image file holds %d bytes, dims say %d"
                           % (data.size, h * w * c))
        return data.reshape(h, w, c)
    if args.random_image is None:
        raise QnnError("give --image or --random-image")
    rng = np.random.default_rng(args.random_image)
    return rng.integers(0, 1 << ish.bits, size=(ish.h, ish.w, ish.c),
                        dtype=np.uint8)


def _model_config(args, clock_mhz: float) -> ModelConfig:
    return ModelConfig(cin_mode=args.cin_mode, stall_model=args.stall_model,
                       c_mac=args.c_mac, clock_mhz=clock_mhz)


def _print_json(obj):
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _stage_rows(report):
    return [{"name": s.name, "busy": s.busy, "stall": s.stall, "fill": s.fill}
            for s in report.stages]


def _print_report_human(report):
    print("%-14s %12s %12s %10s" % ("stage", "busy", "stall", "fill"))
    for s in report.stages:
        print("%-14s %12d %12d %10d" % (s.name, s.busy, s.stall, s.fill))
    print("total %d cycles, %.3f ms at %.1f MHz (%s, %s input)"
          % (report.total_cycles, report.wall_ms, report.clock_mhz,
             report.stall_model, report.cin_mode))
    print("bottleneck %s" % report.bottleneck)


def cmd_run(args) -> int:
    net = _load_net(args)
    params = _load_net_params(args, net)
    image = _load_image(args, net)
    cfg = _model_config(args, args.clock_mhz)
    graph = build_graph(net, params)
    result = run(graph, image, cfg)
    if args.format == "json":
        _print_json({
            "class": result.top_class,
            "stages": _stage_rows(result.report),
            "total_cycles": result.report.total_cycles,
            "wall_ms": result.report.wall_ms,
        })
    else:
        print("class %d" % result.top_class)
        _print_report_human(result.report)
    return EXIT_OK


def cmd_estimate(args) -> int:
    net = _load_net(args)
    try:
        clocks = [float(tok) for tok in args.clock_mhz.split(",")]
    except ValueError:
        raise QnnError("--clock-mhz wants a number or a comma list of "
                       "numbers, got %r" % args.clock_mhz)
    reports = []
    for clock in clocks:
        report = estimate_cycles(net, _model_config(args, clock))
        delta = (report.total_cycles - CALIBRATION_TARGET_CYCLES) \
            / CALIBRATION_TARGET_CYCLES * 100.0
        reports.append((report, delta))
    if args.format == "json":
        _print_json({"estimates": [{
            "clock_mhz": r.clock_mhz,
            "stages": _stage_rows(r),
            "total_cycles": r.total_cycles,
            "wall_ms": r.wall_ms,
            "reference_cycles": CALIBRATION_TARGET_CYCLES,
            "delta_pct": d,
        } for r, d in reports]})
    else:
        for report, delta in reports:
            _print_report_human(report)
            print("reference %d cycles, delta %+.2f%%"
                  % (CALIBRATION_TARGET_CYCLES, delta))
    return EXIT_OK


def cmd_partition(args) -> int:
    net = _load_net(args)
    budget = DeviceBudget(name="custom", m20k=args.budget_m20k,
                          ff=args.budget_ff)
    cfg = ModelConfig(clock_mhz=args.clock_mhz, link_gbps=args.link_gbps)
    placement = partition_network(net, budget, max_devices=args.max_devices,
                                  cfg=cfg)
    # the frame total of the chained model under the placement's ranges
    chained = estimate_cycles(net, cfg, placement.partition).total_cycles
    if args.format == "json":
        _print_json({
            "devices": [{
                "device": i,
                "stages": list(d.stages),
                "m20k": d.m20k,
                "ff": d.ff,
                "bram_bits": d.bram_bits,
            } for i, d in enumerate(placement.devices)],
            "links": [{
                "link": i,
                "required_mbps": l.required_mbps,
                "capacity_mbps": l.capacity_mbps,
                "ok": l.ok,
            } for i, l in enumerate(placement.links)],
            "feasible": placement.feasible,
            "chained_total_cycles": chained,
        })
    else:
        print("devices %d (budget %d M20K, %d FF each)"
              % (len(placement.devices), budget.m20k, budget.ff))
        for i, d in enumerate(placement.devices):
            print(" device %d: %s .. %s  m20k %d  ff %d  bram %.2f Mbit"
                  % (i, d.stages[0], d.stages[-1], d.m20k, d.ff,
                     d.bram_bits / 1e6))
        for i, l in enumerate(placement.links):
            print(" link %d: %.1f of %.1f Mbps %s"
                  % (i, l.required_mbps, l.capacity_mbps,
                     "ok" if l.ok else "OVER"))
        print("chained total %d cycles" % chained)
        print("feasible" if placement.feasible else "infeasible")
    return EXIT_OK if placement.feasible else EXIT_MISMATCH


def cmd_compare(args) -> int:
    net = _load_net(args)
    params = _load_net_params(args, net)
    image = _load_image(args, net)
    reference = dense_infer(net, params, image)
    graph = build_graph(net, params)
    result = run(graph, image)
    if np.array_equal(result.output, reference):
        print("MATCH class %d (%d outputs)"
              % (result.top_class, result.output.size))
        return EXIT_OK
    bad = int(np.flatnonzero(result.output != reference)[0])
    print("MISMATCH at output %d: engine %d, reference %d"
          % (bad, result.output[bad], reference[bad]))
    return EXIT_MISMATCH


def build_parser() -> _Parser:
    parser = _Parser(prog="qnnstream")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p_run = sub.add_parser("run", help="simulate one frame")
    _add_net_flags(p_run)
    _add_params_flags(p_run)
    _add_image_flags(p_run)
    p_run.add_argument("--clock-mhz", type=float, default=ModelConfig.clock_mhz)
    _add_model_flags(p_run)
    p_run.add_argument("--format", choices=("human", "json"), default="human")
    p_run.set_defaults(func=cmd_run)

    p_est = sub.add_parser("estimate", help="analytic cycle report")
    _add_net_flags(p_est)
    p_est.add_argument("--clock-mhz", default=str(ModelConfig.clock_mhz),
                       help="clock in MHz, or a comma list to sweep")
    _add_model_flags(p_est)
    p_est.add_argument("--format", choices=("human", "json"), default="human")
    p_est.set_defaults(func=cmd_estimate)

    p_part = sub.add_parser("partition", help="place stages onto devices")
    _add_net_flags(p_part)
    p_part.add_argument("--max-devices", type=int, default=MAX_DEVICES)
    p_part.add_argument("--budget-m20k", type=int, default=STRATIX_V_5SGSD8.m20k)
    p_part.add_argument("--budget-ff", type=int, default=STRATIX_V_5SGSD8.ff)
    p_part.add_argument("--link-gbps", type=float, default=ModelConfig.link_gbps)
    p_part.add_argument("--clock-mhz", type=float, default=ModelConfig.clock_mhz)
    p_part.add_argument("--format", choices=("human", "json"), default="human")
    p_part.set_defaults(func=cmd_partition)

    p_cmp = sub.add_parser("compare",
                           help="check the engine against the dense reference")
    _add_net_flags(p_cmp)
    _add_params_flags(p_cmp)
    _add_image_flags(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PartitionError as e:
        sys.stderr.write("error: %s\n" % e)
        return EXIT_MISMATCH
    except (QnnError, OSError) as e:
        sys.stderr.write("error: %s\n" % e)
        return EXIT_INVALID
    except MemoryError as e:  # a net too big to allocate
        sys.stderr.write("error: out of memory: %s\n" % (str(e) or "allocation failed"))
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
