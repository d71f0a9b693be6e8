"""qnnstream benchmark: host time per frame for the engine and the oracle.

    python3 perfbench/run.py --workload resnet18 --seed 1 --seconds 50 --trace 0

Builds the workload's inputs from --seed, prints their sha256
fingerprints and the machine, then measures the workload in a fresh
single-threaded child process (measure.py). With --trace 0 the last line
is the JSON result with the end-to-end metrics; with --trace 1 it holds
the per-layer metrics of a traced run instead. Results and traces are
written under perfbench/out/. Exits non-zero without a result if the
program's source is missing or the run fails.
"""

import argparse
import os
import pickle
import platform
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("resnet18", "corpus-fifo1")
DEADLINE_S = 170  # every run ends within 180 s


def machine_info():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_at_start": os.getloadavg(),
    }


def main():
    started = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "qnnstream", "__init__.py")):
        print("no qnnstream source under %s" % SRC, file=sys.stderr)
        return 2
    machine = machine_info()
    sys.path[:0] = [SRC, HERE]
    import inputs

    items = inputs.make_inputs(args.workload, args.seed)
    fingerprints = inputs.fingerprints(items)
    print("machine " + " ".join("%s=%s" % kv for kv in machine.items()))
    for part, digest in fingerprints.items():
        print("inputs %s seed=%d %s sha256=%s" % (args.workload, args.seed, part, digest))
    sys.stdout.flush()

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    work = os.path.join(OUT, "inputs-%d.pkl" % os.getpid())
    with open(work, "wb") as fh:
        pickle.dump({"workload": args.workload, "seed": args.seed, "items": items,
                     "machine": machine, "fingerprints": fingerprints}, fh,
                    protocol=pickle.HIGHEST_PROTOCOL)
    del items
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    # a termination request becomes an exception, so that subprocess.run
    # kills and reaps the child before this process exits
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        child = subprocess.run(
            [sys.executable, os.path.join(HERE, "measure.py"), work,
             repr(args.seconds), str(args.trace), stem],
            env=env, timeout=DEADLINE_S - (time.monotonic() - started))
    except subprocess.TimeoutExpired:
        print("measurement did not finish within %d s" % DEADLINE_S, file=sys.stderr)
        return 3
    finally:
        os.remove(work)
    return child.returncode


if __name__ == "__main__":
    sys.exit(main())
