"""Benchmark of the `sci` library: one workload per run.

    python3 bench/run.py --workload align|index|serve --seed N --seconds S --trace 0|1

Runs from the root of a checkout of the repository and imports `sci` from
its `src/` directory. The last line of standard output is one JSON object:
`correct`, `attempted`, `failed` and `metrics`, the end-to-end metrics with
`--trace 0` and the per-layer metrics with `--trace 1`. The exit code is 0
only when every operation succeeded and every output check passed.

bench/out/ receives result-<workload>-<seed>[-trace].json, the same object
with round times, sample counts and every computed metric (`query_p99_ms`
too), and with --trace 1 trace-<workload>-<seed>.json, every span.
"""

import os

# Single-threaded BLAS: the host has two cores, and the variables must be
# set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def listed_metrics(trace):
    """Names of the metrics BENCHMARK.json lists for a run of this kind."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def select(metrics, trace):
    """The metrics BENCHMARK.json lists, in its order."""
    names = listed_metrics(trace)
    missing = [n for n in names if n not in metrics]
    if missing:
        raise KeyError(f"metrics listed in BENCHMARK.json but not measured: {missing}")
    return {n: metrics[n] for n in names}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "sci", "__init__.py")):
        print(f"no sci package under {src}: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from workloads import SCALES, run_workload
    if args.workload not in SCALES:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(SCALES)}")

    os.makedirs(OUT, exist_ok=True)
    name = f"{args.workload}-{args.seed}"
    trace_path = os.path.join(OUT, f"trace-{name}.json") if args.trace else None
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          workdir=OUT, trace_path=trace_path)
    detail = result.pop("detail")
    result["metrics"] = select(result["metrics"], bool(args.trace))
    with open(os.path.join(OUT, f"result-{name}{'-trace' if args.trace else ''}.json"),
              "w") as fh:
        json.dump(dict(result, detail=detail), fh, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
