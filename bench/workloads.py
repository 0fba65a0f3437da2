"""The benchmark's workloads: set-up, timed rounds and their metrics.

Every workload runs the same round of operations, one client in one
process, each operation only after the previous one finished:

    build flat -> search flat -> diagnose -> build pq -> search pq -> sweep

then a second pass over the short commands the workload repeats, with the
SGD steps and the single queries split into chunks between the commands.
Interleaving them makes a slow spell of the shared host fall on all of them
alike. The workloads differ in their inputs, chosen so that a
different layer does most of the work in each (see `SCALES`). Commands go
through `sci.cli.run` in-process, so interpreter start-up stays out of the
timings; single-query latency goes through `ivf.search` and one SGD step
through `training.train` over one triplet batch.
"""

from __future__ import annotations

import contextlib
import io
import os
import resource
import shutil
import sys
import tempfile
import traceback
from dataclasses import dataclass
from statistics import median
from time import perf_counter

import numpy as np

import reference as ref

MISALIGN = 0.8
# Wide enough spread around the latent clusters that k-means runs all of its
# iterations on every seed, so the work of a build does not depend on the seed.
NOISE = 0.5
# `sci diagnose` gets inputs made from this seed whatever the run's seed: the
# cost of its Jacobi eigensolver swings by 2-3x between inputs (some matrices
# never meet its convergence test and run all 100 sweeps), which a
# seed-dependent input would turn into run-to-run spread.
DIAG_SEED = 0
# A set-up is timed after every round and at least this many times per run;
# setup_s is their median.
SETUPS = 5
MARGIN = 0.2
LAMBDA = 0.3
LR = 0.05
NPROBE = 8
K = 10


@dataclass(frozen=True)
class Scale:
    dim: int
    arch: str
    hidden: int             # mlp1 hidden width, 0 for linear
    items: int
    queries: int            # all of them are searched by `sci search`
    clusters: int           # latent clusters of the synthetic data
    nlist: int
    train_epochs: int       # `sci train` in set-up
    steps: int              # timed SGD steps per round
    latency_queries: int    # timed `ivf.search` calls per round
    sweep_queries: int      # queries of `sci sweep`
    diag_queries: int       # queries whose relevant pairs `sci diagnose` scores
    # (operation kind, runs per round) for short commands that run more
    # than once per round, so their medians rest on more samples
    extra: tuple = ()

    def repeats(self, kind):
        return dict(self.extra).get(kind, 1)

    @property
    def nprobe_list(self):
        return [1 << i for i in range(self.nlist.bit_length())
                if 1 << i <= self.nlist]


SCALES = {
    # The paper's alignment module: an mlp1 dual tower at d=64, so tower
    # forward/backward and the d=64 Jacobi diagnostics dominate; the
    # corpus is small, so index work is a minor share.
    "align": Scale(dim=64, arch="mlp1", hidden=64, items=3000, queries=300,
                   clusters=16, nlist=16, train_epochs=2, steps=300,
                   latency_queries=200, sweep_queries=50, diag_queries=60,
                   extra=(("build_flat", 2), ("search_flat", 2), ("search_pq", 2))),
    # The write side of `ivf`: a large d=16 corpus with nlist=64, so
    # k-means, PQ training and the n x k x d distance tensor dominate.
    "index": Scale(dim=16, arch="linear", hidden=0, items=5000, queries=200,
                   clusters=32, nlist=64, train_epochs=5, steps=100,
                   latency_queries=300, sweep_queries=40, diag_queries=40,
                   extra=(("search_flat", 4), ("diagnose", 4), ("search_pq", 3))),
    # The read side of `ivf`: thousands of queries against a mid-size
    # corpus, so probing, list scans, ADC and top-k merges dominate.
    "serve": Scale(dim=16, arch="linear", hidden=0, items=4000, queries=1500,
                   clusters=32, nlist=32, train_epochs=5, steps=100,
                   latency_queries=1000, sweep_queries=60, diag_queries=50,
                   extra=(("build_flat", 2), ("diagnose", 4))),
}

OPERATIONS = ("train_step", "query", "build_flat", "search_flat", "diagnose",
              "build_pq", "search_pq", "sweep")


def _chunk(total, parts, i):
    """Size of part i when `total` is split into `parts` near-equal parts."""
    return total // parts + (1 if i < total % parts else 0)


class Run:
    """One workload run: its files, the program's objects and the samples."""

    def __init__(self, name, seed, scale, workdir):
        self.name = name
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.margin, self.lam, self.k, self.nprobe = MARGIN, LAMBDA, K, NPROBE
        self.samples = {op: [] for op in OPERATIONS}
        self.setup_s = []
        self.round_s = []
        self.attempted = 0
        self.failed = 0
        self.steps_done = 0
        self.queries_done = 0
        self.tracer = None

    def path(self, name):
        return os.path.join(self.setup_dir, name)

    # -- set-up -------------------------------------------------------------

    def setup(self, adopt=True):
        """One timed set-up into a fresh directory. The first is adopted for
        the rounds; the later ones, made after every round so that their
        median sees the host in the same states as the rounds do, are
        discarded."""
        d = os.path.join(self.workdir, f"setup-{len(self.setup_s)}")
        t0 = perf_counter()
        state = self._prepare(d)
        self.setup_s.append(perf_counter() - t0)
        if adopt:
            vars(self).update(state)
        else:
            shutil.rmtree(d)

    def _prepare(self, d):
        """Generate the inputs under `d` and load what the rounds use."""
        from sci import data_io, encoder, training
        from sci.core import make_rng

        s = self.scale
        data_dir, model_path = os.path.join(d, "data"), os.path.join(d, "model.scim")
        diag_dir, diag_model_path = os.path.join(d, "diag"), os.path.join(d, "diag.scim")
        self._generate(data_dir, model_path, s.queries, self.seed)
        self._generate(diag_dir, diag_model_path, s.diag_queries, DIAG_SEED)
        queries, ids = ref.read_sciv(os.path.join(data_dir, "queries.sciv"))
        ref.write_sciv(os.path.join(d, "sweep_queries.sciv"), queries[:s.sweep_queries],
                       ids[:s.sweep_queries])
        trip = [ref.read_sciv(os.path.join(data_dir, f"triplets_{p}.sciv"))[0]
                for p in ("q", "pos", "neg")]
        train_model = encoder.init(s.arch, s.dim, s.dim, make_rng(self.seed),
                                   hidden_dim=s.hidden)
        return {
            "setup_dir": d, "data_dir": data_dir, "model_path": model_path,
            "diag_dir": diag_dir, "diag_model_path": diag_model_path,
            "queries": queries, "model": data_io.load_model(model_path),
            "triplets": trip,
            "batches": [training.TripletBatch(*(t[i:i + 64] for t in trip))
                        for i in range(0, len(trip[0]), 64)],
            "train_model": train_model,
            "train_init": {"query": {k: v.copy() for k, v in train_model.params_q.items()},
                           "item": {k: v.copy() for k, v in train_model.params_i.items()}},
            "train_cfg": training.TrainConfig(
                1, LR, self.seed, training.LossConfig(MARGIN, LAMBDA, training.ADDITIVE)),
        }

    def _generate(self, data_dir, model_path, queries, seed):
        """`sci gen-data` and a short `sci train` on its triplets."""
        s = self.scale
        self._setup_cli(["gen-data", "--items", s.items, "--queries", queries,
                         "--dim", s.dim, "--clusters", s.clusters,
                         "--misalign", MISALIGN, "--noise", NOISE, "--seed", seed,
                         "--out", data_dir])
        hidden = ["--hidden", s.hidden] if s.hidden else []
        self._setup_cli(["train", "--data", data_dir, "--arch", s.arch] + hidden + [
                         "--mode", "additive",
                         "--lambda", LAMBDA, "--margin", MARGIN, "--lr", LR,
                         "--epochs", s.train_epochs, "--seed", seed,
                         "--out", model_path])

    # -- operations ---------------------------------------------------------

    def cli_ok(self, argv):
        """`sci.cli.run(argv)`; its stderr is shown only when it fails."""
        from sci import cli
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.run([str(a) for a in argv])
        if rc != 0:
            sys.stderr.write(err.getvalue())
        return rc == 0

    def _setup_cli(self, argv):
        if not self.cli_ok(argv):
            raise RuntimeError(f"set-up command failed: sci {argv[0]}")

    def _op(self, kind, fn):
        """Time one operation; an exception or a non-zero exit counts as a
        failed operation and is reported on stderr."""
        self.attempted += 1
        span = self.tracer.span("op." + kind) if self.tracer else contextlib.nullcontext()
        try:
            with span:
                t0 = perf_counter()
                ok = fn()
                dt = perf_counter() - t0
        except Exception:
            traceback.print_exc()
            ok = False
        if ok:
            self.samples[kind].append(dt)
        else:
            self.failed += 1

    def _commands(self):
        """The round's CLI commands in order, by operation kind."""
        s = self.scale
        model = ["--model", self.model_path, "--seed", self.seed]
        items = os.path.join(self.data_dir, "items.sciv")
        queries = os.path.join(self.data_dir, "queries.sciv")

        def build(variant):
            return ["build-index", "--items", items, "--mode", "ci", "--variant",
                    variant, "--nlist", s.nlist, "--out", self.path(f"{variant}.scix")
                    ] + model

        def search(variant):
            return ["search", "--index", self.path(f"{variant}.scix"), "--queries",
                    queries, "--nprobe", NPROBE, "--k", K,
                    "--out", self.path(f"run_{variant}.tsv")] + model

        commands = [
            ("build_flat", build("flat")),
            ("search_flat", search("flat")),
            ("diagnose", ["diagnose", "--model", self.diag_model_path,
                          "--data", self.diag_dir, "--out", self.path("diagnose.json")]),
            ("build_pq", build("pq")),
            ("search_pq", search("pq")),
            ("sweep", ["sweep", "--items", items,
                       "--queries", self.path("sweep_queries.sciv"),
                       "--qrels", os.path.join(self.data_dir, "qrels.tsv"),
                       "--nlist", s.nlist,
                       "--nprobe", ",".join(map(str, s.nprobe_list)),
                       "--k", "1,10", "--out", self.path("sweep.csv")] + model),
        ]
        passes = max(s.repeats(kind) for kind, _ in commands)
        return [(kind, argv) for p in range(passes)
                for kind, argv in commands if s.repeats(kind) > p]

    def round(self):
        """One round: every command once, then a further pass over the
        commands the scale repeats, with the SGD steps and the single
        queries split into chunks between the commands."""
        from sci import ivf, training

        s = self.scale
        t0 = perf_counter()
        commands = self._commands()
        model, cfg, batches = self.train_model, self.train_cfg, self.batches
        index = None
        for n, (kind, argv) in enumerate(commands):
            for _ in range(_chunk(s.steps, len(commands), n)):
                batch = batches[self.steps_done % len(batches)]
                self.steps_done += 1
                self._op("train_step", lambda: training.train(model, [batch], cfg) and True)
            if index is not None:
                for _ in range(_chunk(s.latency_queries, len(commands) - 1, n - 1)):
                    q = self.queries[self.queries_done % len(self.queries)]
                    self.queries_done += 1
                    self._op("query", lambda: ivf.search(index, self.model, q,
                                                         NPROBE, K) and True)
            self._op(kind, lambda: self.cli_ok(argv))
            if kind == "build_flat":
                index = ivf.load(self.path("flat.scix"))
        self.round_s.append(perf_counter() - t0)

    # -- results ------------------------------------------------------------

    def end_to_end(self):
        s, m = self.scale, self.samples
        values = {
            "setup_s": (median(self.setup_s), "s"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
            "train_step_ms": (1e3 * median(m["train_step"]), "ms"),
            "diagnose_s": (median(m["diagnose"]), "s"),
            "build_flat_s": (median(m["build_flat"]), "s"),
            "build_pq_s": (median(m["build_pq"]), "s"),
            "search_flat_qps": (s.queries / median(m["search_flat"]), "queries/s"),
            "search_pq_qps": (s.queries / median(m["search_pq"]), "queries/s"),
            "query_p50_ms": (1e3 * float(np.percentile(m["query"], 50)), "ms"),
            "query_p99_ms": (1e3 * float(np.percentile(m["query"], 99)), "ms"),
            "sweep_s": (median(m["sweep"]), "s"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


# spans whose self time per round is a per-layer metric
SELF_MS = ("core.pairwise_sq_dists", "encoder.encode_batch", "encoder.forward",
           "diagnostics.jacobi_eigenvalues", "diagnostics.alignment_error",
           "clustering.kmeans", "clustering.assign_batch", "quantization.pq_train",
           "quantization.pq_encode_batch", "quantization.adc_table",
           "quantization.adc_distances_batch", "ivf.build", "ivf.search",
           "evaluation.nprobe_sweep", "evaluation.evaluate")
# spans whose inclusive time per round is one
INCLUSIVE_MS = ("ivf.save", "ivf.load", "data_io.read_vectors", "data_io.write_run")
CALLS = ("core.pairwise_sq_dists", "quantization.adc_table")
# counters summed per round, with their units
COUNTERS = {"encoder.rows_encoded": "count",
            "clustering.kmeans.lloyd_iterations": "count",
            "ivf.index_bytes": "B", "ivf.lists_probed": "count",
            "ivf.candidates_scanned": "count"}


def per_layer(layers, counts, peaks, n_rounds, setup_layers):
    """Per-layer metrics per traced round (gen_synthetic from the first
    set-up)."""
    out = {}

    def put(name, value, unit):
        out[name] = {"value": float(value), "unit": unit}

    def get(span, field, table=layers):
        return table.get(span, {}).get(field, 0.0)

    for span in SELF_MS:
        put(span + ".self_ms", get(span, "self_ms") / n_rounds, "ms")
    for span in INCLUSIVE_MS:
        put(span + ".ms", get(span, "ms") / n_rounds, "ms")
    for span in CALLS:
        put(span + ".calls", get(span, "calls") / n_rounds, "count")
    for name, unit in COUNTERS.items():
        put(name, counts.get(name, 0) / n_rounds, unit)
    # the largest n x k x d float64 tensor of a single call
    put("core.pairwise_sq_dists.bytes", peaks.get("core.pairwise_sq_dists.bytes", 0), "B")
    grad = layers.get("training.grad")
    put("training.grad.p50_ms", median(grad["durations_ms"]) if grad else 0.0, "ms")
    put("data_io.gen_synthetic.ms",
        get("data_io.gen_synthetic", "ms", setup_layers), "ms")
    return out


def _traced_metrics(run, tracer, since, setup_layers):
    """Per-layer metrics of the traced (odd) rounds, the tracing overhead
    against the untraced (even) rounds, and the share of the traced rounds'
    wall time that their top-level spans cover."""
    traced = run.round_s[1::2]
    untraced = run.round_s[0::2]
    layers, counts = tracer.layers(since)
    metrics = per_layer(layers, counts, tracer.peaks, len(traced), setup_layers)
    metrics["trace.overhead_pct"] = {
        "value": 100.0 * (median(traced) / median(untraced) - 1.0), "unit": "%"}
    metrics["trace.span_coverage_pct"] = {
        "value": 100.0 * tracer.top_level_ms(since) / (1e3 * sum(traced)), "unit": "%"}
    return metrics


def run_workload(name, seed, seconds, trace=False, scale=None, workdir=None,
                 trace_path=None):
    """Set up, run whole rounds for `seconds`, check the outputs.

    Returns the result object the benchmark prints, plus a `detail` entry
    (round times, sample counts, every computed metric). With `trace`,
    rounds alternate untraced and traced, and the metrics are the per-layer
    ones from the traced rounds plus the tracing overhead.
    """
    import sci
    from checks import check_run
    from spans import Tracer

    scale = scale or SCALES[name]
    base = tempfile.mkdtemp(prefix=f"{name}-", dir=workdir)
    try:
        run = Run(name, seed, scale, base)
        tracer = Tracer() if trace else None
        if tracer:
            tracer.install(sci)
        run.setup()
        if tracer:
            setup_layers, _ = tracer.layers()
            tracer.uninstall()
            since = tracer.mark()
        end = perf_counter() + seconds
        while True:
            traced = bool(tracer) and len(run.round_s) % 2 == 1
            if traced:
                tracer.install(sci)
                run.tracer = tracer
            run.round()
            if traced:
                tracer.uninstall()
                run.tracer = None
            run.setup(adopt=False)
            done = perf_counter() >= end
            if done and (not tracer or len(run.round_s) % 2 == 0):
                break
        while len(run.setup_s) < SETUPS:
            run.setup(adopt=False)
        run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failures = check_run(run)
        failed_checks = {k: v for k, v in failures.items() if v}
        for check, msgs in failed_checks.items():
            for msg in msgs[:3]:
                print(f"check {check} failed: {msg}", file=sys.stderr)
        if tracer:
            metrics = _traced_metrics(run, tracer, since, setup_layers)
            if trace_path:
                tracer.dump(trace_path)
        else:
            metrics = run.end_to_end()
        detail = {"rounds": len(run.round_s), "round_s": run.round_s,
                  "setup_s": run.setup_s,
                  "samples": {op: len(v) for op, v in run.samples.items()},
                  "failed_checks": failed_checks, "metrics": metrics}
        return {"correct": not failed_checks, "attempted": run.attempted,
                "failed": run.failed, "metrics": metrics, "detail": detail}
    finally:
        shutil.rmtree(base, ignore_errors=True)
