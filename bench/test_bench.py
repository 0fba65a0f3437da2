"""Fast tests of the benchmark itself: python3 -m pytest bench

Each workload runs to its end at a tiny scale, and each checker rejects a
deliberately corrupted output.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402
from run import listed_metrics  # noqa: E402
from workloads import Scale, run_workload  # noqa: E402

TINY = {
    "align": Scale(dim=8, arch="mlp1", hidden=8, items=300, queries=40, clusters=4,
                   nlist=8, train_epochs=1, steps=12, latency_queries=10,
                   sweep_queries=10, diag_queries=10),
    "index": Scale(dim=8, arch="linear", hidden=0, items=400, queries=30, clusters=4,
                   nlist=16, train_epochs=1, steps=6, latency_queries=10,
                   sweep_queries=10, diag_queries=10),
    "serve": Scale(dim=8, arch="linear", hidden=0, items=300, queries=60, clusters=4,
                   nlist=8, train_epochs=1, steps=6, latency_queries=20,
                   sweep_queries=10, diag_queries=10),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_runs_and_passes_its_checks(name, tmp_path):
    result = run_workload(name, 5, 0, scale=TINY[name], workdir=str(tmp_path))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    metrics = result["metrics"]
    assert set(listed_metrics(trace=False)) <= set(metrics)
    assert all(m["value"] > 0 for m in metrics.values())
    assert os.listdir(tmp_path) == []       # the run's files are removed


def test_traced_run_reports_every_layer(tmp_path):
    trace_path = str(tmp_path / "trace.json")
    result = run_workload("serve", 2, 0, trace=True, scale=TINY["serve"],
                          workdir=str(tmp_path), trace_path=trace_path)
    assert result["correct"]
    metrics = result["metrics"]
    assert set(listed_metrics(trace=True)) <= set(metrics)
    for name in ("core.pairwise_sq_dists.calls", "ivf.search.self_ms",
                 "clustering.kmeans.lloyd_iterations", "encoder.rows_encoded",
                 "training.grad.p50_ms", "data_io.gen_synthetic.ms"):
        assert metrics[name]["value"] > 0, name
    assert 90.0 < metrics["trace.span_coverage_pct"]["value"] <= 100.0
    with open(trace_path) as fh:
        names = set(json.load(fh)["names"])
    assert {"cli.run", "ivf.search", "clustering.kmeans",
            "core.pairwise_sq_dists", "op.sweep"} <= names
    assert "ivf.kmeans" not in names    # a span is named where it is defined


def test_tracer_uninstall_restores_every_function():
    import sci
    from sci import ivf
    from spans import Tracer, public_functions

    before = public_functions(sci)
    tracer = Tracer()
    tracer.install(sci)
    assert all(getattr(m, a).__wrapped__ is f for m, a, f in before)
    assert ivf.kmeans.__name__ == "kmeans"
    tracer.uninstall()
    assert all(getattr(m, a) is f for m, a, f in before)


# ---------------------------------------------------------------------------
# Checkers against corrupted outputs


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """A tiny serve run whose outputs are still on disk."""
    run = workloads.Run("serve", 4, TINY["serve"],
                        str(tmp_path_factory.mktemp("run")))
    run.setup()
    run.round()
    return run


def test_clean_run_passes_every_check(finished_run):
    failures = checks.check_run(finished_run)
    assert {k: v for k, v in failures.items() if v} == {}
    assert len(failures) >= 15


def _corrupt_run_file(run, variant, edit):
    path = run.path(f"run_{variant}.tsv")
    with open(path) as fh:
        lines = fh.readlines()
    with open(path, "w") as fh:
        fh.writelines(edit(lines))
    return path


def _restore(path, lines):
    with open(path, "w") as fh:
        fh.writelines(lines)


@pytest.mark.parametrize("variant", ["flat", "pq"])
def test_search_check_rejects_swapped_id_and_wrong_score(finished_run, variant):
    run = finished_run
    path = run.path(f"run_{variant}.tsv")
    with open(path) as fh:
        original = fh.readlines()
    inputs = checks.Inputs(run)
    index = ref.read_scix(run.path(f"{variant}.scix"))

    def failures():
        return checks.check_search_run(index, ref.read_run(path), inputs.query_ids,
                                       inputs.q_emb, run.nprobe, run.k)
    assert failures() == []

    def swap_ids(lines):     # ranks 1 and 3 of the first query exchange items
        a, b = lines[0].split("\t"), lines[2].split("\t")
        a[2], b[2] = b[2], a[2]
        return ["\t".join(a), lines[1], "\t".join(b)] + lines[3:]
    try:
        _corrupt_run_file(run, variant, swap_ids)
        assert failures()

        def wrong_score(lines):
            f = lines[0].split("\t")
            f[3] = f"{float(f[3]) * 1.01 + 1e-3:.6g}\n"
            return ["\t".join(f)] + lines[1:]
        _restore(path, original)
        _corrupt_run_file(run, variant, wrong_score)
        assert failures()
    finally:
        _restore(path, original)


def test_ranked_check_rejects_missed_and_tie_order():
    cand_ids = np.array([5, 3, 9, 1], dtype=np.uint64)
    cand_d = np.array([0.1, 0.2, 0.2, 0.5])
    assert checks.check_ranked([5, 3, 9], [0.1, 0.2, 0.2], cand_ids, cand_d, 3) == []
    assert checks.check_ranked([5, 9, 3], [0.1, 0.2, 0.2], cand_ids, cand_d, 3)
    assert checks.check_ranked([5, 3, 1], [0.1, 0.2, 0.5], cand_ids, cand_d, 3)
    assert checks.check_ranked([5, 3], [0.1, 0.2], cand_ids, cand_d, 3)
    assert checks.check_ranked([5, 3, 9], [0.1, 0.2, 0.3], cand_ids, cand_d, 3)


def test_index_checks_reject_misassigned_list_and_bad_codes(finished_run):
    run = finished_run
    inputs = checks.Inputs(run)
    flat = ref.read_scix(run.path("flat.scix"))
    pq = ref.read_scix(run.path("pq.scix"))
    assert checks.check_assignment(flat, inputs.struct_emb) == []
    # move one item to another list
    moved = flat.lists[0][:1]
    flat.lists[0], flat.lists[1] = flat.lists[0][1:], np.concatenate([flat.lists[1], moved])
    flat.payloads[1] = np.concatenate([flat.payloads[1], flat.payloads[0][:1]])
    flat.payloads[0] = flat.payloads[0][1:]
    assert checks.check_assignment(flat, inputs.struct_emb)
    assert checks.check_partition(flat, inputs.item_ids, run.scale.nlist) == []
    flat.lists[2] = np.concatenate([flat.lists[2], moved])
    assert checks.check_partition(flat, inputs.item_ids, run.scale.nlist)
    flat.lists[3] = flat.lists[3][:0]
    assert any("empty" in f for f in
               checks.check_partition(flat, inputs.item_ids, run.scale.nlist))

    flat = ref.read_scix(run.path("flat.scix"))
    assert checks.check_flat_payloads(flat, inputs.item_emb) == []
    flat.payloads[0] = flat.payloads[0] + np.float32(1e-3)
    assert checks.check_flat_payloads(flat, inputs.item_emb)

    assert checks.check_pq_codes(pq, inputs.item_emb) == []
    ksub = pq.codebooks.shape[1]
    j = next(j for j, ids in enumerate(pq.lists) if len(ids))
    pq.payloads[j][0, 0] = (int(pq.payloads[j][0, 0]) + 1) % ksub
    assert checks.check_pq_codes(pq, inputs.item_emb)
    pq.payloads[j][0, 0] = ksub
    assert any(">= ksub" in f for f in checks.check_pq_codes(pq, inputs.item_emb))


def test_probe_check_rejects_wrong_lists():
    coarse = np.array([0.4, 0.1, 0.3, 0.2])
    assert checks.check_probes([1, 3], coarse, 2) == []
    assert checks.check_probes([1, 2], coarse, 2)
    assert checks.check_probes([3, 1], coarse, 2)


def test_metric_and_sweep_checks_reject_wrong_values():
    own = {("recall", 10): 0.5, ("mrr", 1): 0.25}
    assert checks.check_metrics({("recall", 10): 0.5, ("mrr", 1): 0.25}, own) == []
    assert checks.check_metrics({("recall", 10): 0.5, ("mrr", 1): 0.26}, own)
    sweep = {("standard", "8", "recall", "10"): 0.7, ("ci", "8", "recall", "10"): 0.7}
    assert checks.check_sweep_full_probe(sweep, 8) == []
    sweep["ci", "8", "recall", "10"] = 0.71
    assert checks.check_sweep_full_probe(sweep, 8)


def test_align_checks_reject_wrong_gradient_and_diagnostics(finished_run):
    from sci import training
    run = finished_run
    rng = np.random.Generator(np.random.PCG64(0))
    mem = run.train_model
    towers = {"query": mem.params_q, "item": mem.params_i}
    cfg = training.LossConfig(run.margin, run.lam, training.ADDITIVE)
    for batch in run.batches:
        report = training.grad(mem, batch, cfg)
        arrays = (batch.queries, batch.pos_items, batch.neg_items)
        good = checks.check_grad({"query": report.grad_q, "item": report.grad_i},
                                 towers, mem.arch, mem.normalize_output, arrays,
                                 run.margin, run.lam, np.random.Generator(np.random.PCG64(1)))
        if good is None:
            continue
        assert good == []
        bad = {"query": {k: v * 1.1 for k, v in report.grad_q.items()},
               "item": report.grad_i}
        assert checks.check_grad(bad, towers, mem.arch, mem.normalize_output, arrays,
                                 run.margin, run.lam, np.random.Generator(np.random.PCG64(1)),
                                 samples=40)
        break
    else:
        pytest.fail("no batch away from the hinge kink")

    assert checks.check_align(run, rng)["diagnose"] == []
    path = run.path("diagnose.json")
    with open(path) as fh:
        report = json.load(fh)
    for key, factor in (("cond_q", 1.01), ("alignment_error", 1.001)):
        bad = dict(report, **{key: report[key] * factor})
        with open(path, "w") as fh:
            json.dump(bad, fh)
        try:
            assert checks.check_align(run, rng)["diagnose"], key
        finally:
            with open(path, "w") as fh:
                json.dump(report, fh)
    assert checks.check_loss_decreased(1.0, 1.0)
