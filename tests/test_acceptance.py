"""Acceptance gate: one test per release criterion.

Each test prints a single summary line with its measured values so the
pytest log doubles as the acceptance report. Experiment settings at desk
scale (2000 items, dim 16) are chosen so each criterion finishes far inside
its runtime budget.
"""

import itertools
import os
import time

import numpy as np
import pytest

from sci import (cli, data_io, diagnostics, encoder, evaluation, ivf,
                 quantization, training)
from sci.core import make_rng, pairwise_sq_dists
from sci.errors import KinkTooClose

from conftest import clone_model, linear_model, mlp_model, random_batch


def _report(name, detail):
    print(f"[acceptance] {name}: {detail}")


# ---------------------------------------------------------------------------
# 1. Gradient correctness


def test_criterion_01_gradient_correctness():
    t0 = time.perf_counter()
    cases = itertools.product(("linear", "mlp1"), ("convex", "additive"))
    worst = {"linear": 0.0, "mlp1": 0.0}
    checked = 0
    for arch, mode in cases:
        tol = 1e-4 if arch == "linear" else 1e-3
        seed = 0
        done = 0
        while done < 5:
            seed += 1
            rng = make_rng(seed)
            if arch == "linear":
                m = linear_model(5, 4, seed=seed)
            else:
                m = mlp_model(5, 4, hidden=6, seed=seed)
            batch = random_batch(rng, 6, 5)
            cfg = training.LossConfig(0.2, 0.3, mode)
            try:
                err = training.grad_check(m, batch, cfg, 1e-5)
            except KinkTooClose:
                continue
            assert err < tol, f"{arch}/{mode} seed {seed}: {err}"
            worst[arch] = max(worst[arch], err)
            done += 1
            checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 20
    assert elapsed < 10.0
    _report("criterion 1",
            f"20 kink-safe batches, max rel err linear {worst['linear']:.2e} "
            f"(<1e-4), mlp1 {worst['mlp1']:.2e} (<1e-3), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Linear closed form


def _raw_linear(dim, seed):
    m = linear_model(dim, dim, seed=seed, normalize=False)
    return m


def test_criterion_02_linear_closed_form():
    rng = make_rng(0)
    done = 0
    worst = 0.0
    seed = 0
    while done < 50:
        seed += 1
        dim = int(rng.integers(2, 8))
        m = _raw_linear(dim, seed)
        q = rng.normal(size=dim).astype(np.float32)
        pos = rng.normal(size=dim).astype(np.float32)
        neg = rng.normal(size=dim).astype(np.float32)
        batch = training.TripletBatch(q[None], pos[None], neg[None])
        cfg = training.LossConfig(0.5, 0.3, training.ADDITIVE)
        # both hinges must be active for the closed form to hold
        report = training.grad(m, batch, cfg)
        if report.loss_original == 0.0 or report.loss_swap == 0.0:
            continue
        analytic = report.grad_q["W"]
        closed = training.linear_grad_closed_form(
            m.params_q["W"], m.params_i["W"], q, pos, neg, 0.3)
        err = float(np.max(np.abs(analytic - closed.astype(np.float64))))
        assert err < 1e-6, f"config {seed}: {err}"
        worst = max(worst, err)
        done += 1
    _report("criterion 2",
            f"50 raw-dot/additive/active configs, max abs err {worst:.2e} "
            f"(<1e-6)")


# ---------------------------------------------------------------------------
# 3. Collapse suite


def _flat(grads):
    return np.concatenate([g.reshape(-1) for _, g in sorted(grads.items())])


def test_criterion_03a_lambda_zero_collapse():
    rng = make_rng(1)
    for seed in range(5):
        m = linear_model(4, 4, seed=seed)
        batch = random_batch(rng, 6, 4)
        for mode in (training.CONVEX, training.ADDITIVE):
            report = training.grad(m, batch, training.LossConfig(0.2, 0.0, mode))
            original_only = training.grad(
                clone_model(m), batch, training.LossConfig(0.2, 0.0, mode))
            assert report.loss_swap == 0.0
            for name in report.grad_q:
                assert np.array_equal(report.grad_q[name],
                                      original_only.grad_q[name])
            # and the analytic result is the plain original-path gradient
            assert report.loss_value == report.loss_original
    _report("criterion 3a", "lambda=0 gradient is the original-path gradient, "
            "parameter-wise, both modes")


def test_criterion_03b_parallel_collapse():
    rng = make_rng(2)
    lam = 0.3
    for trial in range(20):
        dim = int(rng.integers(2, 6))
        w_i = rng.normal(size=(dim, dim)).astype(np.float32)
        delta_i = rng.normal(size=dim).astype(np.float32)
        alpha = float(rng.uniform(0.2, 3.0))
        q = (alpha * delta_i).astype(np.float32)
        pos = np.zeros(dim, dtype=np.float32)
        neg = delta_i
        with_swap = training.linear_grad_closed_form(
            w_i, w_i, q, pos, neg, lam).astype(np.float64)
        without = training.linear_grad_closed_form(
            w_i, w_i, q, pos, neg, 0.0).astype(np.float64)
        cos = float(np.dot(with_swap.reshape(-1), without.reshape(-1)) /
                    (np.linalg.norm(with_swap) * np.linalg.norm(without)))
        assert cos == pytest.approx(1.0, abs=1e-6)
        # the swap term adds a positive scalar multiple, never a new direction
        scale = (alpha + lam * alpha) / alpha
        assert np.allclose(with_swap, scale * without, atol=1e-5)
        probe = training.collapse_probe(w_i, w_i, q, pos, neg, lam)
        assert probe.kind == "parallel"
    # The published worked instance (alpha = 1): gradient equals
    # (alpha + lam * alpha^2) * W_i di di^T.
    w_i = np.eye(2, dtype=np.float32)
    grad = training.linear_grad_closed_form(
        w_i, w_i, [1.0, 0.0], [0.0, 0.0], [1.0, 0.0], lam)
    di = np.array([1.0, 0.0])
    assert np.allclose(grad, (1.0 + lam * 1.0) * np.outer(di, di), atol=1e-7)
    _report("criterion 3b", "q || di gives cosine 1 +/- 1e-6 with the "
            "lambda=0 gradient over 20 trials; alpha=1 closed form exact")


def test_criterion_03c_non_collapse_independence():
    rng = make_rng(3)
    done = 0
    worst = 0.0
    while done < 100:
        dim = int(rng.integers(2, 8))
        w_i = rng.normal(size=(dim, dim)).astype(np.float32)
        q = rng.normal(size=dim).astype(np.float32)
        pos = rng.normal(size=dim).astype(np.float32)
        neg = rng.normal(size=dim).astype(np.float32)
        probe = training.collapse_probe(w_i, w_i, q, pos, neg, 0.3)
        if probe.kind != "independent":
            continue
        direct = training.linear_grad_closed_form(
            w_i, w_i, q, pos, neg, 0.0).astype(np.float64).reshape(-1)
        total = training.linear_grad_closed_form(
            w_i, w_i, q, pos, neg, 1.0).astype(np.float64).reshape(-1)
        swap_term = total - direct
        cos = abs(float(np.dot(direct, swap_term) /
                        (np.linalg.norm(direct) * np.linalg.norm(swap_term))))
        assert cos < 1.0 - 1e-3
        worst = max(worst, cos)
        done += 1
    _report("criterion 3c",
            f"100 non-collapse configs, max |cos| between gradient paths "
            f"{worst:.4f} (< {1 - 1e-3})")


# ---------------------------------------------------------------------------
# 4. Training-dynamics witnesses


def _witness_pairs(data, per_query=1):
    """The query and item feature arrays and the (query row, item row) pairs
    of the first relevant items of every query."""
    q_rows, i_rows = [], []
    for q in sorted(data.qrels):
        for item in sorted(data.qrels[q])[:per_query]:
            q_rows.append(q)
            i_rows.append(item)
    return (data.query_features, data.item_features,
            np.array((q_rows, i_rows), dtype=np.intp).T)


def _train_pair(seed, epochs, lr, lam):
    data = data_io.gen_synthetic(data_io.standard_benchmark(seed))
    base = linear_model(16, 16, seed=1000 + seed)
    out = []
    for lam_val in (lam, 0.0):
        m = clone_model(base)
        cfg = training.TrainConfig(
            epochs, lr, seed, training.LossConfig(0.2, lam_val,
                                                  training.ADDITIVE))
        m, _ = training.train(m, data.triplets, cfg)
        out.append(m)
    return data, out[0], out[1]


def test_criterion_04_training_dynamics_witnesses():
    t0 = time.perf_counter()
    align_wins = cov_wins = cos_wins = 0
    for seed in range(10):
        data, m_sym, m_plain = _train_pair(seed, epochs=60, lr=0.05, lam=0.3)
        pairs = _witness_pairs(data)
        pool = np.concatenate([data.query_features, data.item_features[:200]])
        sym = diagnostics.diagnose(m_sym, *pairs, pool)
        plain = diagnostics.diagnose(m_plain, *pairs, pool)
        align_wins += sym["alignment_error"] < plain["alignment_error"]
        cov_wins += sym["cov_fro_gap"] < plain["cov_fro_gap"]
        cos_wins += sym["pair_stats"]["mean"] > plain["pair_stats"]["mean"]
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    assert align_wins >= 8, f"alignment_error lower in only {align_wins}/10"
    assert cov_wins >= 8, f"cov_fro_gap lower in only {cov_wins}/10"
    assert cos_wins >= 8, f"pair mean similarity higher in only {cos_wins}/10"
    _report("criterion 4",
            f"lambda=0.3 vs 0 over 10 seeds: alignment_error lower "
            f"{align_wins}/10, cov_fro_gap lower {cov_wins}/10, pair cosine "
            f"higher {cos_wins}/10 (all >=8), {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 5. Index exactness


def _search_encoded_queries(m, data):
    """Query embeddings as `ivf.search` computes them, one row at a time
    (BLAS may round a one-row product differently from a batch)."""
    return np.concatenate([encoder.encode_batch(m, encoder.QUERY, f[None])
                           for f in data.query_features])


def test_criterion_05_index_exactness():
    data = data_io.gen_synthetic(data_io.standard_benchmark(0))
    m = linear_model(16, 16, seed=7)
    ref_ids, ref_dists = evaluation.brute_force_search(
        data.item_ids, encoder.encode_batch(m, encoder.ITEM, data.item_features),
        _search_encoded_queries(m, data), 10)
    for mode in (ivf.STANDARD, ivf.CI):
        index = ivf.build(m, data.item_ids, data.item_features, mode, ivf.FLAT,
                          16, make_rng(0))
        for row, feat in enumerate(data.query_features):
            got = ivf.search(index, m, feat, 16, 10)
            assert got.ranked == list(zip(ref_ids[row].tolist(),
                                          ref_dists[row].tolist()))
    _report("criterion 5", "IVF-Flat nprobe=nlist == brute force, same ids "
            "and order, 200 queries x both modes")


# ---------------------------------------------------------------------------
# 6. PQ/ADC identities


def test_criterion_06_pq_adc_identities():
    rng = make_rng(0)
    cb = quantization.pq_train(rng.normal(size=(400, 16)).astype(np.float32),
                               4, 16, make_rng(1))
    worst = 0.0
    for _ in range(1000):
        qr = rng.normal(size=16).astype(np.float32)
        codes = quantization.pq_encode_batch(
            cb, rng.normal(size=(1, 16)).astype(np.float32))
        table = quantization.adc_table(cb, qr[None])[0]
        via_table = quantization.adc_distances_batch(table, codes)[0]
        direct = pairwise_sq_dists(
            qr[None], quantization.pq_reconstruct(cb, codes))[0, 0]
        rel = abs(via_table - direct) / max(direct, 1e-12)
        assert rel < 1e-5
        worst = max(worst, rel)

    cb2 = quantization.pq_train(rng.normal(size=(200, 6)).astype(np.float32),
                                2, 8, make_rng(2))
    for _ in range(50):
        r = rng.normal(size=6).astype(np.float32)
        code = quantization.pq_encode_batch(cb2, r[None])[0]
        best = min(itertools.product(range(8), repeat=2),
                   key=lambda c: pairwise_sq_dists(
                       r[None], np.concatenate([cb2.codebooks[0, c[0]],
                                                cb2.codebooks[1, c[1]]])[None]
                   )[0, 0])
        assert tuple(code) == best
    _report("criterion 6",
            f"ADC == reconstruct-and-measure, 1000 trials, max rel err "
            f"{worst:.2e} (<1e-5); pq_encode optimal vs 64-code scan, m=2 "
            f"ksub=8")


# ---------------------------------------------------------------------------
# 7. Consistent-index directional witness + sweep monotonicity


def _oracle_qrels(m, data):
    """Relevance = exact top-10 under the model's own embedding spaces."""
    top, _ = evaluation.brute_force_search(
        data.item_ids, encoder.encode_batch(m, encoder.ITEM, data.item_features),
        _search_encoded_queries(m, data), 10)
    return {qid: {i: 1 for i in row}
            for qid, row in zip(data.query_ids.tolist(), top.tolist())}


def test_criterion_07_consistency_witness_and_monotonicity():
    t0 = time.perf_counter()
    nprobes = [1, 2, 4, 8, 16]
    ci_wins = 0
    gains = []
    for seed in range(10):
        data = data_io.gen_synthetic(data_io.standard_benchmark(seed))
        m = linear_model(16, 16, seed=1000 + seed)
        cfg = training.TrainConfig(
            3, 0.01, seed, training.LossConfig(0.2, 0.3, training.ADDITIVE))
        m, _ = training.train(m, data.triplets, cfg)
        items = data.item_ids, data.item_features
        queries = data.query_ids, data.query_features
        std = ivf.build(m, *items, ivf.STANDARD, ivf.FLAT, 16, make_rng(seed))
        ci = ivf.build(m, *items, ivf.CI, ivf.FLAT, 16, make_rng(seed))

        # Witness: semantic (cluster-identity) relevance, nprobe = 1.
        sweep = evaluation.nprobe_sweep(std, ci, m, *queries, data.qrels,
                                        [1], [10])
        r_ci = sweep.values[("ci", 1, "recall", 10)]
        r_std = sweep.values[("standard", 1, "recall", 10)]
        ci_wins += r_ci >= r_std
        if r_std > 0:
            gains.append((r_ci - r_std) / r_std)

        # Monotonicity: exact-search relevance, where the coarse stage can
        # only prune true neighbors, never rerank them (checked on the
        # first three seeds to stay inside the runtime budget).
        if seed < 3:
            sweep = evaluation.nprobe_sweep(std, ci, m, *queries,
                                            _oracle_qrels(m, data),
                                            nprobes, [1, 10])
            for method in ("standard", "ci"):
                for metric in evaluation.METRICS:
                    for k in (1, 10):
                        vals = [sweep.values[(method, p, metric, k)]
                                for p in nprobes]
                        for a, b in zip(vals, vals[1:]):
                            assert b >= a - 1e-12, \
                                f"{method} {metric}@{k} decreased: {vals}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    assert ci_wins >= 8, f"CI >= Standard in only {ci_wins}/10 seeds"
    _report("criterion 7",
            f"CI-Flat Recall@10 at nprobe=1 >= Standard in {ci_wins}/10 "
            f"seeds, mean relative gain {100 * np.mean(gains):.0f}% "
            f"(reference result at production scale: 18%); all metrics "
            f"non-decreasing in nprobe under exact-search relevance, "
            f"{elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 8. CLI determinism


def test_criterion_08_cli_determinism(tmp_path):
    def pipeline(root):
        root = str(root)
        os.makedirs(root, exist_ok=True)
        data = os.path.join(root, "data")
        model = os.path.join(root, "model.scim")
        index = os.path.join(root, "index.scix")
        run = os.path.join(root, "run.tsv")
        sweep = os.path.join(root, "sweep.csv")
        eval_csv = os.path.join(root, "eval.csv")
        assert cli.run(["gen-data", "--items", "300", "--queries", "40",
                        "--dim", "8", "--clusters", "4", "--misalign", "0.8",
                        "--seed", "5", "--out", data]) == 0
        assert cli.run(["train", "--data", data, "--epochs", "3", "--lr",
                        "0.02", "--mode", "additive", "--seed", "5",
                        "--out", model]) == 0
        assert cli.run(["build-index", "--model", model, "--items",
                        os.path.join(data, "items.sciv"), "--mode", "ci",
                        "--nlist", "4", "--seed", "5", "--out", index]) == 0
        assert cli.run(["search", "--index", index, "--model", model,
                        "--queries", os.path.join(data, "queries.sciv"),
                        "--nprobe", "2", "--seed", "5", "--out", run]) == 0
        assert cli.run(["eval", "--run", run, "--qrels",
                        os.path.join(data, "qrels.tsv"), "--seed", "5",
                        "--out", eval_csv]) == 0
        assert cli.run(["sweep", "--model", model, "--items",
                        os.path.join(data, "items.sciv"), "--queries",
                        os.path.join(data, "queries.sciv"), "--qrels",
                        os.path.join(data, "qrels.tsv"), "--nlist", "4",
                        "--nprobe", "1,2,4", "--seed", "5",
                        "--out", sweep]) == 0
        return [os.path.join(data, "items.sciv"),
                os.path.join(data, "qrels.tsv"), model,
                model + ".history.csv", index, run, eval_csv, sweep]

    first = pipeline(tmp_path / "a")
    second = pipeline(tmp_path / "b")
    for fa, fb in zip(first, second):
        with open(fa, "rb") as ha, open(fb, "rb") as hb:
            assert ha.read() == hb.read(), f"{os.path.basename(fa)} differs"
    _report("criterion 8", f"{len(first)} primary outputs byte-identical "
            f"across full pipeline reruns")


# ---------------------------------------------------------------------------
# 9. Metric unit suite


def test_criterion_09_metric_examples():
    import math

    def value(run, qrels, metric, k):
        return evaluation.evaluate(run, qrels, [k]).values[f"{metric}@{k}"]

    run = {0: [9, 1, 3]}
    qrels = {0: {1: 1}}
    assert value(run, qrels, "ndcg", 3) == \
        pytest.approx(1.0 / math.log2(3.0), abs=1e-9)
    assert value({0: [1], 1: [5, 6]}, {0: {1: 1, 2: 1}, 1: {5: 1, 6: 1}},
                 "recall", 2) == 0.75
    assert value({0: list(range(10))}, {0: {4: 1}}, "precision", 10) == \
        pytest.approx(0.1)
    assert value({0: [9, 8, 5]}, {0: {5: 1}}, "mrr", 10) == \
        pytest.approx(1.0 / 3.0)
    assert value({0: list(range(11))}, {0: {10: 1}}, "mrr", 10) == 0.0
    # skipped queries do not contribute zeros
    report = evaluation.evaluate({0: [1], 1: [2]}, {0: {1: 1}}, [1])
    assert report.values["recall@1"] == 1.0 and report.n_skipped == 1
    _report("criterion 9", "metric worked examples exact, including NDCG "
            "rank-2 = 1/log2(3) +/- 1e-9")


# ---------------------------------------------------------------------------
# 10. Complexity observability


def test_criterion_10_complexity_observability():
    rng = make_rng(0)
    batch = random_batch(rng, 16, 8)

    m = linear_model(8, 8, seed=1)
    training.grad(m, batch, training.LossConfig(0.2, 0.0))
    passes_off = m.encode_calls
    m = linear_model(8, 8, seed=1)
    training.grad(m, batch, training.LossConfig(0.2, 0.3))
    passes_on = m.encode_calls
    assert passes_on == 2 * passes_off

    n = 120
    items = np.arange(n), rng.normal(size=(n, 8)).astype(np.float32)
    m = linear_model(8, 8, seed=2)
    ivf.build(m, *items, ivf.STANDARD, ivf.FLAT, 4, make_rng(0))
    std_encodes = m.encode_calls
    m = linear_model(8, 8, seed=2)
    ivf.build(m, *items, ivf.CI, ivf.FLAT, 4, make_rng(0))
    ci_encodes = m.encode_calls
    assert std_encodes == n
    assert ci_encodes == 2 * n

    m = linear_model(8, 8, seed=3)
    index = ivf.build(m, *items, ivf.CI, ivf.FLAT, 8, make_rng(0))
    for nprobe in (1, 5, 8, 64):
        result = ivf.search(index, m, rng.normal(size=8).astype(np.float32),
                            nprobe, 3)
        assert len(result.probed_clusters) == min(nprobe, 8)
    _report("criterion 10",
            f"swap training forward passes {passes_on} == 2 x {passes_off}; "
            f"index build encodes: standard {std_encodes} == N, ci "
            f"{ci_encodes} == 2N; search probes min(nprobe, nlist)")
