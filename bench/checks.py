"""Correctness checks on the outputs of one benchmark run.

Each `check_*` function takes plain arrays, compares the program's output
with the benchmark's own computation from `reference`, and returns a list
of failure messages (empty when the output is right). `check_run` gathers
the outputs a workload left behind and applies every check to them.
"""

from __future__ import annotations

import json
import os

import numpy as np

import reference as ref

# Two float64 computations of one float32 quantity, summed in different
# orders, agree to well within this; a genuine near tie is this close too.
TOL = 1e-9
# Scores in run files are printed with 6 significant digits.
PRINTED_REL = 1e-5


def _close(a, b, rel, abs_=TOL):
    return abs(a - b) <= abs_ + rel * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# align


def check_loss_decreased(before, after):
    if not after < before:
        return [f"swap loss over all triplets did not fall: {before:.6g} -> {after:.6g}"]
    return []


def check_grad(analytic, towers, arch, normalize, batch, margin, lam, rng,
               samples=12, h=1e-6, rel=1e-5):
    """Central differences of `reference.swap_loss` on `samples` randomly
    chosen parameters against the program's gradient. Returns None when
    the batch has a hinge argument within 10h of its kink."""
    q, pos, neg = batch
    args = [ref.hinge_args(towers[a], towers[b], arch, normalize, q, pos, neg, margin)
            for a, b in (("query", "item"), ("item", "query"))]
    if min(float(np.abs(a).min()) for a in args) <= 10 * h:
        return None
    params = {t: {k: v.astype(np.float64) for k, v in p.items()}
              for t, p in towers.items()}
    keys = [(t, k) for t in ("query", "item") for k in sorted(params[t])]
    failures = []
    for _ in range(samples):
        tower, name = keys[int(rng.integers(len(keys)))]
        flat = params[tower][name].reshape(-1)
        i = int(rng.integers(flat.size))
        orig = flat[i]
        flat[i] = orig + h
        up = ref.swap_loss(params, arch, normalize, q, pos, neg, margin, lam)
        flat[i] = orig - h
        down = ref.swap_loss(params, arch, normalize, q, pos, neg, margin, lam)
        flat[i] = orig
        numeric = (up - down) / (2 * h)
        got = float(analytic[tower][name].reshape(-1)[i])
        if abs(got - numeric) > 1e-7 + rel * (abs(got) + abs(numeric)):
            failures.append(f"grad {tower}.{name}[{i}]: program {got:.9g}, "
                            f"central difference {numeric:.9g}")
    return failures


def check_diagnose(report, model, pool, pair_q, pair_i, epsilon=1e-12, rel=1e-6):
    """`sci diagnose` condition numbers and alignment error against
    eigvalsh of independently computed covariances and a direct
    recomputation."""
    failures = []
    for tower, key in (("query", "cond_q"), ("item", "cond_i")):
        evals = np.linalg.eigvalsh(ref.covariance(ref.encode(model, tower, pool)))
        want = evals[-1] / max(evals[0], epsilon)
        if not _close(report[key], want, rel=1e-4):
            failures.append(f"{key}: diagnose {report[key]:.9g}, eigvalsh {want:.9g}")
    direct = (ref.encode(model, "query", pair_q).astype(np.float64)
              * ref.encode(model, "item", pair_i)).sum(1)
    swapped = (ref.encode(model, "item", pair_q).astype(np.float64)
               * ref.encode(model, "query", pair_i)).sum(1)
    want = float(np.mean((direct - swapped) ** 2))
    if not _close(report["alignment_error"], want, rel=rel, abs_=1e-15):
        failures.append(f"alignment_error: diagnose {report['alignment_error']:.12g}, "
                        f"recomputed {want:.12g}")
    if report["n_pairs"] != len(pair_q):
        failures.append(f"n_pairs {report['n_pairs']} != {len(pair_q)}")
    return failures


# ---------------------------------------------------------------------------
# index


def check_partition(index, corpus_ids, nlist):
    failures = []
    if index.nlist != nlist or len(index.lists) != nlist:
        failures.append(f"{len(index.lists)} lists, expected {nlist}")
    empty = [j for j, ids in enumerate(index.lists) if len(ids) == 0]
    if empty:
        failures.append(f"empty lists {empty[:5]}")
    listed = np.sort(np.concatenate(index.lists)) if index.lists else np.array([])
    if not np.array_equal(listed, np.sort(np.asarray(corpus_ids, dtype=np.uint64))):
        failures.append("lists do not hold every corpus id exactly once")
    return failures


def check_assignment(index, struct_emb, tol=TOL):
    """Every item sits in a list whose centroid is nearest to its
    clustering-space embedding (rows of `struct_emb` indexed by id), up
    to a near tie of `tol`."""
    failures = []
    for j, ids in enumerate(index.lists):
        if len(ids) == 0:
            continue
        d = ref.sq_dists(struct_emb[ids.astype(np.intp)], index.centers)
        worse = d[:, j] > d.min(axis=1) + tol
        if worse.any():
            failures.append(f"list {j}: {int(worse.sum())} items nearer another "
                            f"centroid (e.g. id {int(ids[worse][0])})")
    return failures


def check_flat_payloads(index, item_emb, tol=1e-6):
    failures = []
    for j, (ids, payload) in enumerate(zip(index.lists, index.payloads)):
        want = item_emb[ids.astype(np.intp)]
        if payload.shape != want.shape or not np.allclose(payload, want, rtol=0, atol=tol):
            failures.append(f"list {j}: flat payload differs from item-tower embeddings")
    return failures


def check_pq_codes(index, item_emb, tol=TOL):
    """Every code is < ksub and picks a nearest codeword of its sub-residual
    (item-tower embedding minus the list's centroid)."""
    failures = []
    m, ksub, sub = index.codebooks.shape
    for j, (ids, codes) in enumerate(zip(index.lists, index.payloads)):
        if len(ids) == 0:
            continue
        if codes.max() >= ksub:
            failures.append(f"list {j}: code {int(codes.max())} >= ksub {ksub}")
            continue
        resid = (item_emb[ids.astype(np.intp)].astype(np.float64)
                 - index.centers[j].astype(np.float64)).astype(np.float32)
        for s in range(m):
            d = ref.sq_dists(resid[:, s * sub:(s + 1) * sub], index.codebooks[s])
            picked = d[np.arange(len(ids)), codes[:, s]]
            if np.any(picked > d.min(axis=1) + tol):
                failures.append(f"list {j} subspace {s}: code is not a nearest codeword")
    return failures


def check_roundtrip(ivf, path, copy_path):
    """`ivf.save(ivf.load(f))` reproduces f byte for byte, and loading the
    copy gives the same index."""
    a = ivf.load(path)
    ivf.save(a, copy_path)
    with open(path, "rb") as f1, open(copy_path, "rb") as f2:
        if f1.read() != f2.read():
            return ["save(load(index)) differs from the index file"]
    b = ivf.load(copy_path)
    same = (a.variant, a.mode, a.dim, a.nlist, a.n_items, a.residual_space) == \
        (b.variant, b.mode, b.dim, b.nlist, b.n_items, b.residual_space) \
        and a.centroids == b.centroids and a.codebook == b.codebook \
        and all(np.array_equal(x, y) for x, y in zip(a.list_ids, b.list_ids)) \
        and all(np.array_equal(x, y) for x, y in zip(a.list_payload, b.list_payload))
    return [] if same else ["load(save(index)) != index"]


# ---------------------------------------------------------------------------
# serve


def check_probes(probed, coarse_d, nprobe, tol=TOL):
    """`probed` are the nprobe nearest centroids, nearest first (ties by
    list number), up to near ties of `tol`."""
    want = np.lexsort((np.arange(len(coarse_d)), coarse_d))[:nprobe]
    if list(probed) == [int(j) for j in want]:
        return []
    got_d = coarse_d[np.asarray(probed, dtype=np.intp)]
    if len(probed) == len(want) and np.allclose(got_d, coarse_d[want], rtol=0, atol=tol):
        return []
    return [f"probed lists {list(probed)[:8]} are not the {nprobe} nearest {list(want)[:8]}"]


def check_ranked(ids, scores, cand_ids, cand_d, k, rel=0.0, tol=TOL):
    """`ids`/`scores` are the k best of the candidates (`cand_ids` with
    independently computed distances `cand_d`) by ascending distance, ties
    by ascending id; scores equal the distances to a relative `rel`."""
    failures = []
    ids = np.asarray(ids, dtype=np.uint64)
    scores = np.asarray(scores, dtype=np.float64)
    if len(ids) != min(k, len(cand_ids)):
        return [f"{len(ids)} results, expected {min(k, len(cand_ids))}"]
    if len(ids) == 0:
        return []
    order = np.argsort(cand_ids)
    at = np.searchsorted(cand_ids[order], ids)
    at = np.minimum(at, len(order) - 1)
    rows = order[at]
    if np.any(cand_ids[rows] != ids):
        return [f"result ids {ids[cand_ids[rows] != ids][:3]} are not candidates"]
    if len(np.unique(ids)) != len(ids):
        failures.append("duplicate ids in a result")
    d = cand_d[rows]
    bad = [i for i in range(len(ids)) if not _close(scores[i], d[i], rel, tol)]
    if bad:
        i = bad[0]
        failures.append(f"score of id {int(ids[i])} is {scores[i]:.9g}, "
                        f"distance {d[i]:.9g}")
    if np.any(np.diff(scores) < 0) or np.any(np.diff(d) < -tol):
        failures.append("scores do not ascend")
    tied = (np.diff(scores) == 0) & (np.diff(d) == 0)
    if np.any(tied & (np.diff(ids.astype(np.int64)) < 0)):
        failures.append("exact tie not broken by ascending id")
    missed = np.setdiff1d(cand_ids[cand_d < d[-1] - tol], ids)
    if missed.size:
        failures.append(f"id {int(missed[0])} is nearer than the k-th result "
                        f"but was not returned")
    return failures


def check_metrics(cli_values, own_values, rel=PRINTED_REL):
    failures = []
    for key, want in own_values.items():
        got = cli_values.get(key)
        if got is None or not _close(got, want, rel, 1e-12):
            failures.append(f"{key}: sci eval {got}, recomputed {want:.9g}")
    return failures


def check_sweep_full_probe(sweep, nlist):
    """At nprobe = nlist both build modes scan every item, so the
    standard and ci flat rows must be equal."""
    full = str(nlist)
    keys = [(m, c) for (meth, p, m, c) in sweep if meth == "standard" and p == full]
    if not keys:
        return [f"sweep has no nprobe={nlist} rows"]
    bad = [k for k in keys
           if sweep[("standard", full) + k] != sweep.get(("ci", full) + k)]
    return [f"standard and ci differ at nprobe={nlist}: {bad[:3]}"] if bad else []


def _candidates(index, probed, q_emb_row):
    """ids and independently computed distances of every item in the
    probed lists: L2 to the flat payload, or ADC of the query residual."""
    ids, dists = [], []
    for j in probed:
        if index.variant == "flat":
            d = ref.sq_dists(index.payloads[j], q_emb_row[None, :])[:, 0]
        else:
            qr = (q_emb_row.astype(np.float64)
                  - index.centers[j].astype(np.float64)).astype(np.float32)
            d = ref.adc(index.codebooks, qr, index.payloads[j])
        ids.append(index.lists[j])
        dists.append(d)
    return np.concatenate(ids), np.concatenate(dists)


def check_search_run(index, run, query_ids, q_emb, nprobe, k):
    """Queries of a `sci search` run file: hits are the k best, by
    independent distance, of the items in the nprobe nearest lists."""
    failures = []
    coarse = ref.sq_dists(q_emb, index.centers)
    for row, qid in enumerate(query_ids):
        probed = np.lexsort((np.arange(index.nlist), coarse[row]))[:nprobe]
        cand_ids, cand_d = _candidates(index, probed, q_emb[row])
        ranked = run.get(int(qid), [])
        f = check_ranked([i for i, _ in ranked], [s for _, s in ranked],
                         cand_ids, cand_d, k, rel=PRINTED_REL, tol=1e-7)
        if f:
            failures.append(f"query {int(qid)}: {f[0]}")
    return failures


# ---------------------------------------------------------------------------
# A whole run

SAMPLED_QUERIES = 200   # queries of each run file checked in full


class Inputs:
    """The generated inputs of a run and their independent embeddings."""

    def __init__(self, run):
        d = run.data_dir
        self.items, self.item_ids = ref.read_sciv(os.path.join(d, "items.sciv"))
        self.queries, self.query_ids = ref.read_sciv(os.path.join(d, "queries.sciv"))
        self.qrels = ref.read_qrels(os.path.join(d, "qrels.tsv"))
        self.model = ref.read_scim(run.model_path)
        by_id = np.zeros(int(self.item_ids.max()) + 1, dtype=np.intp)
        by_id[self.item_ids.astype(np.intp)] = np.arange(len(self.item_ids))
        # rows indexed by item id
        self.item_emb = ref.encode(self.model, "item", self.items)[by_id]
        self.struct_emb = ref.encode(self.model, "query", self.items)[by_id]
        self.q_emb = ref.encode(self.model, "query", self.queries)


def check_align(run, rng):
    """The in-memory SGD steps and `sci diagnose`."""
    from sci import training

    out = {}
    mem = run.train_model
    towers = {"query": mem.params_q, "item": mem.params_i}
    q, pos, neg = run.triplets
    before = ref.swap_loss(run.train_init, mem.arch, mem.normalize_output,
                           q, pos, neg, run.margin, run.lam)
    after = ref.swap_loss(towers, mem.arch, mem.normalize_output,
                          q, pos, neg, run.margin, run.lam)
    out["loss_decreased"] = check_loss_decreased(before, after)

    cfg = training.LossConfig(run.margin, run.lam, training.ADDITIVE)
    grad_failures, checked = [], 0
    for b in rng.permutation(len(run.batches)):
        batch = run.batches[b]
        report = training.grad(mem, batch, cfg)
        f = check_grad({"query": report.grad_q, "item": report.grad_i}, towers,
                       mem.arch, mem.normalize_output,
                       (batch.queries, batch.pos_items, batch.neg_items),
                       run.margin, run.lam, rng)
        if f is not None:
            grad_failures += f
            checked += 1
            if checked == 3:
                break
    if checked == 0:
        grad_failures.append("every batch lies near a hinge kink")
    out["grad"] = grad_failures

    # the pairs and the pool `sci diagnose` is documented to use
    items, item_ids = ref.read_sciv(os.path.join(run.diag_dir, "items.sciv"))
    queries, query_ids = ref.read_sciv(os.path.join(run.diag_dir, "queries.sciv"))
    qrels = ref.read_qrels(os.path.join(run.diag_dir, "qrels.tsv"))
    with open(run.path("diagnose.json")) as fh:
        report = json.load(fh)
    n = min(len(queries), len(items))
    pool = np.concatenate([queries[:n], items[:n]])
    qrow = {int(i): r for r, i in enumerate(query_ids)}
    irow = {int(i): r for r, i in enumerate(item_ids)}
    pairs = np.array([(qrow[qid], irow[item]) for qid in sorted(qrels)
                      for item, grade in sorted(qrels[qid].items())
                      if grade >= 1 and qid in qrow and item in irow], dtype=np.intp)
    out["diagnose"] = check_diagnose(report, ref.read_scim(run.diag_model_path), pool,
                                     queries[pairs[:, 0]], items[pairs[:, 1]])
    return out


def check_index(run, inputs):
    """The two ci builds written by `sci build-index`."""
    from sci import ivf

    out = {}
    indexes = {v: ref.read_scix(run.path(f"{v}.scix")) for v in ("flat", "pq")}
    for name, index in indexes.items():
        out[f"{name}_partition"] = check_partition(index, inputs.item_ids,
                                                   run.scale.nlist)
        out[f"{name}_assignment"] = check_assignment(index, inputs.struct_emb)
        out[f"{name}_roundtrip"] = check_roundtrip(ivf, run.path(f"{name}.scix"),
                                                   run.path(f"{name}-copy.scix"))
    out["flat_payloads"] = check_flat_payloads(indexes["flat"], inputs.item_emb)
    out["pq_codes"] = check_pq_codes(indexes["pq"], inputs.item_emb)
    return out, indexes


def check_serve(run, inputs, indexes, rng):
    """Single-query search, the `sci search` run files, `sci eval` and
    `sci sweep`."""
    from sci import ivf

    out = {}
    flat = indexes["flat"]
    prog_flat = ivf.load(run.path("flat.scix"))
    all_ids = np.concatenate(flat.lists)
    all_emb = inputs.item_emb[all_ids.astype(np.intp)]
    coarse = ref.sq_dists(inputs.q_emb, flat.centers)
    exact, probes = [], []
    for row in rng.choice(len(inputs.queries), size=min(20, len(inputs.queries)),
                          replace=False):
        q, qe = inputs.queries[row], inputs.q_emb[row]
        r = ivf.search(prog_flat, run.model, q, flat.nlist, run.k)
        exact += check_ranked([i for i, _ in r.ranked], [s for _, s in r.ranked],
                              all_ids, ref.sq_dists(all_emb, qe[None, :])[:, 0], run.k)
        r = ivf.search(prog_flat, run.model, q, run.nprobe, run.k)
        probes += check_probes(r.probed_clusters, coarse[row], run.nprobe)
        cand_ids, cand_d = _candidates(flat, r.probed_clusters, qe)
        probes += check_ranked([i for i, _ in r.ranked], [s for _, s in r.ranked],
                               cand_ids, cand_d, run.k)
    out["exact_full_probe"] = exact
    out["probed_lists"] = probes

    rows = np.sort(rng.choice(len(inputs.queries),
                              size=min(SAMPLED_QUERIES, len(inputs.queries)),
                              replace=False))
    for name, index in indexes.items():
        ran = ref.read_run(run.path(f"run_{name}.tsv"))
        if sorted(ran) != sorted(int(i) for i in inputs.query_ids):
            out[f"search_{name}"] = ["run file does not cover every query"]
            continue
        out[f"search_{name}"] = check_search_run(index, ran, inputs.query_ids[rows],
                                                 inputs.q_emb[rows], run.nprobe, run.k)

    qrels_path = os.path.join(run.data_dir, "qrels.tsv")
    if run.cli_ok(["eval", "--run", run.path("run_flat.tsv"), "--qrels", qrels_path,
                   "--k", "1,10", "--out", run.path("eval.csv")]):
        got = {(m, int(c)): v for (m, c), v in
               ref.read_metric_csv(run.path("eval.csv"), ("metric", "cutoff")).items()}
        ranked = {q: [i for i, _ in r] for q, r in
                  ref.read_run(run.path("run_flat.tsv")).items()}
        out["eval"] = check_metrics(got, ref.ir_metrics(ranked, inputs.qrels, (1, 10)))
    else:
        out["eval"] = ["sci eval failed"]
    sweep = ref.read_metric_csv(run.path("sweep.csv"),
                                ("method", "nprobe", "metric", "cutoff"))
    out["sweep_full_probe"] = check_sweep_full_probe(sweep, run.scale.nlist)
    return out


def check_run(run):
    """Apply every check to the outputs a workload run left behind.
    Returns {check name: failure messages}."""
    rng = np.random.Generator(np.random.PCG64(run.seed))
    inputs = Inputs(run)
    out = check_align(run, rng)
    index_out, indexes = check_index(run, inputs)
    out.update(index_out)
    out.update(check_serve(run, inputs, indexes, rng))
    return out
