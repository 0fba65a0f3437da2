"""Single `sci` executable orchestrating the full pipeline.

Subcommands: gen-data, train, diagnose, build-index, search, eval, sweep.
Every command takes --seed and is fully deterministic: identical flags and
seed produce byte-identical primary output files. Timings and counters are
printed to stderr so primary outputs stay clean.

The environment variable SCI_THREADS caps numeric-library worker threads
(0 or unset = library default); the cap is applied on `import sci`.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import time

import numpy as np

from . import data_io, diagnostics, encoder, evaluation, ivf, training
from .core import make_rng
from .errors import SciError

# Defaults that the flags take from the library rather than restate.
_LOSS = training.LossConfig()
_BUILD = {name: p.default
          for name, p in inspect.signature(ivf.build).parameters.items()}
# Triplet rows as gen-data writes them, in TripletBatch field order.
_TRIPLET_FILES = ("triplets_q.sciv", "triplets_pos.sciv", "triplets_neg.sciv")


def _int_list(text):
    values = [int(t) for t in text.split(",") if t]
    if not values or min(values) < 1:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of integers >= 1, got {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sci",
        description="Symmetric dual-tower training and consistent IVF indexing.")
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags shared by several commands, each declared once.
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0)
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--model", required=True)
    # Desk-scale defaults; production-scale reference values are nlist=4096,
    # nprobe=64, M=64 with 256 codewords per sub-quantizer.
    index = argparse.ArgumentParser(add_help=False, parents=[model])
    index.add_argument("--items", required=True, help="items .sciv file")
    index.add_argument("--variant", choices=("flat", "pq"), default="flat")
    index.add_argument("--nlist", type=int, default=16)
    index.add_argument("--pq-m", type=int, default=_BUILD["pq_m"])
    index.add_argument("--pq-ksub", type=int, default=_BUILD["pq_ksub"])
    index.add_argument("--residual-space", choices=("repr", "struct"),
                       default=_BUILD["residual_space"])

    def command(name, text, *parents):
        return sub.add_parser(name, help=text, parents=[*parents, seed])

    p = command("gen-data", "generate a synthetic benchmark")
    p.add_argument("--items", type=int, required=True)
    p.add_argument("--queries", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--clusters", type=int, required=True)
    p.add_argument("--misalign", type=float, required=True,
                   help="item-feature rotation angle in radians")
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--out", required=True, help="output directory")

    p = command("train", "train a dual-tower model")
    p.add_argument("--data", required=True, help="gen-data output directory")
    p.add_argument("--arch", choices=("linear", "mlp1"), default="linear")
    p.add_argument("--hidden", type=int, default=32,
                   help="hidden width for mlp1")
    p.add_argument("--out-dim", type=int, default=0,
                   help="embedding dim (0 = input dim)")
    p.add_argument("--lambda", dest="lambda_weight", type=float,
                   default=_LOSS.lambda_weight)
    p.add_argument("--margin", type=float, default=_LOSS.margin_delta)
    p.add_argument("--mode", choices=("convex", "additive"),
                   default=_LOSS.combine_mode)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--raw-scores", action="store_true",
                   help="disable output L2 normalization")
    p.add_argument("--out", required=True, help="model file (.scim)")
    p.add_argument("--history", default="",
                   help="history CSV path (default: <out>.history.csv)")

    p = command("diagnose", "alignment/anisotropy/pair-stat report", model)
    p.add_argument("--data", required=True, help="gen-data output directory")
    p.add_argument("--out", default="", help="JSON path (default: stdout)")

    p = command("build-index", "build an IVF index", index)
    p.add_argument("--mode", choices=("standard", "ci"), default="ci")
    p.add_argument("--out", required=True, help="index file (.scix)")

    p = command("search", "query an index", model)
    p.add_argument("--index", required=True)
    p.add_argument("--queries", required=True, help="queries .sciv file")
    p.add_argument("--nprobe", type=int, default=4)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--out", required=True, help="run TSV path")

    p = command("eval", "score a run against qrels")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--k", type=_int_list, default=[1, 10])
    p.add_argument("--out", default="", help="CSV path (default: stdout)")

    p = command("sweep", "standard-vs-ci nprobe sweep", index)
    p.add_argument("--queries", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--nprobe", type=_int_list, default=[1, 2, 4, 8, 16])
    p.add_argument("--k", type=_int_list, default=[1, 10])
    p.add_argument("--out", required=True, help="sweep CSV path")
    return parser


def _emit(text, path) -> None:
    if path:
        with data_io.atomic_open(path) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_csv(header, rows, path) -> None:
    """A CSV document: the header, then one line per row whose last field is
    a value written with six significant digits."""
    lines = [header] + [",".join(map(str, keys)) + f",{value:.6g}"
                        for *keys, value in rows]
    _emit("\n".join(lines) + "\n", path)


def _cmd_gen_data(args) -> int:
    spec = data_io.SyntheticSpec(args.items, args.queries, args.dim,
                                 args.clusters, args.misalign, args.noise,
                                 args.seed)
    data = data_io.gen_synthetic(spec)
    os.makedirs(args.out, exist_ok=True)
    join = lambda name: os.path.join(args.out, name)
    data_io.write_vectors(join("items.sciv"), data.item_features, data.item_ids)
    data_io.write_vectors(join("queries.sciv"), data.query_features,
                          data.query_ids)
    columns = zip(*((b.queries, b.pos_items, b.neg_items)
                    for b in data.triplets))
    for name, rows in zip(_TRIPLET_FILES, columns):
        data_io.write_vectors(join(name), np.concatenate(rows))
    data_io.write_qrels(join("qrels.tsv"), data.qrels)
    return 0


def _cmd_train(args) -> int:
    batches = training.TripletBatch.batches(*(
        data_io.read_vectors(os.path.join(args.data, name))[0]
        for name in _TRIPLET_FILES))
    if not batches:
        raise ValueError(f"no triplets in {args.data}")
    input_dim = batches[0].queries.shape[1]
    out_dim = args.out_dim or input_dim
    model = encoder.init(args.arch, input_dim, out_dim, make_rng(args.seed),
                         hidden_dim=args.hidden,
                         normalize_output=not args.raw_scores)
    loss_cfg = training.LossConfig(args.margin, args.lambda_weight, args.mode)
    cfg = training.TrainConfig(args.epochs, args.lr, args.seed, loss_cfg)
    t0 = time.perf_counter()
    model, history = training.train(model, batches, cfg)
    elapsed = time.perf_counter() - t0
    data_io.save_model(args.out, model)
    data_io.write_history_csv(args.history or args.out + ".history.csv",
                              history)
    print(f"trained {args.epochs} epochs in {elapsed:.2f}s, "
          f"forward passes: {model.encode_calls}", file=sys.stderr)
    return 0


def _cmd_diagnose(args) -> int:
    model = data_io.load_model(args.model)
    items, item_ids = data_io.read_vectors(
        os.path.join(args.data, "items.sciv"))
    queries, query_ids = data_io.read_vectors(
        os.path.join(args.data, "queries.sciv"))
    qrels = data_io.read_qrels(os.path.join(args.data, "qrels.tsv"))
    id_to_row = {int(i): r for r, i in enumerate(item_ids)}
    qid_to_row = {int(i): r for r, i in enumerate(query_ids)}
    q_rows, i_rows = [], []
    for qid in sorted(qrels):
        for item, grade in sorted(qrels[qid].items()):
            if grade >= 1 and qid in qid_to_row and item in id_to_row:
                q_rows.append(qid_to_row[qid])
                i_rows.append(id_to_row[item])
    n = min(len(queries), len(items))  # the pool: as many of each kind
    report = diagnostics.diagnose(model, queries, items,
                                  np.array((q_rows, i_rows), dtype=np.intp).T,
                                  np.concatenate([queries[:n], items[:n]]))
    _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _build(args, model, ids, feats, mode):
    """`ivf.build` with the index flags that build-index and sweep share."""
    return ivf.build(model, ids, feats, mode, args.variant, args.nlist,
                     make_rng(args.seed), pq_m=args.pq_m, pq_ksub=args.pq_ksub,
                     residual_space=args.residual_space)


def _cmd_build_index(args) -> int:
    model = data_io.load_model(args.model)
    feats, ids = data_io.read_vectors(args.items)
    calls_before = model.encode_calls
    t0 = time.perf_counter()
    index = _build(args, model, ids, feats, args.mode)
    elapsed = time.perf_counter() - t0
    ivf.save(index, args.out)
    print(f"built {args.mode}/{args.variant} index over {index.n_items} items "
          f"in {elapsed:.2f}s: nlist={index.nlist}, "
          f"encode passes={model.encode_calls - calls_before}",
          file=sys.stderr)
    if index.mean_reconstruction_error is not None:
        print(f"mean residual reconstruction error: "
              f"{index.mean_reconstruction_error:.6g}", file=sys.stderr)
    return 0


def _cmd_search(args) -> int:
    model = data_io.load_model(args.model)
    index = ivf.load(args.index)
    queries, query_ids = data_io.read_vectors(args.queries)
    t0 = time.perf_counter()
    results = ivf.search_batch(index, model, queries, args.nprobe, args.k)
    elapsed = time.perf_counter() - t0
    rows = [(qid, rank, item, score)
            for qid, result in zip(query_ids.tolist(), results)
            for rank, (item, score) in enumerate(result.ranked, start=1)]
    probed_total = sum(len(result.probed_clusters) for result in results)
    data_io.write_run(args.out, rows)
    print(f"searched {len(queries)} queries in {elapsed:.2f}s "
          f"({probed_total // max(len(queries), 1)} lists probed per query)",
          file=sys.stderr)
    return 0


def _cmd_eval(args) -> int:
    run = data_io.read_run(args.run)
    qrels = data_io.read_qrels(args.qrels)
    report = evaluation.evaluate(run, qrels, args.k)
    _emit_csv("metric,cutoff,value",
              [(*key.split("@"), report.values[key])
               for key in sorted(report.values)], args.out)
    print(f"{report.n_queries} queries, {report.n_skipped} skipped "
          f"(no relevant items)", file=sys.stderr)
    return 0


def _cmd_sweep(args) -> int:
    model = data_io.load_model(args.model)
    feats, ids = data_io.read_vectors(args.items)
    queries, query_ids = data_io.read_vectors(args.queries)
    qrels = data_io.read_qrels(args.qrels)
    index_std, index_ci = (_build(args, model, ids, feats, mode)
                           for mode in (ivf.STANDARD, ivf.CI))
    result = evaluation.nprobe_sweep(index_std, index_ci, model, query_ids,
                                     queries, qrels, args.nprobe, args.k)
    _emit_csv("method,nprobe,metric,cutoff,value",
              [(*key, value) for key, value in result.values.items()],
              args.out)
    for metric, cutoff, np_std, np_ci in result.matches:
        reached = f"nprobe={np_ci}" if np_ci is not None else "not reached"
        print(f"{metric}@{cutoff}: ci matches standard@nprobe={np_std} "
              f"at {reached}", file=sys.stderr)
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "diagnose": _cmd_diagnose,
    "build-index": _cmd_build_index,
    "search": _cmd_search,
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
}


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (SciError, OSError, ValueError) as exc:
        print(f"sci: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
