"""Command-line surface: vocab building, training, decoding, evaluation.

Heavy imports happen inside the command handlers so the QATIP_THREADS cap
below is in place before any numerics library starts its thread pool.
Every failure exits nonzero after printing one JSON error record to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

from .config import (
    ARCHES, TOKENIZE_MODES, VARIANTS, ConfigError, RunConfig, load_run_config, model_config_from_run,
    run_config_from_dict,
)

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _cap_threads() -> None:
    cap = os.environ.get("QATIP_THREADS")
    if cap:
        for var in _THREAD_VARS:
            os.environ.setdefault(var, cap)


_cap_threads()


class CliError(ValueError):
    pass


def _read_generated(path: str) -> list[dict]:
    from .corpus import read_jsonl

    rows = []
    for lineno, row in read_jsonl(path, CliError):
        if "id" not in row or "tip" not in row:
            raise CliError(f"{path} line {lineno}: expected fields id and tip")
        if not isinstance(row["tip"], str):
            raise CliError(f"{path} line {lineno}: tip must be a string, got {json.dumps(row['tip'])}")
        rows.append(row)
    return rows


def cmd_build_vocab(args) -> int:
    from .corpus import load_jsonl, vocab_from_records

    records = load_jsonl(args.data, inference=True)
    vocab = vocab_from_records(
        records, mode=args.mode, min_freq=args.min_freq, max_size=args.max_size
    )
    vocab.save(args.out)
    print(vocab.size)
    return 0


def _load_training_config(args):
    config = load_run_config(args.config) if args.config else RunConfig()
    overrides = {}
    for key in ("arch", "variant", "data", "vocab", "epochs", "lr", "seed"):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    if getattr(args, "batch", None) is not None:
        overrides["batch_size"] = args.batch
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return config.validate()


def cmd_train(args) -> int:
    from .corpus import DatasetError, Vocabulary, encode_records, load_jsonl, split_dataset
    from .models import FAMILIES
    from .train import train_model

    config = _load_training_config(args)
    if not config.data:
        raise CliError("a training data path is required (config key data or --data)")
    if not config.vocab:
        raise CliError("a vocabulary path is required (config key vocab or --vocab)")
    vocab = Vocabulary.load(config.vocab)
    try:  # the model's own rule (say, heads dividing the width), before the dataset is read
        model_config = model_config_from_run(config, vocab.size)
    except ValueError as exc:
        raise ConfigError(f"invalid model settings: {exc}") from None
    records = load_jsonl(config.data)
    if not records:
        raise DatasetError(f"{config.data}: no training records")
    triplets = encode_records(
        records,
        vocab,
        review_max_len=config.review_max_len,
        query_max_len=config.query_max_len,
        tip_max_len=config.tip_max_len,
        mode=config.tokenize_mode,
    )
    if config.split_data and len(triplets) >= 10:
        split = split_dataset(triplets, config.seed)
        train_set, valid_set = split.train, split.valid
    else:
        train_set = valid_set = triplets
    model = FAMILIES[config.arch](model_config, seed=config.seed)
    result = train_model(
        model,
        train_set,
        valid_set,
        config,
        out_dir=args.out,
        log=lambda stats: print(stats.record()),
        vocab_fingerprint=vocab.fingerprint(),
    )
    print(
        json.dumps(
            {
                "best_epoch": result.best_epoch,
                "best_checkpoint": result.best_path,
                "final_checkpoint": result.final_path,
            }
        )
    )
    return 0


def cmd_generate(args) -> int:
    from .checkpoint import load_checkpoint
    from .corpus import UNK_ID, Vocabulary, encode_records, load_jsonl, write_jsonl
    from .generation import BeamConfig, batch_generate

    model, snapshot = load_checkpoint(args.checkpoint)
    vocab = Vocabulary.load(args.vocab)
    if vocab.size != model.config.vocab_size:
        raise CliError(
            f"vocabulary has {vocab.size} tokens but checkpoint expects "
            f"{model.config.vocab_size}"
        )
    # checkpoints written before the fingerprint was stored keep the size check only
    trained_on = snapshot.get("vocab_sha256")
    if trained_on is not None and trained_on != vocab.fingerprint():
        raise CliError(
            f"vocabulary {args.vocab} has the checkpoint's {vocab.size} tokens but not its "
            f"token list (sha256 {vocab.fingerprint()[:12]}, trained on {trained_on[:12]})"
        )
    # the run the checkpoint was trained with; command-line flags override it
    run = run_config_from_dict(snapshot.get("run", {}), check_paths=False)
    mode = args.mode or run.tokenize_mode
    records = load_jsonl(args.data, inference=True)
    triplets = encode_records(
        records,
        vocab,
        review_max_len=run.review_max_len,
        query_max_len=run.query_max_len,
        tip_max_len=run.tip_max_len,
        mode=mode,
        inference=True,
    )
    beam = BeamConfig(
        max_len=run.tip_max_len if args.max_len is None else args.max_len,
        width=run.beam_width if args.beam is None else args.beam,
        alpha=run.length_alpha if args.alpha is None else args.alpha,
        ban_tokens=() if args.keep_unk else (UNK_ID,),
    )
    start = time.perf_counter()
    try:
        results = batch_generate(model, triplets, beam, vocab, mode=mode)
    except ValueError as exc:  # settings no record can decode under
        raise CliError(str(exc)) from None
    seconds = time.perf_counter() - start
    write_jsonl([{"id": r.record_id, "tip": r.tip or ""} for r in results], args.out)
    errors = [r.error for r in results if r.error]
    decoded = [r for r in results if not r.error]
    summary = {
        "records": len(results),
        "failed": len(errors),
        "seconds": seconds,
        "records_per_s": len(results) / seconds,
        "mean_steps": sum(r.steps for r in decoded) / len(decoded) if decoded else None,
        "finish": {reason: sum(r.finish == reason for r in decoded) for reason in ("eos", "max_len")},
    }
    print(json.dumps(summary), file=sys.stderr)
    if errors:
        raise CliError(f"{len(errors)} records failed, first: {errors[0]}")
    return 0


def cmd_evaluate(args) -> int:
    from .corpus import Triplet, load_jsonl, write_jsonl
    from .evaluation import evaluate_run

    refs = load_jsonl(args.ref)
    triplets = [
        Triplet((), (), (), r["review"], r["query"], r["tip"], r.get("id"))
        for r in refs
    ]
    generated = _read_generated(args.hyp)
    table = None
    if args.embeddings:
        from .embeddings import load_embeddings

        table = load_embeddings(args.embeddings)
    report = evaluate_run(
        generated, triplets, table, multiset_lexicon=args.multiset_lexicon,
        mode=args.mode,
    )
    print(report.format_table())
    if args.out:
        write_jsonl([report.to_dict()], args.out)
    return 0


def cmd_baseline(args) -> int:
    from .baselines import Bm25Params, extract_bm25, extract_embed, query_lead
    from .corpus import load_jsonl, write_jsonl

    records = load_jsonl(args.data, inference=True)
    if args.method == "embed":
        if not args.embeddings:
            raise CliError("--embeddings is required for the embed method")
        from .embeddings import load_embeddings

        table = load_embeddings(args.embeddings)
    rows = []
    for i, rec in enumerate(records):
        review, query = rec["review"], rec["query"]
        if args.method == "query_lead":
            tip = query_lead(review, query, strict=args.strict, mode=args.mode)
        elif args.method == "bm25":
            tip = extract_bm25(
                review, query, Bm25Params(k1=args.k1, b=args.b), mode=args.mode
            )
        else:
            tip = extract_embed(review, query, table, mode=args.mode)
        rows.append({"id": rec.get("id") or str(i), "tip": tip})
    write_jsonl(rows, args.out)
    print(len(rows))
    return 0


def cmd_gradcheck(args) -> int:
    from .gradcheck import format_report, run_gradient_suite

    results = run_gradient_suite(repeats=args.repeats, include_models=not args.skip_models)
    print(format_report(results))
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qatip",
        description="query-conditioned review tip generation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-vocab", help="build a vocabulary file from a dataset")
    p.add_argument("--data", required=True, help="jsonl dataset path")
    p.add_argument("--min-freq", type=int, default=1)
    p.add_argument("--max-size", type=int, default=50000)
    p.add_argument("--mode", default="whitespace", choices=TOKENIZE_MODES)
    p.add_argument("--out", required=True, help="vocabulary file to write")
    p.set_defaults(func=cmd_build_vocab)

    p = sub.add_parser("train", help="train a model and save checkpoints")
    p.add_argument("--config", help="JSON run-config path")
    p.add_argument("--arch", choices=ARCHES)
    p.add_argument("--variant", choices=VARIANTS)
    p.add_argument("--data", help="training jsonl path (overrides config)")
    p.add_argument("--vocab", help="vocabulary path (overrides config)")
    p.add_argument("--out", required=True, help="directory for best/final checkpoints")
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="decode tips for a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--beam", type=int, help="beam width (default: the run's beam_width)")
    p.add_argument("--max-len", type=int, help="tip length cap (default: the run's tip_max_len)")
    p.add_argument("--alpha", type=float, help="length penalty (default: the run's length_alpha)")
    p.add_argument("--keep-unk", action="store_true", help="allow UNK in output")
    p.add_argument("--mode", default=None, choices=TOKENIZE_MODES)
    p.add_argument("--out", required=True, help="jsonl output path")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate", help="score generated tips against references")
    p.add_argument("--hyp", required=True, help="generated jsonl ({id, tip} lines)")
    p.add_argument("--ref", required=True, help="reference dataset jsonl")
    p.add_argument("--embeddings", help="word2vec text file for the semantic metric")
    p.add_argument("--multiset-lexicon", action="store_true")
    p.add_argument("--mode", default="whitespace", choices=TOKENIZE_MODES)
    p.add_argument("--out", help="JSON report path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("baseline", help="run an extractive baseline over a dataset")
    p.add_argument("--method", required=True, choices=["query_lead", "bm25", "embed"])
    p.add_argument("--data", required=True)
    p.add_argument("--embeddings", help="needed for --method embed")
    p.add_argument("--strict", action="store_true", help="disable the any-token tier")
    p.add_argument("--k1", type=float, default=1.2)
    p.add_argument("--b", type=float, default=0.75)
    p.add_argument("--mode", default="whitespace", choices=TOKENIZE_MODES)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("gradcheck", help="finite-difference check of every op and model")
    p.add_argument("--repeats", type=int, default=20)
    p.add_argument("--skip-models", action="store_true")
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        record = {
            "error": type(exc).__name__,
            "message": str(exc),
            "command": getattr(args, "command", None),
        }
        print(json.dumps(record, ensure_ascii=False), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
