"""End-to-end gates, one printed verdict line per capability area.

Each test prints a single PASS/FAIL summary to the real stdout (visible even
under capture) and then asserts.  Training-based gates run scaled-down
configurations with fixed seeds; every number here is deterministic.
"""

import functools
import json
import math
import random
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from bleu_ref import reference_bleu
from decoding_refs import TableModel, exhaustive_search
from qatip.baselines import (
    bm25_score,
    build_sentence_index,
    extract_bm25,
    extract_embed,
    query_lead,
    split_sentences,
)
from qatip.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from qatip.cli import main
from qatip.config import RunConfig
from qatip.corpus import (
    DatasetError,
    detokenize,
    encode_records,
    load_jsonl,
    make_batches,
    split_dataset,
    vocab_from_records,
)
from qatip.embeddings import EmbeddingTable, load_embeddings
from qatip.evaluation import bleu_corpus, lexicon_score, semantic_score
from qatip.generation import BeamConfig, beam_search, greedy_decode
from qatip.gradcheck import run_gradient_suite
from qatip.rnn import QaRnnModel, RnnConfig
from qatip.synthetic import overfit_corpus, pipeline_corpus, query_sensitivity_corpus
from qatip.train import mean_loss, train_model
from qatip.transformer import QaTransformerModel, TransformerConfig

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

_EMIT = None


@pytest.fixture(autouse=True)
def _verdict_channel(capsys):
    """Write verdict lines past pytest's capture so they always show."""
    global _EMIT

    def emit(line):
        with capsys.disabled():
            print(line, flush=True)

    _EMIT = emit
    yield
    _EMIT = None


def announce(area, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {area}: {detail}"
    if _EMIT is None:
        print(line, file=sys.__stdout__, flush=True)
    else:
        _EMIT(line)


def gate(area):
    """Print the verdict line even when the body raises, then assert."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                ok, detail = fn(*args, **kwargs)
            except BaseException as exc:
                announce(area, False, f"raised {type(exc).__name__}: {exc}")
                raise
            announce(area, ok, detail)
            assert ok, f"{area}: {detail}"

        return run

    return wrap


def check_every(k, predicate):
    """A ``train_model`` epoch callback that stops training once ``predicate()`` holds, asked every ``k`` epochs."""
    return lambda stats: (stats.epoch + 1) % k == 0 and predicate()


def exact_match_rate(model, triplets, vocab, max_len):
    hits = 0
    for trip in triplets:
        ids = greedy_decode(model, trip.review_ids, trip.query_ids, max_len=max_len)
        hits += detokenize(vocab.decode(ids)) == trip.raw_tip
    return hits / len(triplets)


def first_token_accuracy(model, triplets):
    hits = 0
    for trip in triplets:
        ids = greedy_decode(model, trip.review_ids, trip.query_ids, max_len=3)
        hits += bool(ids) and ids[0] == trip.tip_ids[1]
    return hits / len(triplets)


# ------------------------------------------------------------------ gate 1


@gate("gradient suite")
def test_gradient_suite_is_green():
    started = time.perf_counter()
    results = run_gradient_suite()
    elapsed = time.perf_counter() - started
    worst = max(r.max_err for r in results)
    ok = all(r.passed for r in results) and elapsed < 120.0
    return ok, (
        f"{len(results)} checks, worst rel err {worst:.1e}, {elapsed:.1f}s"
    )


# ------------------------------------------------------------------ gate 2


@gate("memorization")
def test_models_memorize_small_corpus():
    records = overfit_corpus(64, seed=13)
    vocab = vocab_from_records(records)
    triplets = encode_records(records, vocab, 12, 3, 8)
    full = make_batches(triplets, 64)
    builders = {
        "transformer": lambda: QaTransformerModel(
            TransformerConfig(
                vocab.size, model_dim=64, num_heads=4, num_layers=2,
                dropout=0.0, variant="both", max_len=32,
            ),
            seed=1,
        ),
        "rnn": lambda: QaRnnModel(
            RnnConfig(vocab.size, emb_dim=64, hidden_dim=64, variant="both",
                      dropout=0.0),
            seed=1,
        ),
    }
    caps = {"transformer": 300, "rnn": 500}
    ok = True
    parts = []
    for arch, build in builders.items():
        started = time.perf_counter()
        model = build()
        result = train_model(
            model, triplets, [],
            RunConfig(arch=arch, variant="both", epochs=caps[arch], lr=0.001, batch_size=16, seed=7),
            log=check_every(20, lambda: mean_loss(model, full) < 0.05),
        )
        used = len(result.history)
        loss = mean_loss(model, full)
        rate = exact_match_rate(model, triplets, vocab, max_len=8)
        elapsed = time.perf_counter() - started
        ok = ok and loss < 0.1 and rate >= 0.90 and elapsed < 600.0
        parts.append(
            f"{arch} loss {loss:.3f} exact {rate:.2f} ({used} epochs, {elapsed:.0f}s)"
        )
    return ok, "; ".join(parts)


# ------------------------------------------------------------------ gate 3


def query_sensitivity_data():
    """The query-sensitivity corpus, 8 queries with 8 reviews each: (vocabulary size, triplets)."""
    records = query_sensitivity_corpus(8, 8, seed=29)
    vocab = vocab_from_records(records)
    return vocab.size, encode_records(records, vocab, 12, 2, 3)


def run_one(arch, variant, seed, vocab_size, triplets, dtype=np.float32):
    """First-token accuracy of one query-sensitivity model after its training, and the epochs it trained.

    vanilla trains 60 epochs; the query-aware variants train until a
    first-token accuracy of 0.95, checked every 20 epochs, or the cap
    (400 epochs for the transformer, 700 for the BiLSTM).
    """
    if arch == "transformer":
        model = QaTransformerModel(
            TransformerConfig(
                vocab_size, model_dim=32, num_heads=2, num_layers=1,
                dropout=0.0, variant=variant, max_len=16,
            ),
            seed=seed, dtype=dtype,
        )
        cap = 400
    else:
        model = QaRnnModel(
            RnnConfig(vocab_size, emb_dim=16, hidden_dim=16,
                      variant=variant, dropout=0.0),
            seed=seed, dtype=dtype,
        )
        cap = 700
    if variant == "vanilla":
        cap, stop = 60, None
    else:
        stop = check_every(20, lambda: first_token_accuracy(model, triplets) >= 0.95)
    result = train_model(
        model, triplets, [],
        RunConfig(arch=arch, variant=variant, epochs=cap, lr=0.005, batch_size=16, seed=seed),
        log=stop,
    )
    return first_token_accuracy(model, triplets), len(result.history)


@gate("query sensitivity")
def test_query_conditioning_separates_variants():
    vocab_size, triplets = query_sensitivity_data()
    floor = 8 / 64  # one tip class per query, uniform
    started = time.perf_counter()

    ok = True
    parts = []
    for arch in ("transformer", "rnn"):
        for variant in ("vanilla", "qa_enc", "qa_dec", "both"):
            accs = [run_one(arch, variant, seed, vocab_size, triplets)[0] for seed in (11, 22, 33)]
            if variant == "vanilla":
                good = all(a <= floor + 0.05 for a in accs)
            else:
                good = sum(a >= 0.95 for a in accs) >= 2
            ok = ok and good
            parts.append(
                f"{arch[:5]}/{variant} " + ",".join(f"{a:.2f}" for a in accs)
            )
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 900.0
    return ok, "; ".join(parts) + f"; {elapsed:.0f}s"


# ------------------------------------------------------------------ gate 4


@gate("decoding oracle")
def test_beam_matches_exhaustive_oracle():
    started = time.perf_counter()
    ok = True
    for seed in range(20):
        model = TableModel(vocab_size=5, seed=100 + seed)
        best = beam_search(model, (9,), (3,), BeamConfig(max_len=3, width=8))[0]
        oracle_ids, oracle_score = exhaustive_search(model, (9,), (3,), max_len=3)[0]
        ok = ok and best.ids == oracle_ids
        ok = ok and abs(best.log_prob - oracle_score) < 1e-10
        narrow = beam_search(model, (9,), (3,), BeamConfig(max_len=3, width=1))[0]
        ok = ok and narrow.surface == greedy_decode(model, (9,), (3,), max_len=3)
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 60.0
    return ok, f"20 fixed-logit toys, width 1 equals greedy, {elapsed:.1f}s"


# ------------------------------------------------------------------ gate 5


@gate("metric oracles")
def test_metrics_match_reference_values():
    rng = random.Random(909)
    vocab = list("abcdefg")
    worst = 0.0
    for _ in range(10):
        n = rng.randint(1, 8)
        hyps = [[rng.choice(vocab) for _ in range(rng.randint(0, 9))] for _ in range(n)]
        refs = [[rng.choice(vocab) for _ in range(rng.randint(1, 9))] for _ in range(n)]
        if all(len(h) == 0 for h in hyps):
            hyps[0] = ["a"]
        worst = max(worst, abs(bleu_corpus(hyps, refs) - reference_bleu(hyps, refs)))
    ok = worst < 1e-6

    table = EmbeddingTable(
        {
            "a": np.array([1.0, 0.0]),
            "b": np.array([0.5, 2.0]),
            "c": np.array([-1.0, 0.25]),
            "q1": np.array([2.0, 0.5]),
            "q2": np.array([0.0, 1.0]),
        },
        dim=2,
    )
    # tip pools to [1, 2], query pools to [2, 1]: cosine is exactly 4/5
    ok = ok and abs(semantic_score(["a", "b", "c"], ["q1", "q2"], table) - 0.8) < 1e-9
    ok = ok and abs(lexicon_score(["x", "a", "b"], ["a", "b", "c"]) - 2 / 3) < 1e-9
    ok = ok and abs(
        lexicon_score(["a", "x"], ["a", "a", "b"], multiset=True) - 1 / 3
    ) < 1e-9
    identical = bleu_corpus([["good", "cake"], ["a"]], [["good", "cake"], ["a"]])
    ok = ok and identical == 1.0
    return ok, (
        f"10 random corpora within {worst:.1e} of reference, hand values to 1e-9, "
        "identical corpus scores 100.0 exactly"
    )


# ------------------------------------------------------------------ gate 6


LEAD_REVIEW = "fine place overall. the cake was lovely. service slow today."
LEAD_CASES = [
    ("s1 s1. cake here.", "cake", False, "cake here."),
    (LEAD_REVIEW, "parking", False, "fine place overall."),
    (LEAD_REVIEW, "cake parking", False, "the cake was lovely."),
    (LEAD_REVIEW, "cake parking", True, "fine place overall."),
    ("the good cake. plain text. the cake stands.", "the cake", False,
     "the cake stands."),
    (LEAD_REVIEW, "", False, "fine place overall."),
]


@gate("baseline oracles")
def test_extractive_baselines_follow_rules():
    started = time.perf_counter()
    single = build_sentence_index("cake")
    ok = abs(bm25_score(["cake"], ["cake"], single) - math.log(4 / 3)) < 1e-9

    hand = build_sentence_index(
        "good cake here. bad service now. cake cake cake yes. nothing else matters."
    )
    scores = [bm25_score(t, ["cake"], hand) for t in hand.token_lists]
    ok = ok and abs(scores[0] - 0.7156682080871637) < 1e-9
    ok = ok and abs(scores[2] - 1.0379062494248394) < 1e-9
    ok = ok and scores[1] == 0.0 and scores[3] == 0.0

    for review, query, strict, expected in LEAD_CASES:
        ok = ok and query_lead(review, query, strict=strict) == expected

    words = ["cake", "tea", "room", "good", "bad", "slow", "clean", "warm",
             "staff", "place"]
    vec_rng = np.random.default_rng(4)
    table = EmbeddingTable({w: vec_rng.standard_normal(8) for w in words}, dim=8)
    rng = random.Random(606)
    verbatim = 0
    with warnings.catch_warnings():
        # single-token sentences keep their terminator attached and can fall
        # outside the table; the lead fallback they trigger is the behavior
        # under test, not a defect worth surfacing 1000 times
        warnings.simplefilter("ignore", UserWarning)
        for _ in range(1000):
            sentences = []
            for _ in range(rng.randint(1, 5)):
                toks = [rng.choice(words) for _ in range(rng.randint(1, 6))]
                sentences.append(" ".join(toks) + rng.choice(".!?"))
            review = " ".join(sentences)
            query = " ".join(rng.choice(words) for _ in range(rng.randint(1, 2)))
            parts = split_sentences(review)
            outs = (
                query_lead(review, query),
                extract_bm25(review, query),
                extract_embed(review, query, table),
            )
            verbatim += all(out in parts and out in review for out in outs)
    ok = ok and verbatim == 1000
    elapsed = time.perf_counter() - started
    return ok, (
        f"closed forms to 1e-9, 6 lead rules, {verbatim}/1000 fuzzed records "
        f"verbatim, {elapsed:.1f}s"
    )


# ------------------------------------------------------------------ gate 7


@gate("pipeline smoke")
def test_cli_pipeline_smoke(tmp_path, capsys):
    started = time.perf_counter()
    data = str(DATA_DIR / "sample_triplets.jsonl")
    embeddings = str(DATA_DIR / "toy_embeddings.txt")
    vocab = str(tmp_path / "vocab.txt")
    codes = [main(["build-vocab", "--data", data, "--out", vocab])]
    config = {
        "arch": "transformer", "variant": "both", "data": data, "vocab": vocab,
        "review_max_len": 40, "query_max_len": 4, "tip_max_len": 14,
        "model_dim": 128, "num_heads": 8, "num_layers": 2, "dropout": 0.1,
        "epochs": 20, "batch_size": 128, "lr": 0.001, "seed": 0,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    run_dir = str(tmp_path / "run")
    codes.append(main(["train", "--config", str(config_path), "--out", run_dir]))
    generated = str(tmp_path / "generated.jsonl")
    codes.append(main([
        "generate", "--checkpoint", f"{run_dir}/best.qtip", "--vocab", vocab,
        "--data", data, "--beam", "4", "--out", generated,
    ]))
    report_path = tmp_path / "report.json"
    codes.append(main([
        "evaluate", "--hyp", generated, "--ref", data,
        "--embeddings", embeddings, "--out", str(report_path),
    ]))
    printed = capsys.readouterr().out
    elapsed = time.perf_counter() - started
    report = json.loads(report_path.read_text(encoding="utf-8"))
    ok = codes == [0, 0, 0, 0] and elapsed < 1800.0
    ok = ok and all(w in printed for w in ("Semantic", "Lexicon", "BLEU"))
    ok = ok and report["evaluated"] == 500
    ok = ok and all(
        isinstance(report[k], float) for k in ("semantic", "lexicon", "bleu")
    )
    return ok, (
        f"500 records end to end in {elapsed:.0f}s; values (reported, not "
        f"judged): semantic {report['semantic']:.2f} lexicon "
        f"{report['lexicon']:.2f} bleu {report['bleu']:.2f}"
    )


# ------------------------------------------------------------------ gate 8


def rejects(fn, exc_type, needle):
    try:
        fn()
    except exc_type as exc:
        return needle in str(exc)
    except Exception:
        return False
    return False


@gate("format stability")
def test_artifacts_stable_and_malformed_inputs_rejected(tmp_path):
    model = QaRnnModel(RnnConfig(13, emb_dim=4, hidden_dim=3, variant="both"), seed=5)
    first = tmp_path / "a.qtip"
    second = tmp_path / "b.qtip"
    save_checkpoint(model, model.config_dict(), str(first))
    loaded, snapshot = load_checkpoint(str(first))
    save_checkpoint(loaded, snapshot, str(second))
    ok = first.read_bytes() == second.read_bytes()

    records = pipeline_corpus(60, seed=9)
    vocab_a = tmp_path / "v1.txt"
    vocab_b = tmp_path / "v2.txt"
    vocab_from_records(records).save(str(vocab_a))
    vocab_from_records(records).save(str(vocab_b))
    ok = ok and vocab_a.read_bytes() == vocab_b.read_bytes()

    split_one = split_dataset(records, seed=3)
    split_two = split_dataset(records, seed=3)
    for part in ("train", "valid", "test"):
        ids_one = [r["id"] for r in getattr(split_one, part)]
        ids_two = [r["id"] for r in getattr(split_two, part)]
        ok = ok and ids_one == ids_two

    bad_data = tmp_path / "bad.jsonl"
    bad_data.write_text(
        '{"review": "r", "query": "q", "tip": "t"}\n{"query": "q", "tip": "t"}\n',
        encoding="utf-8",
    )
    ok = ok and rejects(lambda: load_jsonl(str(bad_data)), DatasetError, "line 2")

    bad_vecs = tmp_path / "bad_vectors.txt"
    bad_vecs.write_text("a 1.0 2.0\nb 1.0\n", encoding="utf-8")
    ok = ok and rejects(lambda: load_embeddings(str(bad_vecs)), ValueError, "line 2")

    junk = tmp_path / "junk.qtip"
    junk.write_bytes(b"XXXX" + b"\x00" * 12)
    ok = ok and rejects(lambda: load_checkpoint(str(junk)), CheckpointError, "bad magic")

    stub = tmp_path / "stub.qtip"
    stub.write_bytes(first.read_bytes()[:10])
    ok = ok and rejects(
        lambda: load_checkpoint(str(stub)), CheckpointError, "truncated"
    )
    return ok, (
        "byte-identical checkpoint round trip, deterministic vocab and split, "
        "4 malformed input classes rejected with located errors"
    )