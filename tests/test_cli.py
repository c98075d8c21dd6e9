import json
import os
from pathlib import Path

import pytest

from qatip.cli import main
from qatip.corpus import write_jsonl
from qatip.synthetic import overfit_corpus, toy_embedding_file


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A tiny dataset, vocab, config and 1-epoch checkpoint shared by tests."""
    root = tmp_path_factory.mktemp("cli")
    records = overfit_corpus(n=12, seed=3)
    data = str(root / "data.jsonl")
    write_jsonl(records, data)
    vocab = str(root / "vocab.txt")
    assert main(["build-vocab", "--data", data, "--out", vocab]) == 0
    config = {
        "arch": "rnn", "variant": "both", "data": data, "vocab": vocab,
        "review_max_len": 12, "query_max_len": 3, "tip_max_len": 8,
        "emb_dim": 6, "hidden_dim": 4, "dropout": 0.0,
        "epochs": 1, "batch_size": 4, "seed": 5, "split_data": False,
    }
    config_path = str(root / "config.json")
    Path(config_path).write_text(json.dumps(config), encoding="utf-8")
    out_dir = str(root / "run")
    assert main(["train", "--config", config_path, "--out", out_dir]) == 0
    return {
        "root": root,
        "records": records,
        "data": data,
        "vocab": vocab,
        "config": config_path,
        "checkpoint": os.path.join(out_dir, "final.qtip"),
    }


def read_lines(path):
    return [l for l in open(path, encoding="utf-8").read().splitlines() if l]


def test_build_vocab_prints_size_and_is_stable(workdir, capsys, tmp_path):
    out1 = str(tmp_path / "v1.txt")
    out2 = str(tmp_path / "v2.txt")
    assert main(["build-vocab", "--data", workdir["data"], "--out", out1]) == 0
    size1 = int(capsys.readouterr().out.strip())
    assert main(["build-vocab", "--data", workdir["data"], "--out", out2]) == 0
    size2 = int(capsys.readouterr().out.strip())
    assert size1 == size2 > 4
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_build_vocab_max_size(workdir, capsys, tmp_path):
    out = str(tmp_path / "v.txt")
    assert main(["build-vocab", "--data", workdir["data"], "--max-size", "6",
                 "--out", out]) == 0
    assert capsys.readouterr().out.strip() == "6"
    assert len(read_lines(out)) == 6


def test_train_logs_epoch_records(workdir, capsys, tmp_path):
    out = str(tmp_path / "run")
    assert main(["train", "--config", workdir["config"], "--out", out,
                 "--epochs", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    epochs = [json.loads(l) for l in lines[:-1]]
    assert [e["epoch"] for e in epochs] == [0, 1]
    for e in epochs:
        assert set(e) == {"epoch", "train_loss", "valid_loss", "seconds", "steps",
                          "tokens_per_s", "grad_norm_mean", "grad_norm_max", "peak_rss_mb"}
    tail = json.loads(lines[-1])
    assert os.path.exists(tail["final_checkpoint"])
    assert os.path.exists(tail["best_checkpoint"])


def test_train_zero_epochs(workdir, capsys, tmp_path):
    out = str(tmp_path / "run0")
    assert main(["train", "--config", workdir["config"], "--out", out,
                 "--epochs", "0"]) == 0
    tail = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert tail["best_epoch"] == -1
    assert os.path.exists(tail["final_checkpoint"])


def test_train_refuses_an_empty_data_file(workdir, capsys, tmp_path):
    data = tmp_path / "empty.jsonl"
    data.write_text("", encoding="utf-8")
    assert main(["train", "--config", workdir["config"], "--data", str(data),
                 "--out", str(tmp_path / "run")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DatasetError"
    assert err["message"] == f"{data}: no training records"
    assert not (tmp_path / "run").exists()


def test_generate_covers_every_record(workdir, capsys, tmp_path):
    out = str(tmp_path / "gen.jsonl")
    assert main(["generate", "--checkpoint", workdir["checkpoint"],
                 "--vocab", workdir["vocab"], "--data", workdir["data"],
                 "--beam", "2", "--out", out]) == 0
    capsys.readouterr()
    rows = [json.loads(l) for l in read_lines(out)]
    assert len(rows) == len(workdir["records"])
    assert [r["id"] for r in rows] == [r["id"] for r in workdir["records"]]
    assert all(set(r) == {"id", "tip"} for r in rows)


def test_generate_prints_one_summary_line(workdir, capsys, tmp_path):
    out = str(tmp_path / "gen.jsonl")
    assert main(["generate", "--checkpoint", workdir["checkpoint"],
                 "--vocab", workdir["vocab"], "--data", workdir["data"],
                 "--beam", "2", "--out", out]) == 0
    (line,) = capsys.readouterr().err.strip().splitlines()
    summary = json.loads(line)
    n = len(workdir["records"])
    assert set(summary) == {"records", "failed", "seconds", "records_per_s", "mean_steps", "finish"}
    assert (summary["records"], summary["failed"]) == (n, 0)
    assert summary["seconds"] > 0 and summary["records_per_s"] > 0
    assert set(summary["finish"]) == {"eos", "max_len"} and sum(summary["finish"].values()) == n
    assert 1 <= summary["mean_steps"] <= 8  # tip_max_len
    assert all(set(json.loads(l)) == {"id", "tip"} for l in read_lines(out))


def test_generate_beam_one_equals_greedy(workdir, capsys, tmp_path):
    out = str(tmp_path / "beam1.jsonl")
    assert main(["generate", "--checkpoint", workdir["checkpoint"],
                 "--vocab", workdir["vocab"], "--data", workdir["data"],
                 "--beam", "1", "--out", out]) == 0
    capsys.readouterr()
    from qatip.checkpoint import load_checkpoint
    from qatip.corpus import Vocabulary, detokenize, encode_records, load_jsonl
    from qatip.generation import greedy_decode

    model, snapshot = load_checkpoint(workdir["checkpoint"])
    vocab = Vocabulary.load(workdir["vocab"])
    run = snapshot["run"]
    triplets = encode_records(
        load_jsonl(workdir["data"], inference=True), vocab,
        review_max_len=run["review_max_len"], query_max_len=run["query_max_len"],
        tip_max_len=run["tip_max_len"], inference=True,
    )
    rows = [json.loads(l) for l in read_lines(out)]
    for row, trip in zip(rows, triplets):
        ids = greedy_decode(model, trip.review_ids, trip.query_ids,
                            max_len=run["tip_max_len"])
        assert row["tip"] == detokenize(vocab.decode(ids))


def test_generate_is_deterministic(workdir, capsys, tmp_path):
    outs = []
    for name in ("a.jsonl", "b.jsonl"):
        out = str(tmp_path / name)
        assert main(["generate", "--checkpoint", workdir["checkpoint"],
                     "--vocab", workdir["vocab"], "--data", workdir["data"],
                     "--out", out]) == 0
        outs.append(open(out, "rb").read())
    capsys.readouterr()
    assert outs[0] == outs[1]


def test_generate_vocab_mismatch(workdir, capsys, tmp_path):
    from qatip.corpus import RESERVED_TOKENS, Vocabulary

    small = str(tmp_path / "small.txt")
    Vocabulary(list(RESERVED_TOKENS) + ["a"]).save(small)
    rc = main(["generate", "--checkpoint", workdir["checkpoint"],
               "--vocab", small, "--data", workdir["data"],
               "--out", str(tmp_path / "x.jsonl")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert "5 tokens" in err["message"] and "expects" in err["message"]


def test_generate_rejects_same_size_vocab_with_other_tokens(workdir, capsys, tmp_path):
    from qatip.checkpoint import load_checkpoint, save_checkpoint
    from qatip.corpus import Vocabulary

    tokens = Vocabulary.load(workdir["vocab"]).id_to_token
    permuted = str(tmp_path / "permuted.txt")
    Vocabulary(tokens[:4] + tokens[5:] + tokens[4:5]).save(permuted)
    common = ["--vocab", permuted, "--data", workdir["data"], "--out", str(tmp_path / "x.jsonl")]
    assert main(["generate", "--checkpoint", workdir["checkpoint"]] + common) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "CliError" and "token list" in err["message"]

    # a checkpoint without the fingerprint keeps the size-only check
    model, snapshot = load_checkpoint(workdir["checkpoint"])
    del snapshot["vocab_sha256"]
    unmarked = str(tmp_path / "unmarked.qtip")
    save_checkpoint(model, snapshot, unmarked)
    assert main(["generate", "--checkpoint", unmarked] + common) == 0


def train_variant(workdir, tmp_path, epochs=0, **changes):
    """A checkpoint after ``epochs`` epochs of the shared config with ``changes`` applied."""
    config = json.loads(Path(workdir["config"]).read_text(encoding="utf-8"))
    config.update(changes)
    path = tmp_path / "variant.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "variant"
    assert main(["train", "--config", str(path), "--out", str(out), "--epochs", str(epochs)]) == 0
    return str(out / "final.qtip")


def test_generate_decodes_with_the_run_beam_width(workdir, capsys, tmp_path, monkeypatch):
    from qatip import generation

    widths = []
    real = generation.batch_generate

    def spy(model, triplets, config, *args, **kwargs):
        widths.append((config.width, config.alpha))
        return real(model, triplets, config, *args, **kwargs)

    monkeypatch.setattr(generation, "batch_generate", spy)
    checkpoint = train_variant(workdir, tmp_path, beam_width=2, length_alpha=0.5)
    common = ["generate", "--checkpoint", checkpoint, "--vocab", workdir["vocab"],
              "--data", workdir["data"], "--out", str(tmp_path / "g.jsonl")]
    assert main(common) == 0
    assert main(common + ["--beam", "3", "--alpha", "0"]) == 0
    capsys.readouterr()
    assert widths == [(2, 0.5), (3, 0.0)]


def test_generate_rejects_max_len_past_position_table(workdir, capsys, tmp_path):
    # position table: 2 + the largest length limit (review_max_len 12) = 14
    checkpoint = train_variant(workdir, tmp_path, arch="transformer", model_dim=8,
                               num_heads=2, num_layers=1, ffn_dim=16)
    common = ["generate", "--checkpoint", checkpoint, "--vocab", workdir["vocab"],
              "--data", workdir["data"], "--out", str(tmp_path / "g.jsonl"), "--beam", "1"]
    assert main(common + ["--max-len", "14"]) == 0
    capsys.readouterr()
    assert main(common + ["--max-len", "15"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "CliError"
    assert "max_len 15" in err["message"] and "14 positions" in err["message"]


@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
def test_generate_rejects_non_finite_alpha(workdir, capsys, tmp_path, alpha):
    out = tmp_path / "g.jsonl"
    assert main(["generate", "--checkpoint", workdir["checkpoint"], "--vocab", workdir["vocab"],
                 "--data", workdir["data"], "--out", str(out), f"--alpha={alpha}"]) == 1
    (line,) = capsys.readouterr().err.strip().splitlines()  # the error record, no summary: nothing decoded
    err = json.loads(line)
    assert err["error"] == "ValueError" and err["message"] == f"beam alpha must be finite, got {float(alpha)}"
    assert not out.exists()


RETIRED_AT_THEIR_VALUES = {"tie_output": True, "share_query_block": True, "query_block_depth": 1}
TINY_TRANSFORMER = dict(arch="transformer", model_dim=8, num_heads=2, num_layers=1, ffn_dim=16)


def test_config_file_with_retired_keys_still_trains(workdir, capsys, tmp_path):
    checkpoint = train_variant(workdir, tmp_path, epochs=1, **TINY_TRANSFORMER, **RETIRED_AT_THEIR_VALUES)
    (epoch, _) = capsys.readouterr().out.strip().splitlines()
    assert json.loads(epoch)["steps"] > 0
    from qatip.checkpoint import load_checkpoint

    _, snapshot = load_checkpoint(checkpoint)
    assert not set(RETIRED_AT_THEIR_VALUES) & (set(snapshot) | set(snapshot["run"]))

    path = tmp_path / "retired.json"
    path.write_text(json.dumps({**json.loads(Path(workdir["config"]).read_text(encoding="utf-8")),
                                "share_query_block": False}), encoding="utf-8")
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "refused")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert err["message"] == "share_query_block must be True (the option is retired), got False"


def test_generate_reads_a_checkpoint_with_retired_keys(workdir, capsys, tmp_path):
    from qatip.checkpoint import load_checkpoint, save_checkpoint

    checkpoint = train_variant(workdir, tmp_path, **TINY_TRANSFORMER)
    model, snapshot = load_checkpoint(checkpoint)
    # the header as written before the options were retired: in the model config and in the run
    old = str(tmp_path / "old.qtip")
    save_checkpoint(model, {**snapshot, **RETIRED_AT_THEIR_VALUES,
                            "run": {**snapshot["run"], **RETIRED_AT_THEIR_VALUES}}, old)
    tips = []
    for path in (checkpoint, old):
        out = str(tmp_path / "g.jsonl")
        assert main(["generate", "--checkpoint", path, "--vocab", workdir["vocab"],
                     "--data", workdir["data"], "--out", out]) == 0
        tips.append(open(out, "rb").read())
    capsys.readouterr()
    assert tips[0] == tips[1] and tips[0]


def test_evaluate_identical_prints_bleu_100(workdir, capsys, tmp_path):
    hyp = str(tmp_path / "hyp.jsonl")
    write_jsonl(
        [{"id": r["id"], "tip": r["tip"]} for r in workdir["records"]], hyp
    )
    report_path = str(tmp_path / "report.json")
    assert main(["evaluate", "--hyp", hyp, "--ref", workdir["data"],
                 "--out", report_path]) == 0
    text = capsys.readouterr().out
    assert "100.00" in text
    report = json.loads(open(report_path, encoding="utf-8").read())
    assert report["bleu"] == 100.0
    assert report["semantic"] is None


def test_evaluate_with_embeddings(workdir, capsys, tmp_path):
    from qatip.synthetic import corpus_tokens

    emb = str(tmp_path / "vecs.txt")
    toy_embedding_file(emb, corpus_tokens(workdir["records"]), dim=8, seed=7)
    hyp = str(tmp_path / "hyp.jsonl")
    write_jsonl(
        [{"id": r["id"], "tip": r["tip"]} for r in workdir["records"]], hyp
    )
    assert main(["evaluate", "--hyp", hyp, "--ref", workdir["data"],
                 "--embeddings", emb]) == 0
    out = capsys.readouterr().out
    assert "Semantic" in out and "-" not in out.splitlines()[1].split()


def test_evaluate_misaligned_counts(workdir, capsys, tmp_path):
    hyp = str(tmp_path / "short.jsonl")
    write_jsonl([{"id": "ov-000", "tip": "x"}], hyp)
    rc = main(["evaluate", "--hyp", hyp, "--ref", workdir["data"]])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert "1 generated records" in err["message"]


def test_evaluate_rejects_non_string_tip_with_its_line(workdir, capsys, tmp_path):
    hyp = str(tmp_path / "null.jsonl")
    rows = [{"id": r["id"], "tip": r["tip"]} for r in workdir["records"]]
    rows[1]["tip"] = None
    write_jsonl(rows, hyp)
    assert main(["evaluate", "--hyp", hyp, "--ref", workdir["data"]]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "CliError"
    assert err["message"] == f"{hyp} line 2: tip must be a string, got null"


def test_evaluate_locates_invalid_utf8_in_hyp(workdir, capsys, tmp_path):
    hyp = tmp_path / "hyp.jsonl"
    hyp.write_bytes(b'{"id": "ov-000", "tip": "a"}\n{"id": "ov-001", "tip": "\xff"}\n')
    assert main(["evaluate", "--hyp", str(hyp), "--ref", workdir["data"]]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "CliError"
    assert err["message"] == f"{hyp} line 2: invalid UTF-8 at character 26"


def test_train_refuses_bad_model_settings_before_reading_the_data(workdir, capsys, tmp_path):
    data = tmp_path / "bad.jsonl"
    data.write_text('{"review": "r"}\n', encoding="utf-8")  # a DatasetError, were the records read first
    config = {**json.loads(Path(workdir["config"]).read_text(encoding="utf-8")), **TINY_TRANSFORMER,
              "num_heads": 3, "data": str(data)}
    path = tmp_path / "heads.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert err["message"] == "invalid model settings: model_dim 8 not divisible by num_heads 3"
    assert not (tmp_path / "run").exists()


def test_build_vocab_refuses_a_lone_surrogate_and_writes_nothing(capsys, tmp_path):
    data, out = tmp_path / "data.jsonl", tmp_path / "vocab.txt"
    data.write_text('{"review": "\\ud83d\\ude00 cake", "query": "cake", "tip": "good cake"}\n'
                    '{"review": "\\ud800 cake", "query": "cake", "tip": "good cake"}\n', encoding="utf-8")
    assert main(["build-vocab", "--data", str(data), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DatasetError"
    assert err["message"] == f"{data} line 2: string holds a lone surrogate U+D800"
    assert not out.exists()


def test_train_config_with_invalid_utf8_is_config_error(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_bytes(b'{"epochs": 1, "arch": "rnn\xff"}')
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "run")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert err["message"] == f"{config}: invalid UTF-8 at byte 27"


def test_baseline_query_lead_hand_picks(capsys, tmp_path):
    data = str(tmp_path / "toy.jsonl")
    write_jsonl(
        [
            {"review": "fine place. great cake here. slow service.",
             "query": "cake", "tip": "great cake here.", "id": "t0"},
            {"review": "nothing relevant. at all.", "query": "cake",
             "tip": "nothing relevant.", "id": "t1"},
        ],
        data,
    )
    out = str(tmp_path / "lead.jsonl")
    assert main(["baseline", "--method", "query_lead", "--data", data,
                 "--out", out]) == 0
    capsys.readouterr()
    rows = [json.loads(l) for l in read_lines(out)]
    assert rows[0]["tip"] == "great cake here."
    assert rows[1]["tip"] == "nothing relevant."


def test_baseline_bm25_and_embed(workdir, capsys, tmp_path):
    out = str(tmp_path / "bm25.jsonl")
    assert main(["baseline", "--method", "bm25", "--data", workdir["data"],
                 "--out", out]) == 0
    capsys.readouterr()
    rows = [json.loads(l) for l in read_lines(out)]
    assert len(rows) == len(workdir["records"])
    for row, rec in zip(rows, workdir["records"]):
        assert row["tip"] in rec["review"]

    from qatip.synthetic import corpus_tokens

    emb = str(tmp_path / "vecs.txt")
    toy_embedding_file(emb, corpus_tokens(workdir["records"]), dim=8, seed=7)
    out = str(tmp_path / "embed.jsonl")
    assert main(["baseline", "--method", "embed", "--data", workdir["data"],
                 "--embeddings", emb, "--out", out]) == 0
    capsys.readouterr()
    rows = [json.loads(l) for l in read_lines(out)]
    for row, rec in zip(rows, workdir["records"]):
        assert row["tip"] in rec["review"]


def test_baseline_embed_requires_embeddings(workdir, capsys, tmp_path):
    rc = main(["baseline", "--method", "embed", "--data", workdir["data"],
               "--out", str(tmp_path / "x.jsonl")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert "--embeddings" in err["message"]


def test_gradcheck_reports_every_op(capsys):
    rc = main(["gradcheck", "--repeats", "1", "--skip-models"])
    assert rc == 0
    out = capsys.readouterr().out
    from qatip.gradcheck import OP_CHECKS

    for name in OP_CHECKS:
        assert f"op:{name}" in out
    assert "max_rel_err" in out


def test_gradcheck_impossible_tolerance_fails(capsys, monkeypatch):
    from qatip import gradcheck

    monkeypatch.setattr(gradcheck, "OP_TOL", 1e-18)
    rc = main(["gradcheck", "--repeats", "1", "--skip-models"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_error_record_on_stderr(capsys):
    rc = main(["train", "--config", "/nonexistent/config.json", "--out", "/tmp/x"])
    assert rc == 1
    captured = capsys.readouterr()
    err = json.loads(captured.err)
    assert err["command"] == "train"
    assert err["error"]
    assert "\n" not in captured.err.strip()


def test_malformed_dataset_error(capsys, tmp_path):
    data = str(tmp_path / "bad.jsonl")
    Path(data).write_text('{"review": "r", "query": "q", "tip": "t"}\n{"review": "r"}\n')
    rc = main(["build-vocab", "--data", data, "--out", str(tmp_path / "v.txt")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert "line 2" in err["message"]


def test_unknown_subcommand_exits_nonzero():
    with pytest.raises(SystemExit):
        main(["frobnicate"])