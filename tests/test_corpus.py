import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qatip import corpus
from qatip.corpus import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    UNK_ID,
    DatasetError,
    Vocabulary,
    build_vocab,
    encode,
    encode_records,
    lcg_shuffle,
    load_jsonl,
    make_batches,
    split_dataset,
    tokenize,
)


def small_vocab(tokens=("a", "b", "c")):
    return Vocabulary(list(corpus.RESERVED_TOKENS) + list(tokens))


class TestTokenize:
    def test_whitespace_lowercases_and_splits(self):
        assert tokenize("The cat Sat", "whitespace") == ["the", "cat", "sat"]

    def test_empty_text(self):
        assert tokenize("", "whitespace") == []
        assert tokenize("", "char") == []

    def test_char_mode_skips_whitespace(self):
        assert tokenize("ab c", "char") == ["a", "b", "c"]

    def test_unicode_whitespace(self):
        assert tokenize("a b\tc", "whitespace") == ["a", "b", "c"]

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            tokenize("x", "bpe")


class TestVocab:
    def test_frequency_filter(self):
        streams = [["a"] * 3 + ["b"]]
        v = build_vocab(streams, min_freq=2, max_size=10)
        assert v.size == 5
        assert v.id_to_token == [*corpus.RESERVED_TOKENS, "a"]

    def test_tie_breaks_lexicographic_and_cap(self):
        v = build_vocab([["a", "a", "b", "b"]], min_freq=1, max_size=5)
        assert v.size == 5
        assert v.id_to_token[4] == "a"

    def test_empty_corpus(self):
        v = build_vocab([], min_freq=1, max_size=10)
        assert v.size == 4

    def test_deterministic_rebuild(self, tmp_path):
        streams = [["x", "y", "x"], ["z", "y"]]
        v1 = build_vocab(streams, 1, 100)
        v2 = build_vocab(streams, 1, 100)
        p1, p2 = tmp_path / "v1.txt", tmp_path / "v2.txt"
        v1.save(p1)
        v2.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_reserved_collision_escaped(self):
        v = build_vocab([["<pad>", "_<pad>", "tok"]], 1, 20)
        assert "_<pad>" in v.token_to_id
        assert "__<pad>" in v.token_to_id
        # bijection holds
        assert len(v.token_to_id) == len(v.id_to_token)

    def test_save_load_roundtrip(self, tmp_path):
        v = build_vocab([["cake", "tea"]], 1, 10)
        path = tmp_path / "vocab.txt"
        v.save(path)
        loaded = Vocabulary.load(path)
        assert loaded.id_to_token == v.id_to_token

    def test_load_rejects_bad_header(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("<pad>\n<bos>\nwrong\n<unk>\na\n")
        with pytest.raises(DatasetError):
            Vocabulary.load(path)

    def test_load_names_duplicate_token(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("<pad>\n<bos>\n<eos>\n<unk>\ncake\ntea\ncake\n", encoding="utf-8")
        with pytest.raises(DatasetError, match=r"vocab\.txt line 7: vocabulary contains duplicate token 'cake'$"):
            Vocabulary.load(path)

    def test_load_locates_invalid_utf8(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_bytes(b"<pad>\n<bos>\n<eos>\n<unk>\ncake\nt\xffa\n")
        with pytest.raises(DatasetError, match=rf"^{re.escape(str(path))} line 6: invalid UTF-8 at character 2$"):
            Vocabulary.load(path)

    def test_load_rejects_blank_line(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("<pad>\n<bos>\n<eos>\n<unk>\n\ncake\n", encoding="utf-8")
        with pytest.raises(DatasetError, match=rf"^{re.escape(str(path))} line 5: empty token$"):
            Vocabulary.load(path)

    def test_load_locates_missing_reserved_token(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("<pad>\n<bos>\n", encoding="utf-8")
        with pytest.raises(DatasetError, match=r"vocab\.txt line 3: vocabulary file must begin with"):
            Vocabulary.load(path)

    # every token save accepts: non-empty, no line feed or carriage return, encodable
    @settings(max_examples=100, derandomize=True, database=None)
    @given(st.lists(st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"),
                            min_size=1), unique=True, max_size=12))
    @example(["\x85", "a\u2028b", "\x1c", "\x0b\x0c", " ", "_<pad>"])
    def test_save_load_keeps_token_list(self, tmp_path_factory, tokens):
        v = Vocabulary(list(corpus.RESERVED_TOKENS) + [t for t in tokens if t not in corpus.RESERVED_TOKENS])
        path = tmp_path_factory.mktemp("vocab") / "vocab.txt"
        v.save(path)
        loaded = Vocabulary.load(path)
        assert loaded.id_to_token == v.id_to_token
        assert loaded.fingerprint() == v.fingerprint()

    @pytest.mark.parametrize("token", ["", "a\nb", "a\rb"])
    def test_save_refuses_token_that_cannot_round_trip(self, tmp_path, token):
        path = tmp_path / "vocab.txt"
        with pytest.raises(ValueError, match="empty or holds a line break"):
            Vocabulary(list(corpus.RESERVED_TOKENS) + [token]).save(path)
        assert not path.exists()

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            build_vocab([], min_freq=0)
        with pytest.raises(ValueError):
            build_vocab([], max_size=4)


class TestEncode:
    def test_unk_mapping(self):
        v = small_vocab()
        assert encode(["a", "zzz"], v, 5) == [4, UNK_ID]

    def test_truncation(self):
        v = small_vocab()
        assert encode(["a", "a", "a"], v, 2) == [4, 4]

    def test_bos_eos_framing(self):
        v = small_vocab()
        assert encode(["a"], v, 5, add_bos_eos=True) == [BOS_ID, 4, EOS_ID]

    def test_truncate_before_framing(self):
        v = small_vocab()
        out = encode(["a", "b", "c"], v, 2, add_bos_eos=True)
        assert out == [BOS_ID, 4, 5, EOS_ID]

    @given(st.lists(st.sampled_from(["a", "b", "c"]), max_size=8))
    def test_round_trip_in_vocab(self, tokens):
        v = small_vocab()
        ids = encode(tokens, v, 100)
        assert v.decode(ids) == tokens


class TestLoadJsonl:
    def write(self, tmp_path, lines):
        p = tmp_path / "data.jsonl"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return p

    def test_valid_record(self, tmp_path):
        p = self.write(tmp_path, [json.dumps({"review": "r", "query": "q", "tip": "t"})])
        assert len(load_jsonl(p)) == 1

    def test_missing_query(self, tmp_path):
        p = self.write(tmp_path, [json.dumps({"review": "r", "tip": "t"})])
        with pytest.raises(DatasetError, match="line 1: missing field query"):
            load_jsonl(p)

    def test_file_order(self, tmp_path):
        recs = [{"review": f"r{i}", "query": "q", "tip": "t"} for i in range(3)]
        p = self.write(tmp_path, [json.dumps(r) for r in recs])
        out = load_jsonl(p)
        assert [r["review"] for r in out] == ["r0", "r1", "r2"]

    def test_malformed_line_numbered(self, tmp_path):
        p = self.write(
            tmp_path, [json.dumps({"review": "r", "query": "q", "tip": "t"}), "{oops"]
        )
        with pytest.raises(DatasetError, match="line 2"):
            load_jsonl(p)

    def test_invalid_utf8_line_numbered(self, tmp_path):
        p = tmp_path / "data.jsonl"
        good = json.dumps({"review": "r", "query": "q", "tip": "t"}).encode("utf-8")
        p.write_bytes(good + b"\n" + good.replace(b'"r"', b'"\xff"') + b"\n")
        with pytest.raises(DatasetError, match="line 2: invalid UTF-8"):
            load_jsonl(p)

    def test_errors_name_path_and_line(self, tmp_path):
        p = self.write(tmp_path, [json.dumps({"review": "r", "query": "q", "tip": "t"}), "[1]"])
        with pytest.raises(DatasetError, match=rf"^{re.escape(str(p))} line 2: record is not a JSON object$"):
            load_jsonl(p)

    @pytest.mark.parametrize("line", ["[" * 100_000, '{"review": ' + "1" * 5000 + "}"],
                             ids=["deep-nesting", "long-integer"])
    def test_json_past_parser_limits_is_located(self, tmp_path, line):
        p = self.write(tmp_path, [json.dumps({"review": "r", "query": "q", "tip": "t"}), line])
        with pytest.raises(DatasetError, match=rf"^{re.escape(str(p))} line 2: invalid JSON: "):
            load_jsonl(p)

    def test_empty_review_rejected(self, tmp_path):
        p = self.write(tmp_path, [json.dumps({"review": "  ", "query": "q", "tip": "t"})])
        with pytest.raises(DatasetError, match="line 1: empty field review"):
            load_jsonl(p)

    def test_empty_tip_inference_only(self, tmp_path):
        p = self.write(tmp_path, [json.dumps({"review": "r", "query": "q"})])
        with pytest.raises(DatasetError, match="missing field tip"):
            load_jsonl(p)
        recs = load_jsonl(p, inference=True)
        assert recs[0]["tip"] == ""

    def test_id_passthrough(self, tmp_path):
        p = self.write(
            tmp_path, [json.dumps({"review": "r", "query": "q", "tip": "t", "id": "x1"})]
        )
        assert load_jsonl(p)[0]["id"] == "x1"


class TestSplit:
    def test_sizes_10(self):
        s = split_dataset(list(range(10)), seed=7)
        assert (len(s.train), len(s.valid), len(s.test)) == (8, 1, 1)

    def test_sizes_100(self):
        s = split_dataset(list(range(100)), seed=0)
        assert (len(s.train), len(s.valid), len(s.test)) == (80, 10, 10)

    def test_remainder_to_train(self):
        s = split_dataset(list(range(15)), seed=3)
        assert (len(s.train), len(s.valid), len(s.test)) == (13, 1, 1)

    def test_deterministic(self):
        recs = list(range(37))
        a = split_dataset(recs, seed=42)
        b = split_dataset(recs, seed=42)
        assert a.train == b.train and a.valid == b.valid and a.test == b.test

    def test_partition(self):
        recs = list(range(53))
        s = split_dataset(recs, seed=11)
        combined = sorted(s.train + s.valid + s.test)
        assert combined == recs

    def test_too_few_records(self):
        with pytest.raises(DatasetError):
            split_dataset(list(range(9)), seed=0)

    def test_lcg_shuffle_reference(self):
        # frozen reference walk of the documented LCG + Fisher-Yates
        mask = (1 << 64) - 1
        state = 42
        items = list(range(5))
        for i in range(4, 0, -1):
            state = (state * 6364136223846793005 + 1442695040888963407) & mask
            j = (state >> 32) % (i + 1)
            items[i], items[j] = items[j], items[i]
        assert lcg_shuffle(list(range(5)), 42) == items


def toy_triplets(n=5, tip_len=3):
    v = small_vocab(("a", "b", "c", "d"))
    recs = [
        {"review": "a b c d", "query": "a", "tip": " ".join(["b"] * tip_len), "id": str(i)}
        for i in range(n)
    ]
    return encode_records(recs, v, 10, 5, 10), v


class TestBatches:
    def test_batch_sizes(self):
        triplets, _ = toy_triplets(5)
        batches = make_batches(triplets, 2)
        assert [b.size for b in batches] == [2, 2, 1]

    def test_pad_fill_and_lengths(self):
        v = small_vocab(("a", "b", "c", "d"))
        recs = [
            {"review": "a b c", "query": "a", "tip": "b"},
            {"review": "a", "query": "a b", "tip": "b c d"},
        ]
        (batch,) = make_batches(encode_records(recs, v, 10, 5, 10), 2)
        assert batch.review.shape == (2, 3)
        assert batch.review[1, 1] == PAD_ID and batch.review[1, 2] == PAD_ID
        for row, ln in zip(batch.review, batch.review_lengths):
            assert (row != PAD_ID).sum() == ln
        for row, ln in zip(batch.tip_input, batch.tip_lengths):
            assert (row != PAD_ID).sum() == ln

    def test_teacher_forcing_alignment(self):
        triplets, _ = toy_triplets(3, tip_len=4)
        (batch,) = make_batches(triplets, 3)
        for i in range(batch.size):
            ln = batch.tip_lengths[i]
            assert batch.tip_input[i, 0] == BOS_ID
            assert batch.tip_target[i, ln - 1] == EOS_ID
            for t in range(ln - 1):
                assert batch.tip_target[i, t] == batch.tip_input[i, t + 1]

    def test_shuffle_determinism(self):
        triplets, _ = toy_triplets(7)
        a = make_batches(triplets, 2, shuffle_seed=5)
        b = make_batches(triplets, 2, shuffle_seed=5)
        for ba, bb in zip(a, b):
            assert np.array_equal(ba.review, bb.review)
            assert np.array_equal(ba.tip_target, bb.tip_target)

    def test_corpus_order_without_seed(self):
        triplets, _ = toy_triplets(4)
        batches = make_batches(triplets, 4)
        assert batches[0].triplets == triplets


class TestEncodeRecords:
    def test_tip_framing_invariants(self):
        triplets, _ = toy_triplets(1)
        t = triplets[0]
        assert t.tip_ids[0] == BOS_ID and t.tip_ids[-1] == EOS_ID
        assert BOS_ID not in t.review_ids and EOS_ID not in t.review_ids
        assert BOS_ID not in t.query_ids and EOS_ID not in t.query_ids

    def test_all_ids_below_vocab_size(self):
        triplets, v = toy_triplets(2)
        for t in triplets:
            assert all(i < v.size for i in t.review_ids + t.query_ids + t.tip_ids)

    def test_inference_allows_empty_tip(self):
        v = small_vocab()
        recs = [{"review": "a", "query": "b", "tip": ""}]
        (t,) = encode_records(recs, v, 5, 5, 5, inference=True)
        assert t.tip_ids == ()

    def test_length_caps(self):
        v = small_vocab(("a", "b", "c", "d", "e", "f"))
        recs = [{"review": "a b c d e f", "query": "a b c", "tip": "a b c d"}]
        (t,) = encode_records(recs, v, review_max_len=3, query_max_len=2, tip_max_len=2)
        assert len(t.review_ids) == 3
        assert len(t.query_ids) == 2
        assert len(t.tip_ids) == 4  # BOS + 2 + EOS


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=2**63), st.integers(min_value=10, max_value=60))
def test_split_is_partition_property(seed, n):
    s = split_dataset(list(range(n)), seed)
    assert sorted(s.train + s.valid + s.test) == list(range(n))
    assert len(s.valid) == n // 10 and len(s.test) == n // 10
