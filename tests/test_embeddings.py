import re

import numpy as np
import pytest

from qatip.embeddings import EmbeddingTable, cosine, load_embeddings, save_embeddings


def write(tmp_path, text, name="vectors.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_two_tokens_dim_three(tmp_path):
    path = write(tmp_path, "cake 1.0 2.0 3.0\ntea -1.0 0.5 0.0\n")
    table = load_embeddings(path)
    assert len(table) == 2
    assert table.dim == 3
    np.testing.assert_allclose(table.get("cake"), [1.0, 2.0, 3.0])
    np.testing.assert_allclose(table.get("tea"), [-1.0, 0.5, 0.0])
    assert "cake" in table
    assert "pie" not in table
    assert table.get("pie") is None


def test_header_and_headerless_load_identically(tmp_path):
    body = "cake 1.0 2.0 3.0\ntea -1.0 0.5 0.0\n"
    bare = load_embeddings(write(tmp_path, body, "bare.txt"))
    headed = load_embeddings(write(tmp_path, "2 3\n" + body, "headed.txt"))
    assert bare.dim == headed.dim
    assert sorted(bare.tokens()) == sorted(headed.tokens())
    for token in bare.tokens():
        np.testing.assert_array_equal(bare.get(token), headed.get(token))


def test_wrong_arity_names_line(tmp_path):
    path = write(tmp_path, "a 1 2 3\nb 4 5 6\nc 7 8 9\nd 1 2\n")
    with pytest.raises(ValueError, match=r"line 4: expected 3 dims"):
        load_embeddings(path)


def test_header_dim_governs_arity(tmp_path):
    path = write(tmp_path, "1 4\na 1 2 3\n")
    with pytest.raises(ValueError, match=r"line 2: expected 4 dims"):
        load_embeddings(path)


def test_duplicate_token_first_wins_with_warning(tmp_path):
    path = write(tmp_path, "a 1 2\nb 3 4\na 9 9\n")
    with pytest.warns(UserWarning, match="duplicate token 'a'"):
        table = load_embeddings(path)
    np.testing.assert_array_equal(table.get("a"), [1.0, 2.0])


def test_bad_float_names_line(tmp_path):
    path = write(tmp_path, "a 1 2\nb x 4\n")
    with pytest.raises(ValueError, match=r"line 2"):
        load_embeddings(path)


def test_invalid_utf8_names_line(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_bytes(b"a 1 2\n\xffb 3 4\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))} line 2: invalid UTF-8 at character 1$"):
        load_embeddings(str(path))


@pytest.mark.parametrize("body, line, value", [("food nan 1\ngood 1 2\n", 1, "nan"),
                                              ("food 1 2\ngood 1 inf\n", 2, "inf"),
                                              ("food 1 2\ngood 1e999 2\n", 2, "1e999")],
                         ids=["nan", "inf", "overflow"])
def test_non_finite_component_names_line(tmp_path, body, line, value):
    path = write(tmp_path, body)
    with pytest.raises(ValueError, match=rf"^{re.escape(path)} line {line}: non-finite component {value}$"):
        load_embeddings(path)


def test_header_count_must_match_vectors(tmp_path):
    path = write(tmp_path, "5 2\na 1 2\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(path)} line 1: header declares 5 vectors but the file holds 1$"):
        load_embeddings(path)
    with pytest.warns(UserWarning, match="duplicate token 'a'"):  # duplicates count toward the header
        table = load_embeddings(write(tmp_path, "2 2\na 1 2\na 3 4\n", "dup.txt"))
    assert len(table) == 1


def test_empty_file_rejected(tmp_path):
    with pytest.raises(ValueError, match="no vectors"):
        load_embeddings(write(tmp_path, ""))


def test_blank_lines_skipped(tmp_path):
    table = load_embeddings(write(tmp_path, "a 1 2\n\nb 3 4\n"))
    assert len(table) == 2


def test_pool_is_elementwise_max():
    table = EmbeddingTable(
        {"a": np.array([1.0, 0.0]), "b": np.array([0.5, 2.0]), "c": np.array([-1.0, 0.25])},
        dim=2,
    )
    np.testing.assert_allclose(table.pool(["a", "b", "c"]), [1.0, 2.0])
    np.testing.assert_allclose(table.pool(["a", "zzz", "c"]), [1.0, 0.25])
    assert table.pool(["zzz", "yyy"]) is None
    assert table.pool([]) is None


def test_cosine_conventions():
    assert cosine(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == pytest.approx(1.0)
    assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0)
    assert cosine(np.zeros(2), np.array([1.0, 1.0])) == 0.0
    assert cosine(np.array([1.0, 1.0]), np.zeros(2)) == 0.0
    assert cosine(np.array([1.0, 0.0]), np.array([-1.0, 0.0])) == pytest.approx(-1.0)


def test_mismatched_vector_shape_rejected():
    with pytest.raises(ValueError, match="shape"):
        EmbeddingTable({"a": np.array([1.0, 2.0, 3.0])}, dim=2)


def test_save_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    table = EmbeddingTable(
        {f"t{i}": rng.standard_normal(4) for i in range(6)}, dim=4
    )
    path = str(tmp_path / "out.txt")
    save_embeddings(table, path)
    back = load_embeddings(path)
    assert back.dim == 4
    assert sorted(back.tokens()) == sorted(table.tokens())
    for token in table.tokens():
        np.testing.assert_array_equal(back.get(token), table.get(token))
