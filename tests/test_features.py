import json
import math
import re
import shlex

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import sparse

from ctxsens import features
from ctxsens.features import (
    EmptyVocabularyError,
    FeatureConfig,
    FeatureError,
    Vocabulary,
    fit_vocabulary,
    to_csr,
    tokenize,
    transform_many,
)
from ctxsens.aggregation import load_examples
from ctxsens.cli import EXIT_OK, main
from ctxsens.corpus import load_posts

from helpers import traced_peak
from oracles import fit_terms, tfidf_rows
from oracles import tokenize as oracle_tokenize
from test_golden import _write_inputs

UNIGRAM = FeatureConfig(min_token_len=1, ngram_max=1, min_df=1, max_features=None)


def row(vocab: Vocabulary, text: str) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """One text's (column indices, weights) from transform_many."""
    matrix = transform_many(vocab, [text])
    return tuple(matrix.indices.tolist()), tuple(matrix.data.tolist())


def test_vocabulary_counts_document_frequency():
    vocab = fit_vocabulary(["a b", "b c"], UNIGRAM)
    assert set(vocab.term_index) == {"a", "b", "c"}
    assert vocab.doc_freq == {"a": 1, "b": 2, "c": 1}
    assert sorted(vocab.term_index.values()) == [0, 1, 2]


def test_min_df_filters_terms():
    config = FeatureConfig(min_token_len=1, ngram_max=1, min_df=2, max_features=None)
    vocab = fit_vocabulary(["a b", "b c"], config)
    assert set(vocab.term_index) == {"b"}


def test_identical_documents_count_once_each():
    vocab = fit_vocabulary(["x y", "x y"], UNIGRAM)
    assert vocab.doc_freq == {"x": 2, "y": 2}


def test_max_features_keeps_highest_df_with_lexicographic_ties():
    config = FeatureConfig(min_token_len=1, ngram_max=1, min_df=1, max_features=2)
    vocab = fit_vocabulary(["b c z", "z"], config)
    # z has df 2; b and c tie at 1 -> b wins lexicographically
    assert set(vocab.term_index) == {"z", "b"}


def test_empty_corpus_after_tokenization_raises():
    with pytest.raises(EmptyVocabularyError):
        fit_vocabulary(["!!!", "..."], UNIGRAM)
    with pytest.raises(EmptyVocabularyError, match="min_df"):
        fit_vocabulary(["a", "b"], FeatureConfig(min_token_len=1, ngram_max=1, min_df=3))


def _terms(text: str, **config) -> set[str]:
    return set(fit_vocabulary([text], FeatureConfig(min_df=1, max_features=None, **config)).term_index)


def test_default_tokenizer_drops_short_tokens_and_adds_bigrams():
    terms = _terms("An API, the API-token!")
    assert "an" in terms and "api" in terms
    assert "the api" in terms  # bigram
    assert all(len(t.split()[0]) >= 2 for t in terms)
    assert terms == set(oracle_tokenize("An API, the API-token!", FeatureConfig()))


def test_tokenizer_splits_on_non_alphanumeric_runs():
    assert _terms("foo_bar 42x,y;z9", min_token_len=1, ngram_max=1) == {"foo", "bar", "42x", "y", "z9"}


def test_text_memo_keeps_tokenizer_settings_apart():
    text = "Ab ab AB x y"
    assert _terms(text, min_token_len=1, ngram_max=1) == {"ab", "x", "y"}
    assert _terms(text, min_token_len=1, ngram_max=1, lowercase=False) == {"Ab", "ab", "AB", "x", "y"}
    assert _terms(text, ngram_max=1) == {"ab"}
    assert _terms(text, min_token_len=1, ngram_max=1, stopwords=("ab",)) == {"x", "y"}


def test_train_evaluate_and_augment_split_each_distinct_text_once(tmp_path, monkeypatch):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    _write_inputs(inputs)
    data = tmp_path / "agg" / "sensitivity.jsonl"
    assert main(shlex.split(f"aggregate --posts {inputs}/posts.jsonl --ic {inputs}/ic.jsonl --oc {inputs}/oc.jsonl --out {data.parent}")) == EXIT_OK
    table_texts = set(load_examples(data).posts.target_texts)
    pool_texts = set(load_posts(inputs / "pool.jsonl").target_texts)
    calls: list[str] = []
    split = features._split
    monkeypatch.setattr(features, "_split", lambda text, lowercase: calls.append(text) or split(text, lowercase))
    augment = f"augment --cycles 3 --k 3 --repeats 2 --data {data} --pool {inputs}/pool.jsonl --config {inputs}/ridge.json"
    for name, line, texts in (
        ("train", f"train --family svr --data {data}", table_texts),  # svr featurizes its validation set too
        ("evaluate", f"evaluate --family svr --repeats 3 --data {data}", table_texts),
        ("augment", augment, table_texts | pool_texts),
    ):
        calls.clear()
        assert main(shlex.split(f"{line} --out {tmp_path}/{name}")) == EXIT_OK
        assert sorted(calls) == sorted(texts), name


def test_tokens_read_as_their_texts_and_featurize_as_them(monkeypatch):
    calls: list[str] = []
    split = features._split
    monkeypatch.setattr(features, "_split", lambda text, lowercase: calls.append(text) or split(text, lowercase))
    texts = ["a b", "c a", "a b", "d e f"]
    tokens = tokenize(texts, UNIGRAM)
    assert sorted(calls) == ["a b", "c a", "d e f"]  # a repeated text is split once
    assert len(tokens) == 4 and list(tokens) == texts and tokens[3] == "d e f"
    vocab = fit_vocabulary(tokens, UNIGRAM)
    assert vocab.term_index == fit_vocabulary(texts, UNIGRAM).term_index
    other = tokenize(["f a z"], UNIGRAM)
    assert transform_many(vocab, texts).shape == (4, len(vocab))  # numbers the vocabulary's terms
    later = tokenize(["z b a", "q c c", "a b"], UNIGRAM)  # words first numbered after that
    for subset in (tokens.take([3, 0]), tokens[1:], other, later):
        got, want = transform_many(vocab, subset), transform_many(vocab, list(subset))
        assert (got != want).nnz == 0 and got.data.tobytes() == want.data.tobytes()


def test_tokens_split_under_another_lowercase_setting_are_split_again():
    cased = tokenize(["Ab AB ab x"], FeatureConfig(lowercase=False))
    vocab = fit_vocabulary(["ab x", "AB"], UNIGRAM)
    assert transform_many(vocab, cased).data.tobytes() == transform_many(vocab, list(cased)).data.tobytes()
    assert tokenize(cased, UNIGRAM).lowercase and tokenize(cased, FeatureConfig(lowercase=False)) is cased


def test_ascii_split_is_the_regex_split():
    pattern = re.compile(r"[^\W_]+")
    texts = [text for c in map(chr, range(128)) for text in (c, f"a{c}B", f"{c}{c}x1{c}")]
    texts += ["ΑΣ", "straße", "\u212a", "\u212aelvin x_y", "Ab ΣΑΣ-c9 straße_42 İ"]
    for text in texts:
        for lowercase in (False, True):
            assert features._split(text, lowercase) == pattern.findall(text.lower() if lowercase else text), text


def test_transform_many_matches_oracle_on_a_hand_built_vocabulary(monkeypatch):
    # a fitted vocabulary holds every prefix of its terms; this one does not:
    # "zz" is not a term, nor is "a c", and "a b c d" is longer than ngram_max
    config = FeatureConfig(min_token_len=1, ngram_max=3, min_df=1, max_features=None, stopwords=("the",))
    terms = ["c d a", "b", "zz b", "a b c d", "a c d", "x b", "a", "the b", "a b", "d", "c"]
    vocab = Vocabulary({t: i for i, t in enumerate(terms)}, {t: 1 + i % 3 for i, t in enumerate(terms)}, 9, config)
    texts = [
        "a b", "c d", "zz b a c d", "a c d a b",
        "x a", "b y",  # "a b" only across two texts, in one block of two
        "a b c d", "", "x the b zz", "b c d a",
    ]
    monkeypatch.setattr(features, "_NUMBERING_ROWS", 2)
    got, want = transform_many(vocab, texts), tfidf_rows(vocab, texts)
    assert np.array_equal(got.indptr, want.indptr) and np.array_equal(got.indices, want.indices)
    assert got.data.tobytes() == want.data.tobytes()
    assert got[4:6].indices.tolist() == [terms.index("a"), terms.index("b")]  # no "a b" across the two rows


def test_transform_many_is_the_same_in_any_block_size(monkeypatch):
    corpus = ["a b c", "b c d", "c d a a", "", "zz"]
    vocab = fit_vocabulary(corpus, UNIGRAM)
    whole = transform_many(vocab, corpus)
    monkeypatch.setattr(features, "_NUMBERING_ROWS", 2)
    blocked = transform_many(vocab, corpus)
    assert np.array_equal(whole.indptr, blocked.indptr) and np.array_equal(whole.indices, blocked.indices)
    assert whole.data.tobytes() == blocked.data.tobytes()


def test_transform_many_of_a_take_matches_oracle_in_any_numbering_block(monkeypatch):
    # one word map for the whole tokenize call serves every block of the take
    config = FeatureConfig(min_token_len=2, ngram_max=3, min_df=1, max_features=None, stopwords=("the", "of"))
    rng = np.random.default_rng(3)
    words = ["the", "of", "a", "I", "cat", "dog", "sat", "on", "mat", "Zz", "x9", "ran"]
    texts = [" ".join(rng.choice(words, size=rng.integers(0, 9))) for _ in range(40)]
    vocab = fit_vocabulary(texts[:25], config)
    tokens = tokenize(texts, config)
    subset = tokens.take([30, 3, 3, 39, 0, 17, 26, 11, 34])  # rows past the fit, a repeat, out of order
    want = tfidf_rows(vocab, list(subset))
    for rows in (1, 2, 5):
        monkeypatch.setattr(features, "_NUMBERING_ROWS", rows)
        got = transform_many(vocab, subset)
        assert np.array_equal(got.indptr, want.indptr) and np.array_equal(got.indices, want.indices), rows
        assert got.data.tobytes() == want.data.tobytes(), rows


def _ngrams_by_unique(ids, row, n_max, radix):
    """The reference numbering: _ngrams with each length numbered by np.unique's inverse."""
    key = ids.copy()
    yield np.arange(len(ids)), key, radix, np.arange(radix)
    for n in range(2, n_max + 1):
        start = np.flatnonzero(row[: max(len(row) - n + 1, 0)] == row[n - 1 :])
        if not len(start):
            return
        pairs, key[start] = np.unique(key[start] * radix + ids[start + n - 1], return_inverse=True)
        yield start, key, len(pairs), pairs


@pytest.mark.parametrize(
    "ids, row",
    [
        ([], []),  # no words
        ([3, 1, 3, 1, 3, 0, 2], [0] * 7),  # one row
        ([2] * 9, [0, 0, 0, 0, 1, 1, 1, 2, 2]),  # all words equal
        ([0, 1, 1, 2], [0, 1, 2, 3]),  # one word per row
        ([4, 0, 4, 0, 1, 4, 0, 4, 0, 2, 3, 4, 0], [0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 3, 3]),
    ],
    ids=["no_words", "one_row", "all_equal", "one_word_rows", "rows"],
)
@pytest.mark.parametrize("n_max", [1, 2, 3, 4])
def test_ngrams_number_as_np_unique_does(ids, row, n_max):
    ids, row = np.array(ids, dtype=np.int64), np.array(row, dtype=np.int64)
    got = [(start, key.copy(), n_keys, pairs) for start, key, n_keys, pairs in features._ngrams(ids, row, n_max, 5)]
    want = [(start, key.copy(), n_keys, pairs) for start, key, n_keys, pairs in _ngrams_by_unique(ids, row, n_max, 5)]
    assert len(got) == len(want)
    for (start, key, n_keys, pairs), (start_u, key_u, n_keys_u, pairs_u) in zip(got, want):
        assert np.array_equal(start, start_u) and n_keys == n_keys_u
        assert np.array_equal(key[start], key_u[start_u]) and np.array_equal(pairs, pairs_u)


def test_transform_many_holds_one_numbering_block_at_a_time():
    # 8,192 Zipfian texts of 10-60 words: 286,595 words, a 26,866-term vocabulary. Numbered
    # 8,192 rows at a time, the transform held 26.9 MB above its result; 2,048 at a time, 12.5 MB
    rng = np.random.default_rng(5)
    names = [f"w{i}" for i in range(3000)]
    p = 1.0 / np.arange(1, 3001) ** 1.1
    texts = [" ".join(names[j] for j in rng.choice(3000, size=n, p=p / p.sum())) for n in rng.integers(10, 61, size=8192)]
    vocab, tokens = fit_vocabulary(texts), tokenize(texts)
    assert (len(vocab), len(tokens.ids)) == (26866, 286595)
    vocab._numbered_terms()
    matrix, peak = traced_peak(transform_many, vocab, tokens)
    result = matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
    assert peak - result < 14_000_000, peak - result


def test_single_term_vector_normalizes_to_one():
    vocab = fit_vocabulary(["solo"], FeatureConfig(min_df=1))
    assert row(vocab, "solo") == ((0,), (1.0,))


def test_l2_scale_invariance_for_single_term():
    vocab = fit_vocabulary(["b b", "b"], UNIGRAM)
    assert row(vocab, "b b") == row(vocab, "b")


def test_hand_computed_tfidf():
    # corpus ["a b", "b c"]: idf(a) = ln(3/2)+1, idf(b) = ln(3/3)+1 = 1
    # "a b b": unnormalized (1*idf_a, 2*1), then L2-normalized
    vocab = fit_vocabulary(["a b", "b c"], UNIGRAM)
    assert vocab.idf("a") == pytest.approx(1.4054651081081644, abs=1e-15)
    assert vocab.idf("b") == pytest.approx(1.0, abs=1e-15)
    indices, weights = row(vocab, "a b b")
    by_term = {term: weights[indices.index(idx)] for term, idx in vocab.term_index.items() if idx in indices}
    assert by_term["a"] == pytest.approx(0.5749618667993135, abs=1e-12)
    assert by_term["b"] == pytest.approx(0.8181802073667197, abs=1e-12)


def test_out_of_vocabulary_terms_ignored():
    vocab = fit_vocabulary(["a b", "b c"], UNIGRAM)
    assert row(vocab, "zz yy b")[0] == (vocab.term_index["b"],)


def test_zero_vector_for_fully_oov_text():
    vocab = fit_vocabulary(["a b", "b c"], UNIGRAM)
    assert row(vocab, "zz yy") == ((), ())


def test_vocabulary_json_round_trip():
    vocab = fit_vocabulary(["a b", "b c d", "d"], UNIGRAM)
    clone = Vocabulary.from_json(json.loads(json.dumps(vocab.to_json())))
    assert clone.term_index == vocab.term_index
    assert clone.doc_freq == vocab.doc_freq
    assert clone.n_documents == vocab.n_documents
    assert row(clone, "a b d") == row(vocab, "a b d")


def test_to_csr_sorts_indices_and_sums_duplicates():
    coo = sparse.coo_matrix(([0.5, 0.25, 0.25, 1.0], ([0, 0, 0, 1], [1, 0, 1, 0])), shape=(2, 3), dtype=np.float32)
    matrix = to_csr(coo)
    assert matrix.format == "csr" and matrix.dtype == np.float64 and matrix.shape == (2, 3)
    assert matrix.indptr.tolist() == [0, 2, 3]
    assert matrix.indices.tolist() == [0, 1, 0] and matrix.data.tolist() == [0.25, 0.75, 1.0]
    unsorted = sparse.csr_matrix(([0.5, 0.25], [1, 0], [0, 2]), shape=(1, 2))
    assert to_csr(unsorted).indices.tolist() == [0, 1]
    assert unsorted.indices.tolist() == [1, 0]  # a copy: the caller's matrix is left as it was
    with pytest.raises(FeatureError, match="sparse matrix"):
        to_csr([[1.0, 0.0]])


def test_sublinear_tf_matches_oracle_at_large_counts():
    # numpy's vectorized log may round differently from math.log; numpy 2.4
    # on x86-64 does at 9170, so tf weights must come from math.log
    config = FeatureConfig(min_token_len=1, ngram_max=1, min_df=1, sublinear_tf=True)
    texts = ["a " * 9170 + "b", "b c"]
    vocab = fit_vocabulary(texts, config)
    assert transform_many(vocab, texts).data.tobytes() == tfidf_rows(vocab, texts).data.tobytes()


def test_to_csr_stacks_in_order():
    vocab = fit_vocabulary(["a b", "b c"], UNIGRAM)
    rows = transform_many(vocab, ["a", "c b"])
    matrix = to_csr(sparse.vstack([rows[0], rows[1]], format="coo"))
    assert matrix.shape == (2, 3)
    assert matrix[0, vocab.term_index["a"]] == pytest.approx(1.0)
    assert (matrix != rows).nnz == 0


_texts = st.lists(st.text(alphabet="abcd ", min_size=1, max_size=12), min_size=1, max_size=8)


@pytest.mark.property
@given(_texts, st.text(alphabet="abcdez ", max_size=12))
def test_transform_deterministic_and_in_range(corpus, query):
    try:
        vocab = fit_vocabulary(corpus, UNIGRAM)
    except EmptyVocabularyError:
        return
    first = row(vocab, query)
    second = row(vocab, query)
    assert first == second
    indices, weights = first
    assert all(i < vocab.dimension for i in indices)
    in_vocab = [t for t in oracle_tokenize(query, vocab.config) if t in vocab.term_index]
    if in_vocab:
        assert math.sqrt(sum(w * w for w in weights)) == pytest.approx(1.0, abs=1e-12)
    else:
        assert indices == ()


@pytest.mark.property
@given(_texts)
def test_fit_transform_indices_within_bounds(corpus):
    try:
        vocab = fit_vocabulary(corpus, UNIGRAM)
    except EmptyVocabularyError:
        return
    for text in corpus:
        indices, _ = row(vocab, text)
        assert all(i < len(vocab) for i in indices)
        assert list(indices) == sorted(set(indices))


# Words that repeat across texts (so df ties and tf > 1 are common), with
# underscores, digits and non-ASCII case: "ΣΑΣ" lowercases with a final sigma,
# "İ" to two code points, "ß" stays one word.
_WORDS = ["a", "b", "ab", "Ab", "AB", "c9", "42", "x_y", "the", "ΣΑΣ", "σας", "İ", "i̇", "ß", "SS", "ǅ"]
_SEPARATORS = [" ", "  ", "_", ", ", "-", "\n"]
_text = st.one_of(
    st.lists(st.tuples(st.sampled_from(_WORDS), st.sampled_from(_SEPARATORS)), max_size=9).map(
        lambda parts: "".join(w + sep for w, sep in parts)
    ),
    st.text(alphabet="aAb _1ΣσςİßS,", max_size=12),
)


@st.composite
def _corpus(draw):
    """Texts, some of them repeated, in a drawn order."""
    distinct = draw(st.lists(_text, min_size=1, max_size=6))
    return draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=9))


_configs = st.builds(
    FeatureConfig,
    lowercase=st.booleans(),
    min_token_len=st.integers(1, 3),
    ngram_max=st.integers(1, 3),
    min_df=st.integers(1, 3),
    max_features=st.one_of(st.none(), st.integers(1, 8)),
    sublinear_tf=st.booleans(),
    stopwords=st.lists(st.sampled_from(["a", "the", "ab", "σας", "ß"]), max_size=2).map(tuple),
)


@pytest.mark.property
@given(_configs, _corpus())
def test_fit_vocabulary_matches_oracle(config, texts):
    expected = fit_terms(texts, config)
    if expected is None:
        with pytest.raises(EmptyVocabularyError):
            fit_vocabulary(texts, config)
        return
    vocab = fit_vocabulary(texts, config)
    assert vocab.term_index == expected[0]
    assert vocab.doc_freq == expected[1]
    assert vocab.n_documents == len(texts)


@pytest.mark.property
@given(_configs, _corpus(), st.lists(_text, max_size=4))
def test_transform_many_matches_oracle_bit_for_bit(config, texts, others):
    if fit_terms(texts, config) is None:
        return
    vocab = fit_vocabulary(texts, config)
    queries = texts + others + ["", "!!"]
    got, want = transform_many(vocab, queries), tfidf_rows(vocab, queries)
    assert got.shape == want.shape
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.data.tobytes() == want.data.tobytes()
