import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctxsens import features
from ctxsens.features import (
    EmptyVocabularyError,
    FeatureConfig,
    FeatureVector,
    Vocabulary,
    fit_vocabulary,
    to_csr,
    transform,
    transform_many,
)

from oracles import fit_terms, tfidf_rows, tokenize

UNIGRAM = FeatureConfig(min_token_len=1, ngram_max=1, min_df=1, max_features=None)


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
    assert terms == set(tokenize("An API, the API-token!", FeatureConfig()))


def test_tokenizer_splits_on_non_alphanumeric_runs():
    assert _terms("foo_bar 42x,y;z9", min_token_len=1, ngram_max=1) == {"foo", "bar", "42x", "y", "z9"}


def test_text_memo_keeps_tokenizer_settings_apart():
    text = "Ab ab AB x y"
    assert _terms(text, min_token_len=1, ngram_max=1) == {"ab", "x", "y"}
    assert _terms(text, min_token_len=1, ngram_max=1, lowercase=False) == {"Ab", "ab", "AB", "x", "y"}
    assert _terms(text, ngram_max=1) == {"ab"}
    assert _terms(text, min_token_len=1, ngram_max=1, stopwords=("ab",)) == {"x", "y"}


def test_each_distinct_text_is_split_once(monkeypatch):
    calls: list[str] = []
    pattern = features._TOKEN_RE

    class Counting:
        def findall(self, text):
            calls.append(text)
            return pattern.findall(text)

    monkeypatch.setattr(features, "_TOKEN_RE", Counting())
    texts = ["split-once probe one two", "split-once probe two three", "split-once probe one two"]
    config = FeatureConfig(min_df=1)
    vocab = fit_vocabulary(texts, config)
    transform_many(vocab, texts)
    transform_many(vocab, texts[::-1])
    fit_vocabulary(texts, FeatureConfig(min_token_len=3, ngram_max=3))
    assert sorted(calls) == sorted(t.lower() for t in set(texts))


def test_transform_many_is_the_same_in_any_block_size(monkeypatch):
    corpus = ["a b c", "b c d", "c d a a", "", "zz"]
    vocab = fit_vocabulary(corpus, UNIGRAM)
    whole = transform_many(vocab, corpus)
    monkeypatch.setattr(features, "_BLOCK_ROWS", 2)
    blocked = transform_many(vocab, corpus)
    assert np.array_equal(whole.indptr, blocked.indptr) and np.array_equal(whole.indices, blocked.indices)
    assert whole.data.tobytes() == blocked.data.tobytes()


def test_single_term_vector_normalizes_to_one():
    vocab = fit_vocabulary(["solo"], FeatureConfig(min_df=1))
    vec = transform(vocab, "solo")
    assert vec.indices == (0,)
    assert vec.weights == (1.0,)


def test_l2_scale_invariance_for_single_term():
    vocab = fit_vocabulary(["b b", "b"], UNIGRAM)
    assert transform(vocab, "b b") == transform(vocab, "b")


def test_hand_computed_tfidf():
    # corpus ["a b", "b c"]: idf(a) = ln(3/2)+1, idf(b) = ln(3/3)+1 = 1
    # "a b b": unnormalized (1*idf_a, 2*1), then L2-normalized
    vocab = fit_vocabulary(["a b", "b c"], UNIGRAM)
    assert vocab.idf("a") == pytest.approx(1.4054651081081644, abs=1e-15)
    assert vocab.idf("b") == pytest.approx(1.0, abs=1e-15)
    vec = transform(vocab, "a b b")
    by_term = {term: vec.weights[vec.indices.index(idx)] for term, idx in vocab.term_index.items() if idx in vec.indices}
    assert by_term["a"] == pytest.approx(0.5749618667993135, abs=1e-12)
    assert by_term["b"] == pytest.approx(0.8181802073667197, abs=1e-12)


def test_out_of_vocabulary_terms_ignored():
    vocab = fit_vocabulary(["a b", "b c"], UNIGRAM)
    vec = transform(vocab, "zz yy b")
    assert vec.indices == (vocab.term_index["b"],)


def test_zero_vector_for_fully_oov_text():
    vocab = fit_vocabulary(["a b", "b c"], UNIGRAM)
    vec = transform(vocab, "zz yy")
    assert vec.indices == () and vec.norm() == 0.0


def test_vocabulary_json_round_trip():
    vocab = fit_vocabulary(["a b", "b c d", "d"], UNIGRAM)
    clone = Vocabulary.loads(vocab.dumps())
    assert clone.term_index == vocab.term_index
    assert clone.doc_freq == vocab.doc_freq
    assert clone.n_documents == vocab.n_documents
    assert transform(clone, "a b d") == transform(vocab, "a b d")


def test_feature_vector_invariants():
    with pytest.raises(ValueError):
        FeatureVector(indices=(1, 0), weights=(0.5, 0.5), dimension=2)
    with pytest.raises(ValueError):
        FeatureVector(indices=(3,), weights=(1.0,), dimension=2)


def test_sublinear_tf_matches_oracle_at_large_counts():
    # numpy's vectorized log may round differently from math.log; numpy 2.4
    # on x86-64 does at 9170, so tf weights must come from math.log
    config = FeatureConfig(min_token_len=1, ngram_max=1, min_df=1, sublinear_tf=True)
    texts = ["a " * 9170 + "b", "b c"]
    vocab = fit_vocabulary(texts, config)
    assert transform_many(vocab, texts).data.tobytes() == tfidf_rows(vocab, texts).data.tobytes()


def test_to_csr_stacks_in_order():
    vocab = fit_vocabulary(["a b", "b c"], UNIGRAM)
    matrix = to_csr([transform(vocab, "a"), transform(vocab, "c b")])
    assert matrix.shape == (2, 3)
    assert matrix[0, vocab.term_index["a"]] == pytest.approx(1.0)
    assert (matrix != transform_many(vocab, ["a", "c b"])).nnz == 0


_texts = st.lists(st.text(alphabet="abcd ", min_size=1, max_size=12), min_size=1, max_size=8)


@pytest.mark.property
@given(_texts, st.text(alphabet="abcdez ", max_size=12))
def test_transform_deterministic_and_in_range(corpus, query):
    try:
        vocab = fit_vocabulary(corpus, UNIGRAM)
    except EmptyVocabularyError:
        return
    first = transform(vocab, query)
    second = transform(vocab, query)
    assert first == second
    assert all(i < vocab.dimension for i in first.indices)
    in_vocab = [t for t in tokenize(query, vocab.config) if t in vocab.term_index]
    if in_vocab:
        assert first.norm() == pytest.approx(1.0, abs=1e-12)
    else:
        assert first.indices == ()


@pytest.mark.property
@given(_texts)
def test_fit_transform_indices_within_bounds(corpus):
    try:
        vocab = fit_vocabulary(corpus, UNIGRAM)
    except EmptyVocabularyError:
        return
    for text in corpus:
        vec = transform(vocab, text)
        assert all(i < len(vocab) for i in vec.indices)
        assert list(vec.indices) == sorted(set(vec.indices))


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
