"""TF-IDF featurization of target posts for the classical regressors.

Tokenizer: Unicode lowercasing, split on non-alphanumeric runs, tokens of a
configurable minimum length, unigrams plus bigrams by default. Weights use
the smoothed idf ln((1 + N) / (1 + df)) + 1 and are L2-normalized. Only the
target text is featurized; the parent is deliberately ignored.

Whoever featurizes the same texts more than once (a fit and its transform,
cross-validation folds, augmentation cycles) holds them as `Tokens`, split
once; each `Tokens` carries its own word list, and its word ids index it.
Plain texts are tokenized by the call that featurizes them and then dropped,
and the featurizer holds no process-wide state.

One numbering of n-grams, _ngrams, serves fit and transform: an n-gram is
numbered as the pair (number of its first n - 1 words, id of its last word),
one length at a time, so keys stay within int64 for any ngram_max. A fit
numbers its corpus; a transform numbers each block of _NUMBERING_ROWS rows
together with the vocabulary's terms, and a block's n-gram takes the column
of the term with its number.
"""

from __future__ import annotations

import itertools
import math
import re
from array import array
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Callable, Iterator, Sequence

import numpy as np
from scipy import sparse

from . import _fork
from .settings import FeatureConfig, FeatureError  # noqa: F401 - re-exported; settings needs no SciPy

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# On ASCII, [^\W_] is str.isalnum(): every other ASCII character ends a word.
_ASCII_BREAKS = str.maketrans({chr(c): " " for c in range(128) if not chr(c).isalnum()})

VOCABULARY_FORMAT_VERSION = 1

# Rows that score_in_parts scores at once: bounds the matrix a score gets.
_BLOCK_ROWS = 8192
# Rows whose n-grams transform_many numbers together: bounds its temporaries.
_NUMBERING_ROWS = 2048


class EmptyVocabularyError(FeatureError):
    pass


def _split(text: str, lowercase: bool) -> list[str]:
    """The words of text: _TOKEN_RE's matches, found by str.split on ASCII."""
    if lowercase:
        text = text.lower()
    return text.translate(_ASCII_BREAKS).split() if text.isascii() else _TOKEN_RE.findall(text)


def _numbering() -> defaultdict:
    """A dict that gives each new key the next number, 0, 1, ..., when read."""
    index: defaultdict = defaultdict()
    index.default_factory = index.__len__
    return index


@dataclass(frozen=True, eq=False)
class Tokens:
    """Texts split into words once, by tokenize(); reads as the sequence of
    its texts. The words of text i are ids[starts[i]:starts[i] + counts[i]],
    places in its own word list `words`, before any length or stopword
    filter, so one split serves every FeatureConfig with the same lowercase
    setting. tokenize() writes the ids end to end; the Tokens that take()
    makes share the ids and the words."""

    texts: tuple[str, ...]
    lowercase: bool
    ids: np.ndarray
    words: tuple[str, ...]
    starts: np.ndarray
    counts: np.ndarray

    def __len__(self) -> int:
        return len(self.texts)

    def __iter__(self) -> Iterator[str]:
        return iter(self.texts)

    def __getitem__(self, rows):
        """A text, or for a slice the Tokens of those rows."""
        return self.take(np.arange(*rows.indices(len(self)))) if isinstance(rows, slice) else self.texts[rows]

    def take(self, rows) -> Tokens:
        """The rows (row indices), in that order."""
        rows = np.asarray(rows, dtype=np.int64)
        texts = tuple(map(self.texts.__getitem__, rows.tolist()))
        return Tokens(texts, self.lowercase, self.ids, self.words, self.starts[rows], self.counts[rows])


def tokenize(texts: Sequence[str] | Tokens, config: FeatureConfig | None = None) -> Tokens:
    """texts split under config's lowercase setting, their words numbered
    for this call only; Tokens already split under it are returned as they
    are. A repeated text is split once."""
    lowercase = (config or FeatureConfig()).lowercase
    if isinstance(texts, Tokens):
        if texts.lowercase == lowercase:
            return texts
        texts = texts.texts
    texts = tuple(texts)
    distinct = dict.fromkeys(texts)
    index, ids, counts = _numbering(), array("i"), array("q")
    for text in distinct:
        words = _split(text, lowercase)
        ids.extend(map(index.__getitem__, words))
        counts.append(len(words))
    ids, counts = np.frombuffer(ids, dtype=np.int32), np.frombuffer(counts, dtype=np.int64)
    tokens = Tokens(tuple(distinct), lowercase, ids, tuple(index), np.cumsum(counts) - counts, counts)
    if len(distinct) < len(texts):
        row = dict(zip(distinct, itertools.count()))
        tokens = tokens.take(np.fromiter(map(row.__getitem__, texts), dtype=np.int64, count=len(texts)))
    return tokens


def score_in_parts(vocab: Vocabulary, texts: Sequence[str] | Tokens, score: Callable[..., np.ndarray]) -> np.ndarray:
    """score(block) for each block of _BLOCK_ROWS rows of texts, joined in
    order. The blocks are dealt out in contiguous parts, one per forked
    process (see _fork.bounds); a forked part sends back only its scores.
    The vocabulary's terms are numbered first, so no part numbers its own. A
    score's transform numbers its block _NUMBERING_ROWS rows at a time."""
    vocab._numbered_terms()
    ends = _fork.bounds(len(texts), len(texts))

    def part(i: int) -> np.ndarray:
        firsts = range(ends[i], ends[i + 1], _BLOCK_ROWS)
        return np.concatenate([score(texts[first : min(first + _BLOCK_ROWS, ends[i + 1])]) for first in firsts])

    return np.concatenate(_fork.run(part, len(ends) - 1))


def _word_map(words: Sequence[str], config: FeatureConfig, index: dict[str, int] | None = None) -> np.ndarray:
    """Each word's number in index (len(index) if not there; without an index,
    its place in words), or -1 where config drops it (too short, a stopword)."""
    number = np.arange(len(words)) if index is None else np.fromiter(
        map(index.get, words, itertools.repeat(len(index))), dtype=np.int64, count=len(words))
    keep = np.fromiter(map(len, words), dtype=np.int64, count=len(words)) >= config.min_token_len
    if config.stopwords:
        keep &= ~np.fromiter(map(set(config.stopwords).__contains__, words), dtype=bool, count=len(words))
    return np.where(keep, number, -1)


def _kept(tokens: Tokens, word_map: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """word_map of each word of tokens that it does not mark -1, end to end, and the row of each."""
    counts = tokens.counts
    ids = word_map[tokens.ids[np.arange(counts.sum()) + np.repeat(tokens.starts - np.cumsum(counts) + counts, counts)]]
    keep = ids >= 0
    return ids[keep], np.repeat(np.arange(len(counts)), counts)[keep]


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values; sorting beats np.unique's hashing on large int arrays."""
    values = np.sort(values)
    return values[np.concatenate(([True], values[1:] != values[:-1]))]


def _ngrams(ids: np.ndarray, row: np.ndarray, n_max: int, radix: int) -> Iterator[tuple]:
    """For n = 1, 2, ..., n_max, while some row holds n words: (start, key,
    n_keys, pairs). start holds the start of every run of n consecutive
    words within a row, and key, at each start, the number (< n_keys) of the
    n-gram starting there; equal n-grams get equal numbers, in any row. Each
    n-gram's pair (number of its first n - 1 words) * radix + (id of its last
    word), with radix above every id, is pairs[its number], pairs sorted."""
    key = ids.copy()
    yield np.arange(len(ids)), key, radix, np.arange(radix)
    for n in range(2, n_max + 1):
        start = np.flatnonzero(row[: max(len(row) - n + 1, 0)] == row[n - 1 :])
        if not len(start):
            return
        pairs = key[start] * radix + ids[start + n - 1]
        order = np.argsort(pairs)
        pairs = pairs[order]
        first = np.concatenate(([True], pairs[1:] != pairs[:-1]))  # of each distinct pair
        key[start[order]] = np.cumsum(first) - 1  # np.unique's inverse, holding fewer start-sized arrays
        pairs = pairs[first]
        del order
        yield start, key, len(pairs), pairs
        del start, pairs  # not held while the next length is numbered


class Vocabulary:
    """Term index with document frequencies; immutable once fitted."""

    def __init__(
        self,
        term_index: dict[str, int],
        doc_freq: dict[str, int],
        n_documents: int,
        config: FeatureConfig,
    ):
        self.term_index = dict(term_index)
        self.doc_freq = dict(doc_freq)
        self.n_documents = n_documents
        self.config = config
        df, inverse = np.unique([self.doc_freq[term] for term in self.term_index], return_inverse=True)
        idf = [math.log((1.0 + n_documents) / (1.0 + d)) + 1.0 for d in df.tolist()]  # one log per distinct df
        self._idf = np.zeros(len(self.term_index))
        self._idf[list(self.term_index.values())] = np.array(idf)[inverse]
        self._terms: tuple | None = None

    def _numbered_terms(self) -> tuple[dict[str, int], np.ndarray, np.ndarray, np.ndarray]:
        """The terms of at most ngram_max words, built on first use: each of
        their words' number, every term's word numbers end to end, and each
        term's length and column."""
        if self._terms is None:
            terms = [term for term in self.term_index if term.count(" ") < self.config.ngram_max]
            flat = " ".join(terms).split(" ") if terms else []  # every term's words, end to end
            index = _numbering()
            words = np.fromiter(map(index.__getitem__, flat), dtype=np.int64, count=len(flat))
            length = np.fromiter(map(str.count, terms, itertools.repeat(" ")), dtype=np.int64, count=len(terms)) + 1
            column = np.fromiter(map(self.term_index.__getitem__, terms), dtype=np.int64, count=len(terms))
            self._terms = dict(index), words, length, column
        return self._terms

    def __len__(self) -> int:
        return len(self.term_index)

    @property
    def dimension(self) -> int:
        return len(self.term_index)

    def idf(self, term: str) -> float:
        return float(self._idf[self.term_index[term]])

    def to_json(self) -> dict:
        terms = sorted(self.term_index.items(), key=lambda kv: kv[1])
        return {
            "format_version": VOCABULARY_FORMAT_VERSION,
            "n_documents": self.n_documents,
            "config": asdict(self.config) | {"stopwords": list(self.config.stopwords)},
            "terms": [[term, idx, self.doc_freq[term]] for term, idx in terms],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Vocabulary":
        if obj.get("format_version") != VOCABULARY_FORMAT_VERSION:
            raise FeatureError(f"unsupported vocabulary format {obj.get('format_version')!r}")
        cfg = dict(obj["config"])
        cfg["stopwords"] = tuple(cfg.get("stopwords", ()))
        config = FeatureConfig(**cfg)
        entries = obj["terms"]
        term_index = {term: idx for term, idx, _ in entries}
        if len(term_index) < len(entries) or not all(type(term) is str for term in term_index):
            raise FeatureError("vocabulary terms must be distinct strings")
        if sorted(idx if type(idx) is int else -1 for idx in term_index.values()) != list(range(len(entries))):
            raise FeatureError(f"vocabulary columns must be 0..{len(entries) - 1}, each once")
        n_documents = obj["n_documents"]
        if type(n_documents) is not int or n_documents < 1:
            raise FeatureError(f"vocabulary n_documents must be an int >= 1, got {n_documents!r}")
        doc_freq = {term: df for term, _, df in entries}
        if not all(type(df) is int and 1 <= df <= n_documents for df in doc_freq.values()):
            raise FeatureError(f"vocabulary document frequencies must be ints in [1, {n_documents}]")
        return cls(term_index, doc_freq, n_documents, config)


def fit_vocabulary(texts: Sequence[str] | Tokens, config: FeatureConfig | None = None) -> Vocabulary:
    """Build a vocabulary: df filter, then cap by highest df, then index by term.

    Deterministic given identical inputs and config: ties in the max_features
    cut break lexicographically, and indices follow sorted term order.
    """
    config = config or FeatureConfig()
    if not texts:
        raise FeatureError("texts must be nonempty")
    tokens = tokenize(texts, config)
    words, row = _kept(tokens, _word_map(tokens.words, config))
    if not len(words):
        raise EmptyVocabularyError("corpus is empty after tokenization")
    n_rows, names = len(texts), tokens.words
    kept: list[tuple[str, int]] = []
    terms: dict[int, str] = {}  # the names of the frequent (n - 1)-grams, by number
    for n, (start, key, n_keys, pairs) in enumerate(_ngrams(words, row, config.ngram_max, len(names)), 1):
        df = np.bincount(_distinct(key[start] * n_rows + row[start]) // n_rows, minlength=n_keys)
        # every n-gram's first n - 1 words are at least as frequent, so already named
        frequent = np.flatnonzero(df >= config.min_df)
        prefix, last = np.divmod(pairs[frequent], len(names))
        pieces = zip(frequent.tolist(), prefix.tolist(), last.tolist())
        terms = {k: (terms[p] + " " if n > 1 else "") + names[w] for k, p, w in pieces}
        kept.extend(zip(terms.values(), df[frequent].tolist()))
        del start, pairs, df  # not held while the next length is numbered
    if not kept:
        raise EmptyVocabularyError(f"no term reaches min_df={config.min_df}")
    if config.max_features is not None and len(kept) > config.max_features:
        kept.sort(key=lambda tc: (-tc[1], tc[0]))
        kept = kept[: config.max_features]
    kept.sort(key=lambda tc: tc[0])
    term_index = {term: i for i, (term, _) in enumerate(kept)}
    doc_freq = {term: count for term, count in kept}
    return Vocabulary(term_index, doc_freq, n_documents=len(texts), config=config)


def _cells(vocab: Vocabulary, block: Tokens, word_map: np.ndarray) -> np.ndarray:
    """row * dimension + column of every in-vocabulary n-gram occurrence in
    block. The block's kept words (word_map, by _word_map) and the vocabulary's
    terms, each term a row of its own after the block's, are numbered together
    by _ngrams, the vocabulary's words as 0..w-1 and every other word as w; a
    block n-gram takes the column of the term that gets its number."""
    index, term_words, term_length, term_column = vocab._numbered_terms()
    ids, row = _kept(block, word_map)
    n_block, term_first = len(ids), len(ids) + np.cumsum(term_length) - term_length  # each term's first word
    ids = np.concatenate([ids, term_words])
    row = np.concatenate([row, len(block) + np.repeat(np.arange(len(term_length)), term_length)])
    cells = []
    for n, (start, key, n_keys, pairs) in enumerate(_ngrams(ids, row, vocab.config.ngram_max, len(index) + 1), 1):
        column = np.full(n_keys, -1)
        column[key[term_first[term_length == n]]] = term_column[term_length == n]
        start = start[start < n_block]  # the block's runs of words
        column = column[key[start]]
        hit = column >= 0
        cells.append(row[start[hit]] * vocab.dimension + column[hit])
        del start, pairs, column, hit  # not held while the next length is numbered
    return np.concatenate(cells)


def transform_many(vocab: Vocabulary, texts: Sequence[str] | Tokens) -> sparse.csr_matrix:
    """tf * idf, L2-normalized, one CSR row per text in input order.

    Out-of-vocabulary terms are ignored; a text with no in-vocabulary term
    gives an empty row. Each row's squared weights are summed in column order
    from zero, by a CSR matrix-vector product. texts are tokenized once per
    call (Tokens split under the vocabulary's lowercase setting are used as
    they are), and their words mapped to the vocabulary's words once. Each
    block of _NUMBERING_ROWS texts is numbered together with the
    vocabulary's terms, and its entries are written into the result's
    arrays, which grow in place to what the rows done so far project, so
    that no block is held twice.
    """
    config, dimension = vocab.config, vocab.dimension
    ones = np.ones(dimension)
    texts = tokenize(texts, config)
    indices, data, indptr = np.zeros(0, dtype=np.int32), np.zeros(0), np.zeros(len(texts) + 1, dtype=np.int64)
    word_map = _word_map(texts.words, config, vocab._numbered_terms()[0])
    for first in range(0, len(texts), _NUMBERING_ROWS):
        block = texts[first : first + _NUMBERING_ROWS]
        cells, tf = np.unique(_cells(vocab, block, word_map), return_counts=True)
        row, col = np.divmod(cells, dimension)
        col = col.astype(np.int32)
        if config.sublinear_tf:
            distinct, inverse = np.unique(tf, return_inverse=True)
            weight = np.array([1.0 + math.log(t) for t in distinct.tolist()])[inverse]
        else:
            weight = tf.astype(np.float64)
        weight *= vocab._idf[col]
        ends = np.cumsum(np.bincount(row, minlength=len(block)))
        squares = sparse.csr_matrix((weight * weight, col, np.append(0, ends)), shape=(len(block), dimension)) @ ones
        weight /= np.sqrt(squares)[row]
        start, end = indptr[first], indptr[first] + len(col)
        if end > len(indices):  # to what the rows done so far project for all, and by 1/8 at least
            for array in (indices, data):
                array.resize(max(end * len(texts) // (first + len(block)), len(array) * 9 // 8), refcheck=False)
        indices[start:end], data[start:end] = col, weight
        indptr[first + 1 : first + len(block) + 1] = start + ends
        del cells, tf, row, col, weight, squares  # not held while the next block is numbered
    for array in (indices, data):
        array.resize(indptr[-1], refcheck=False)
    return sparse.csr_matrix((data, indices, indptr), shape=(len(texts), dimension))


def to_csr(matrix) -> sparse.csr_matrix:
    """A copy of a scipy sparse matrix as canonical float64 CSR: indices
    sorted within each row, duplicate entries summed."""
    if not sparse.issparse(matrix):
        raise FeatureError(f"expected a scipy sparse matrix, got {type(matrix).__name__}")
    matrix = sparse.csr_matrix(matrix, dtype=np.float64, copy=True)
    matrix.sum_duplicates()
    return matrix
