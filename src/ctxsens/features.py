"""TF-IDF featurization of target posts for the classical regressors.

Tokenizer: Unicode lowercasing, split on non-alphanumeric runs, tokens of a
configurable minimum length, unigrams plus bigrams by default. Weights use
the smoothed idf ln((1 + N) / (1 + df)) + 1 and are L2-normalized. Only the
target text is featurized; the parent is deliberately ignored.

Each distinct text goes through the regex once per process: its words become
integer ids in one flat buffer, remembered per (text, lowercase). Fitting and
transforming then work on those ids with numpy. An n-gram is numbered as the
pair (number of its first n - 1 words, id of its last word), one length at a
time, so keys stay within int64 for any ngram_max.
"""

from __future__ import annotations

import itertools
import math
import re
from array import array
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import sparse

from . import _fork

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

VOCABULARY_FORMAT_VERSION = 1

# Rows featurized together by transform_many; bounds its temporary arrays.
_BLOCK_ROWS = 8192


class FeatureError(ValueError):
    pass


class EmptyVocabularyError(FeatureError):
    pass


@dataclass(frozen=True)
class FeatureConfig:
    lowercase: bool = True
    min_token_len: int = 2
    ngram_max: int = 2
    min_df: int = 2
    max_features: int | None = 50_000
    sublinear_tf: bool = False
    stopwords: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.min_token_len < 1:
            raise FeatureError("min_token_len must be >= 1")
        if self.ngram_max < 1:
            raise FeatureError("ngram_max must be >= 1")
        if self.min_df < 1:
            raise FeatureError("min_df must be >= 1")
        if self.max_features is not None and self.max_features < 1:
            raise FeatureError("max_features must be >= 1 or None")
        object.__setattr__(self, "stopwords", tuple(self.stopwords))


class _WordIds:
    """Process-wide word interner and a memo of every text's word ids.

    The words of the text with slot s are buffer[bounds[s]:bounds[s + 1]],
    before any length or stopword filter, so one regex pass serves every
    FeatureConfig with the same lowercase setting. Nothing is evicted: the
    memo holds 4 bytes per word plus a dict entry per distinct text for the
    life of the process (about 11 MB for 58k texts of 35 words).
    """

    def __init__(self) -> None:
        self.index: dict[str, int] = {}
        self.words: list[str] = []
        self.lengths = np.zeros(0, dtype=np.int64)
        self.buffer = np.zeros(0, dtype=np.int32)
        self.bounds = np.zeros(1, dtype=np.int64)
        self.n_slots = 0
        self.slots: dict[bool, dict[str, int]] = {False: {}, True: {}}

    def intern(self, words: Sequence[str]) -> np.ndarray:
        index, before = self.index, len(self.index)
        ids = np.fromiter((index.setdefault(w, len(index)) for w in words), dtype=np.int64, count=len(words))
        self._added(before)
        return ids

    def _added(self, before: int) -> None:
        if len(self.index) > before:
            new = list(itertools.islice(self.index, before, None))
            self.words.extend(new)
            self.lengths = np.concatenate([self.lengths, np.fromiter(map(len, new), dtype=np.int64, count=len(new))])

    def _tokenize(self, texts: Sequence[str], lowercase: bool) -> None:
        missing = [t for t in dict.fromkeys(texts) if t not in self.slots[lowercase]]
        if not missing:
            return
        index, before = self.index, len(self.index)
        findall, known = _TOKEN_RE.findall, index.get
        ids = array("i")
        counts = np.empty(len(missing), dtype=np.int64)
        for i, text in enumerate(missing):
            words = findall(text.lower() if lowercase else text)
            found = list(map(known, words))
            if None in found:
                found = [index.setdefault(w, len(index)) for w in words]
            ids.extend(found)
            counts[i] = len(found)
        self._added(before)
        self._append(missing, lowercase, np.frombuffer(ids, dtype=np.int32), counts)

    def _append(self, texts: Sequence[str], lowercase: bool, ids: np.ndarray, counts: np.ndarray) -> None:
        """Give each text (none in the memo yet) the next slot: its words are
        the next counts[i] of ids."""
        size, n = int(self.bounds[self.n_slots]), self.n_slots
        self.buffer = _grown(self.buffer, size + len(ids))
        self.buffer[size : size + len(ids)] = ids
        self.bounds = _grown(self.bounds, n + len(texts) + 1)
        self.bounds[n + 1 : n + len(texts) + 1] = size + np.cumsum(counts)
        self.slots[lowercase].update(zip(texts, itertools.count(n)))
        self.n_slots += len(texts)

    def mark(self) -> tuple[int, int, int]:
        """The memo's size now, for since()."""
        return len(self.words), len(self.slots[False]), len(self.slots[True])

    def since(self, mark: tuple[int, int, int]) -> tuple:
        """What this process added to the memo after mark, as plain data for
        merge() in another process that holds the same memo up to mark."""
        n_words, *n_texts = mark
        added = []
        for lowercase, start in zip((False, True), n_texts):
            texts = list(itertools.islice(self.slots[lowercase], start, None))
            added.append((texts, *self.rows(texts, lowercase)))
        return n_words, self.words[n_words:], added

    def merge(self, delta: tuple) -> None:
        """Add what since() returned in another process; texts that this
        memo already holds are skipped, and new words are interned here."""
        n_words, words, added = delta
        own_id = np.concatenate([np.arange(n_words), self.intern(words)])  # the other process's id -> this one's
        for lowercase, (texts, ids, counts) in zip((False, True), added):
            new = np.array([text not in self.slots[lowercase] for text in texts], dtype=bool)
            if new.any():
                kept = list(itertools.compress(texts, new))
                self._append(kept, lowercase, own_id[ids[np.repeat(new, counts)]], counts[new])

    def rows(self, texts: Sequence[str], lowercase: bool) -> tuple[np.ndarray, np.ndarray]:
        """Word ids of the texts end to end, and each text's word count."""
        self._tokenize(texts, lowercase)
        slots = np.fromiter(map(self.slots[lowercase].__getitem__, texts), dtype=np.int64, count=len(texts))
        starts = self.bounds[slots]
        counts = self.bounds[slots + 1] - starts
        flat = np.arange(int(counts.sum())) + np.repeat(starts - np.cumsum(counts) + counts, counts)
        return self.buffer[flat], counts


def _grown(buffer: np.ndarray, size: int) -> np.ndarray:
    """buffer, or, if it holds fewer than size items, a longer copy: at least
    size items and twice its old length, so appends cost amortized O(1)."""
    if size <= len(buffer):
        return buffer
    grown = np.zeros(max(size, 2 * len(buffer)), dtype=buffer.dtype)
    grown[: len(buffer)] = buffer
    return grown


_WORD_IDS = _WordIds()


def score_in_parts(texts: Sequence[str], score: Callable[[Sequence[str]], np.ndarray]) -> np.ndarray:
    """score(texts), computed on contiguous parts of texts in forked processes
    (see _fork.bounds) and joined in order; each forked part sends back what
    it added to the memo, and this process merges it."""
    ends, mark = _fork.bounds(len(texts), len(texts)), _WORD_IDS.mark()

    def part(i: int) -> tuple[np.ndarray, tuple | None]:
        return score(texts[ends[i] : ends[i + 1]]), _WORD_IDS.since(mark) if i else None

    parts = _fork.run(part, len(ends) - 1)
    for _, added in parts[1:]:
        _WORD_IDS.merge(added)
    return np.concatenate([scores for scores, _ in parts])


def _words(texts: Sequence[str], config: FeatureConfig) -> tuple[np.ndarray, np.ndarray]:
    """Ids of the words the config keeps, end to end, and the row of each."""
    ids, counts = _WORD_IDS.rows(texts, config.lowercase)
    row = np.repeat(np.arange(len(texts)), counts)
    keep = _WORD_IDS.lengths[ids] >= config.min_token_len
    if config.stopwords:
        index = _WORD_IDS.index
        keep &= ~np.isin(ids, [index[w] for w in config.stopwords if w in index])
    return ids[keep].astype(np.int64), row[keep]


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values; sorting beats np.unique's hashing on large int arrays."""
    values = np.sort(values)
    return values[np.concatenate(([True], values[1:] != values[:-1]))]


def _windows(row: np.ndarray, n: int) -> np.ndarray:
    """Start positions of the runs of n consecutive words within one row."""
    if len(row) < n:
        return np.zeros(0, dtype=np.int64)
    return np.flatnonzero(row[: len(row) - n + 1] == row[n - 1 :])


class _TermLookup:
    """The vocabulary's terms as a trie over word ids, one level per n-gram length.

    local maps an interned word id to its number among the vocabulary's words
    (-1 for other words; ids interned later fall past its end). A level-1 node
    is a local word; a level-n node is an entry of keys[n - 1], the sorted
    (level n - 1 node) * n_local + (local word) of every n-word term prefix.
    columns[n - 1] gives each node's column, or -1 if it is only a prefix.
    """

    def __init__(self, vocab: "Vocabulary"):
        terms = [(term.split(" "), idx) for term, idx in vocab.term_index.items()]
        terms = [(words, idx) for words, idx in terms if len(words) <= vocab.config.ngram_max]
        length = np.array([len(words) for words, _ in terms], dtype=np.int64)
        column = np.array([idx for _, idx in terms], dtype=np.int64)
        local_index: dict[str, int] = {}
        word = np.full((len(terms), int(length.max(initial=0))), -1, dtype=np.int64)
        for i, (words, _) in enumerate(terms):
            word[i, : len(words)] = [local_index.setdefault(w, len(local_index)) for w in words]
        self.n_local = len(local_index)
        ids = _WORD_IDS.intern(list(local_index))
        self.local = np.full(len(_WORD_IDS.words), -1, dtype=np.int64)
        self.local[ids] = np.arange(self.n_local)
        self.keys, self.columns = [np.arange(self.n_local)], []
        for n in range(1, word.shape[1] + 1):
            if n == 1:
                node = word[:, 0].copy()
            else:
                has = length >= n
                key = node[has] * self.n_local + word[has, n - 1]
                self.keys.append(_distinct(key))
                node[has] = np.searchsorted(self.keys[-1], key)
            level = np.full(len(self.keys[-1]), -1, dtype=np.int64)
            level[node[length == n]] = column[length == n]
            self.columns.append(level)

    def entries(self, words: np.ndarray, row: np.ndarray, ngram_max: int) -> tuple[np.ndarray, np.ndarray]:
        """(row, column) of every in-vocabulary n-gram occurrence."""
        local = np.full(len(words), -1, dtype=np.int64)
        known = words < len(self.local)
        local[known] = self.local[words[known]]
        node = local
        rows, cols = [], []
        for n in range(1, min(ngram_max, len(self.columns)) + 1):
            if n > 1:
                start = _windows(row, n)
                start = start[(node[start] >= 0) & (local[start + n - 1] >= 0)]
                key = node[start] * self.n_local + local[start + n - 1]
                at = np.minimum(np.searchsorted(self.keys[n - 1], key), len(self.keys[n - 1]) - 1)
                found = self.keys[n - 1][at] == key
                node = np.full(len(words), -1, dtype=np.int64)
                node[start[found]] = at[found]
            start = np.flatnonzero(node >= 0)
            if not len(start):
                break
            col = self.columns[n - 1][node[start]]
            hit = col >= 0
            rows.append(row[start[hit]])
            cols.append(col[hit])
        if not rows:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        return np.concatenate(rows), np.concatenate(cols)


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
        self._idf = np.zeros(len(self.term_index))
        for term, idx in self.term_index.items():
            self._idf[idx] = math.log((1.0 + n_documents) / (1.0 + self.doc_freq[term])) + 1.0
        self._lookup: _TermLookup | None = None

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
        term_index = {term: idx for term, idx, _ in obj["terms"]}
        doc_freq = {term: df for term, _, df in obj["terms"]}
        return cls(term_index, doc_freq, obj["n_documents"], config)


def fit_vocabulary(texts: Sequence[str], config: FeatureConfig | None = None) -> Vocabulary:
    """Build a vocabulary: df filter, then cap by highest df, then index by term.

    Deterministic given identical inputs and config: ties in the max_features
    cut break lexicographically, and indices follow sorted term order.
    """
    config = config or FeatureConfig()
    if not texts:
        raise FeatureError("texts must be nonempty")
    words, row = _words(texts, config)
    if not len(words):
        raise EmptyVocabularyError("corpus is empty after tokenization")
    n_rows, radix, names = len(texts), len(_WORD_IDS.words), _WORD_IDS.words
    kept: list[tuple[str, int]] = []
    key = words.copy()  # at each start position, the number of the n-gram starting there
    for n in range(1, config.ngram_max + 1):
        if n == 1:
            start, level = np.arange(len(words)), words
            n_keys = radix
        else:
            start = _windows(row, n)
            if not len(start):
                break
            pairs, level = np.unique(key[start] * radix + words[start + n - 1], return_inverse=True)
            key[start] = level
            n_keys = len(pairs)
        df = np.bincount(_distinct(level * n_rows + row[start]) // n_rows, minlength=n_keys)
        # every n-gram's first n - 1 words are at least as frequent, so already named
        frequent = np.flatnonzero(df >= config.min_df)
        if n == 1:
            terms = {k: names[k] for k in frequent.tolist()}
        else:
            prefix, last = np.divmod(pairs[frequent], radix)
            terms = {k: terms[p] + " " + names[w] for k, p, w in zip(frequent.tolist(), prefix.tolist(), last.tolist())}
        kept.extend(zip(terms.values(), df[frequent].tolist()))
    if not kept:
        raise EmptyVocabularyError(f"no term reaches min_df={config.min_df}")
    if config.max_features is not None and len(kept) > config.max_features:
        kept.sort(key=lambda tc: (-tc[1], tc[0]))
        kept = kept[: config.max_features]
    kept.sort(key=lambda tc: tc[0])
    term_index = {term: i for i, (term, _) in enumerate(kept)}
    doc_freq = {term: count for term, count in kept}
    return Vocabulary(term_index, doc_freq, n_documents=len(texts), config=config)


def transform_many(vocab: Vocabulary, texts: Sequence[str]) -> sparse.csr_matrix:
    """tf * idf, L2-normalized, one CSR row per text in input order.

    Out-of-vocabulary terms are ignored; a text with no in-vocabulary term
    gives an empty row. Each row's squared weights are summed in column order
    from zero, by a CSR matrix-vector product.
    """
    if vocab._lookup is None:
        vocab._lookup = _TermLookup(vocab)
    config, dimension = vocab.config, vocab.dimension
    ones = np.ones(dimension)
    indices, data, lengths = [np.zeros(0, dtype=np.int64)], [np.zeros(0)], [np.zeros(0, dtype=np.int64)]
    for first in range(0, len(texts), _BLOCK_ROWS):
        block = texts[first : first + _BLOCK_ROWS]
        words, row = _words(block, config)
        row, col = vocab._lookup.entries(words, row, config.ngram_max)
        cells, tf = np.unique(row * dimension + col, return_counts=True)
        row, col = np.divmod(cells, dimension)
        if config.sublinear_tf:
            distinct, inverse = np.unique(tf, return_inverse=True)
            weight = np.array([1.0 + math.log(t) for t in distinct.tolist()])[inverse]
        else:
            weight = tf.astype(np.float64)
        weight *= vocab._idf[col]
        length = np.bincount(row, minlength=len(block))
        indptr = np.concatenate([[0], np.cumsum(length)])
        squares = sparse.csr_matrix((weight * weight, col, indptr), shape=(len(block), dimension)) @ ones
        weight /= np.sqrt(squares)[row]
        indices.append(col)
        data.append(weight)
        lengths.append(length)
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(lengths))])
    return sparse.csr_matrix(
        (np.concatenate(data), np.concatenate(indices), indptr), shape=(len(texts), dimension)
    )


def to_csr(matrix) -> sparse.csr_matrix:
    """A copy of a scipy sparse matrix as canonical float64 CSR: indices
    sorted within each row, duplicate entries summed."""
    if not sparse.issparse(matrix):
        raise FeatureError(f"expected a scipy sparse matrix, got {type(matrix).__name__}")
    matrix = sparse.csr_matrix(matrix, dtype=np.float64, copy=True)
    matrix.sum_duplicates()
    return matrix
