"""The featurizer's and the regressors' hyperparameters and their checks,
and the error classes of the modules that load SciPy: FeatureError,
TrainingError, PredictionError, ModelPersistenceError and AugmentationError.
All are free of numpy and SciPy, so that the CLI can check a config file's
keys and name every error it maps to an exit code without loading them;
`features`, `models` and `augmentation` re-export them."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .scorer import ScorerEndpoint


class FeatureError(ValueError):
    pass


class TrainingError(ValueError):
    pass


class AugmentationError(ValueError):
    pass


class PredictionError(RuntimeError):
    pass


class ModelPersistenceError(RuntimeError):
    pass


def _count(value, least: int) -> bool:
    """value is an int >= least; type() is int, so a bool or a float is not a count."""
    return type(value) is int and value >= least


def _number(value) -> bool:
    """value is an int or a float; type() is checked, so a bool is not a number."""
    return type(value) in (int, float)


def _check(config, error: type[ValueError], rules) -> None:
    """Raise error naming the first field of config whose rule is broken; each
    rule is (field name, broken, what the field must be)."""
    for name, bad, rule in rules:
        if bad:
            raise error(f"{name} must be {rule}, got {getattr(config, name)!r}")


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
        stopwords = self.stopwords
        _check(self, FeatureError, (
            ("lowercase", not isinstance(self.lowercase, bool), "a bool"),
            ("min_token_len", not _count(self.min_token_len, 1), "an int >= 1"),
            ("ngram_max", not _count(self.ngram_max, 1), "an int >= 1"),
            ("min_df", not _count(self.min_df, 1), "an int >= 1"),
            ("max_features", self.max_features is not None and not _count(self.max_features, 1), "an int >= 1 or None"),
            ("sublinear_tf", not isinstance(self.sublinear_tf, bool), "a bool"),
            ("stopwords", not isinstance(stopwords, (list, tuple)) or not all(isinstance(w, str) for w in stopwords),
             "a list of strings"),
        ))
        object.__setattr__(self, "stopwords", tuple(stopwords))


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for all families; unused fields are ignored per family."""

    seed: int = 0
    features: FeatureConfig = field(default_factory=FeatureConfig)
    patience: int = 5
    ridge_lambda: float = 1.0
    ridge_tol: float = 1e-10
    ridge_max_iter: int = 1000
    svr_epsilon: float = 0.05
    svr_learning_rate: float = 0.01
    svr_c: float = 1.0
    svr_max_epochs: int = 100
    svr_batch_size: int = 32
    rf_n_trees: int = 100
    rf_max_depth: int | None = 12
    rf_min_samples_leaf: int = 5
    rf_max_features: int | str = "sqrt"
    rf_bootstrap: bool = True
    external: ScorerEndpoint | None = None

    def __post_init__(self) -> None:
        max_features = self.rf_max_features
        max_features_ok = max_features in ("sqrt", "all") or _count(max_features, 1)
        # written as "not valid" so that NaN is rejected too
        _check(self, TrainingError, (
            ("patience", not _count(self.patience, 1), "an int >= 1"),
            ("ridge_lambda", not (_number(self.ridge_lambda) and self.ridge_lambda >= 0), "a number >= 0"),
            ("ridge_tol", not (_number(self.ridge_tol) and self.ridge_tol >= 0), "a number >= 0"),
            ("ridge_max_iter", not _count(self.ridge_max_iter, 1), "an int >= 1"),
            ("svr_batch_size", not _count(self.svr_batch_size, 1), "an int >= 1"),
            ("svr_c", not (_number(self.svr_c) and self.svr_c > 0), "a number > 0"),
            ("svr_learning_rate", not (_number(self.svr_learning_rate) and self.svr_learning_rate > 0), "a number > 0"),
            ("svr_epsilon", not (_number(self.svr_epsilon) and self.svr_epsilon >= 0), "a number >= 0"),
            ("svr_max_epochs", not _count(self.svr_max_epochs, 1), "an int >= 1"),
            ("rf_n_trees", not _count(self.rf_n_trees, 1), "an int >= 1"),
            ("rf_max_depth", self.rf_max_depth is not None and not _count(self.rf_max_depth, 0), "an int >= 0 or None"),
            ("rf_min_samples_leaf", not _count(self.rf_min_samples_leaf, 1), "an int >= 1"),
            ("rf_max_features", not max_features_ok, '"sqrt", "all" or an int >= 1'),
            ("rf_bootstrap", not isinstance(self.rf_bootstrap, bool), "a bool"),
            # -inf is below every range above; +inf, which a config file's 1e999 or Infinity reads as, is not
            *((name, getattr(self, name) == math.inf, "finite")
              for name in ("ridge_lambda", "ridge_tol", "svr_c", "svr_learning_rate", "svr_epsilon")),
        ))
