"""GLUE metrics following the paper's conventions (Section IV-A).

Accuracy for SST-2/QNLI/RTE/WNLI/MNLI, Matthews correlation for CoLA,
F1 for QQP/MRPC, Spearman correlation for STS-B.

``scipy.stats`` is imported inside :func:`spearman_corr`, its only user,
not here: the package imports this module from every entry point
(``repro.serve``, the ``rt3`` CLI), and a module-level import would make
every serving process load scipy, which then dominates its start-up time
and memory (``docs/benchmarks.md``, "Process footprint"), for a metric
only STS-B evaluation calls.  Spearman stays on scipy's arithmetic, so
STS-B scores are unchanged.
"""

from __future__ import annotations

import numpy as np


def accuracy_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    y_true, y_pred = np.asarray(y_true), np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError("shape mismatch between labels and predictions")
    if y_true.size == 0:
        raise ValueError("empty inputs")
    return float((y_true == y_pred).mean())


def f1_score(y_true: np.ndarray, y_pred: np.ndarray, positive: int = 1) -> float:
    """Binary F1 for the ``positive`` class; 0.0 when degenerate."""
    y_true, y_pred = np.asarray(y_true), np.asarray(y_pred)
    tp = float(np.sum((y_pred == positive) & (y_true == positive)))
    fp = float(np.sum((y_pred == positive) & (y_true != positive)))
    fn = float(np.sum((y_pred != positive) & (y_true == positive)))
    denom = 2 * tp + fp + fn
    return 0.0 if denom == 0 else 2 * tp / denom


def matthews_corrcoef(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Matthews correlation coefficient (CoLA's metric); 0.0 when degenerate."""
    y_true, y_pred = np.asarray(y_true), np.asarray(y_pred)
    tp = float(np.sum((y_pred == 1) & (y_true == 1)))
    tn = float(np.sum((y_pred == 0) & (y_true == 0)))
    fp = float(np.sum((y_pred == 1) & (y_true == 0)))
    fn = float(np.sum((y_pred == 0) & (y_true == 1)))
    denom = np.sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
    return 0.0 if denom == 0 else float((tp * tn - fp * fn) / denom)


def spearman_corr(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Spearman rank correlation (STS-B's metric); 0.0 when degenerate."""
    y_true, y_pred = np.asarray(y_true, dtype=float), np.asarray(y_pred, dtype=float)
    if y_true.size < 2 or np.std(y_true) == 0 or np.std(y_pred) == 0:
        return 0.0
    from scipy import stats

    rho = stats.spearmanr(y_true, y_pred).statistic
    return 0.0 if np.isnan(rho) else float(rho)


_METRICS = {
    "accuracy": accuracy_score,
    "f1": f1_score,
    "mcc": matthews_corrcoef,
    "spearman": spearman_corr,
}


def metric_for_task(metric: str):
    """Look up a metric function by GLUE metric key."""
    if metric not in _METRICS:
        raise ValueError(f"unknown metric {metric!r}; choose from {sorted(_METRICS)}")
    return _METRICS[metric]
