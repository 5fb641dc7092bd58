"""A general training loop with history, early stopping and checkpointing.

``train_plain`` in :mod:`repro.core.trainer` is the minimal loop the RT3
search uses internally; this module provides the fuller loop a user wants
for the initial model M: per-epoch evaluation, best-checkpoint tracking
(restored at the end), early stopping with patience, LR scheduling and a
recorded :class:`TrainingHistory` for plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.tasks import Task
from repro.nn.lr_scheduler import _Scheduler
from repro.nn.optim import Adam, Optimizer, clip_grad_norm


@dataclass
class TrainingHistory:
    """Per-epoch record of one fit."""

    train_loss: List[float] = field(default_factory=list)
    eval_score: List[float] = field(default_factory=list)
    lr: List[float] = field(default_factory=list)


@dataclass
class FitConfig:
    """Knobs of :func:`fit`."""

    epochs: int = 10
    lr: float = 1e-3
    grad_clip: float = 5.0
    patience: Optional[int] = None  # early-stop after N non-improving epochs
    restore_best: bool = True
    min_delta: float = 0.0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.patience is not None and self.patience < 1:
            raise ValueError("patience must be >= 1 when set")


def fit(task: Task, cfg: FitConfig = FitConfig(),
        optimizer: Optional[Optimizer] = None,
        scheduler: Optional[_Scheduler] = None,
        on_epoch_end: Optional[Callable[[int, TrainingHistory], None]] = None,
        ) -> TrainingHistory:
    """Train ``task.model`` with evaluation, early stopping, checkpointing.

    The best model (by eval score) is restored before returning when
    ``restore_best`` is set.  ``on_epoch_end(epoch, history)`` runs after
    each epoch's bookkeeping (for logging or custom stopping via raise).
    """
    optimizer = optimizer or Adam(task.model.parameters(), lr=cfg.lr)
    history = TrainingHistory()
    best_state: Optional[Dict[str, np.ndarray]] = None
    best_score = -np.inf
    stale = 0

    for epoch in range(cfg.epochs):
        losses = []
        for inputs, targets in task.train_batches():
            loss = task.loss_on(inputs, targets)
            optimizer.zero_grad()
            loss.backward()
            clip_grad_norm(task.model.parameters(), cfg.grad_clip)
            optimizer.step()
            losses.append(float(loss.data))
        if scheduler is not None:
            scheduler.step()

        history.train_loss.append(float(np.mean(losses)) if losses else float("nan"))
        score = task.evaluate()
        history.eval_score.append(score)
        history.lr.append(optimizer.lr)

        if score > best_score + cfg.min_delta:
            best_score = score
            best_state = task.model.state_dict()
            stale = 0
        else:
            stale += 1
        if on_epoch_end is not None:
            on_epoch_end(epoch, history)
        if cfg.patience is not None and stale >= cfg.patience:
            break

    if cfg.restore_best and best_state is not None:
        task.model.load_state_dict(best_state)
    return history
