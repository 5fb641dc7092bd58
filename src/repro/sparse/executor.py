"""Model cost audit: execute masked layers through the sparse kernels.

Bridges the analytic latency predictor and the executable kernels: for
every prunable Linear of a masked model, the auditor

1. converts the effective (masked) weight into the chosen sparse format,
2. runs the format's kernel against the dense reference on real inputs,
   asserting exact numerical agreement,
3. accumulates the kernel's :class:`~repro.sparse.kernels.OpCounter`.

The total weighted op count is an *executable* cost for the model, which
tests and benches compare against the analytic
:class:`~repro.hardware.latency.LatencyModel` prediction — the same
validation the paper delegates to the PatDNN compiler's predictor.

The audit is a cost model, not an execution path: serving folds the
masks into dense weights (:mod:`repro.nn.inference`), because on every
serving layer shape a dense product beats the sparse kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.patterns import PackedMask, PatternSet, pattern_mask_for_matrix
from repro.nn.layers import Linear, prunable_linears
from repro.nn.module import Module
from repro.sparse.formats import from_dense_block, from_dense_coo, from_dense_pattern
from repro.sparse.kernels import (
    OpCounter,
    block_matmul,
    coo_matmul,
    dense_matmul,
    pattern_matmul,
)


@dataclass
class LayerAudit:
    """Kernel outcome for one layer."""

    name: str
    fmt: str
    shape: Tuple[int, int]
    sparsity: float
    counter: OpCounter
    max_error: float

    @property
    def correct(self) -> bool:
        return self.max_error < 1e-9


@dataclass
class ModelAudit:
    """Aggregate over all audited layers."""

    layers: List[LayerAudit] = field(default_factory=list)

    @property
    def total(self) -> OpCounter:
        out = OpCounter()
        for layer in self.layers:
            out.macs += layer.counter.macs
            out.index_ops += layer.counter.index_ops
            out.overhead_ops += layer.counter.overhead_ops
        return out

    @property
    def all_correct(self) -> bool:
        return all(l.correct for l in self.layers)

    @property
    def overall_sparsity(self) -> float:
        weights = sum(l.shape[0] * l.shape[1] for l in self.layers)
        kept = sum(int(round((1.0 - l.sparsity) * l.shape[0] * l.shape[1]))
                   for l in self.layers)
        return 1.0 - kept / weights if weights else 0.0


class SparseExecutor:
    """Audits a masked model under one execution strategy.

    ``fmt`` is one of ``"dense"``, ``"coo"``, ``"block"``, ``"pattern"``.
    Block format needs ``num_blocks``; pattern format needs the
    ``pattern_set`` whose masks are currently installed (the auditor
    re-derives tile ids from the effective weights).
    """

    def __init__(self, fmt: str = "dense", num_blocks: int = 4,
                 pattern_set: Optional[PatternSet] = None,
                 batch: int = 4, seed: int = 0) -> None:
        if fmt not in ("dense", "coo", "block", "pattern"):
            raise ValueError(f"unknown format {fmt!r}")
        if fmt == "pattern" and pattern_set is None:
            raise ValueError("pattern format requires a pattern_set")
        self.fmt = fmt
        self.num_blocks = num_blocks
        self.pattern_set = pattern_set
        self.batch = batch
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    def _convert(self, w: np.ndarray):
        """Dense -> ``self.fmt`` conversion of an effective weight; the
        pattern format also returns the re-derived mask, bit-packed."""
        if self.fmt == "coo":
            return from_dense_coo(w)
        if self.fmt == "block":
            return from_dense_block(w, min(self.num_blocks, w.shape[0]))
        masked, ids = pattern_mask_for_matrix(w, self.pattern_set)
        packed = from_dense_pattern(
            w * masked, [p.mask for p in self.pattern_set], ids)
        return packed, PackedMask(masked)

    def audit_layer(self, name: str, layer: Linear) -> LayerAudit:
        w = layer.weight.data * (layer.mask if layer.mask is not None else 1.0)
        x = self._rng.normal(size=(w.shape[1], self.batch))
        expected, _ = dense_matmul(w, x)

        if self.fmt == "dense":
            got, counter = dense_matmul(w, x)
        elif self.fmt == "coo":
            got, counter = coo_matmul(self._convert(w), x)
        elif self.fmt == "block":
            got, counter = block_matmul(self._convert(w), x)
        else:  # pattern
            packed, packed_mask = self._convert(w)
            got, counter = pattern_matmul(packed, x)
            expected, _ = dense_matmul(w * packed_mask.unpack(), x)

        err = float(np.abs(got - expected).max()) if expected.size else 0.0
        sparsity = float(1.0 - np.count_nonzero(w) / w.size)
        return LayerAudit(name, self.fmt, w.shape, sparsity, counter, err)

    def audit(self, model: Module, min_features: int = 8) -> ModelAudit:
        out = ModelAudit()
        for name, layer in prunable_linears(model, min_features=min_features).items():
            out.layers.append(self.audit_layer(name, layer))
        if not out.layers:
            raise ValueError("model has no prunable layers to audit")
        return out


def compare_formats(model: Module, num_blocks: int = 4,
                    pattern_set: Optional[PatternSet] = None,
                    batch: int = 4, seed: int = 0) -> Dict[str, ModelAudit]:
    """Audit the same model under every applicable format."""
    formats = ["dense", "coo", "block"]
    if pattern_set is not None:
        formats.append("pattern")
    out = {}
    for fmt in formats:
        executor = SparseExecutor(fmt, num_blocks=num_blocks,
                                  pattern_set=pattern_set, batch=batch, seed=seed)
        out[fmt] = executor.audit(model)
    return out
