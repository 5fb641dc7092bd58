"""Basic layers: Linear, Embedding, LayerNorm, Dropout, activations.

``Linear`` is the pruning target throughout RT3: both block-structured
pruning and pattern pruning operate on its 2-D ``weight``.  It therefore
exposes an optional persistent ``mask`` that is multiplied into the weight
on every forward, so masked (pruned) positions contribute neither to the
output nor — because the product blocks the gradient path through the mask
zeros from updating effective weights — to subsequent inference.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Optional, Tuple

import numpy as np

from repro.nn.module import Module, Parameter
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor


def _rng(seed: Optional[int]) -> np.random.Generator:
    return np.random.default_rng(seed)


# process-unique Linear ids: cache tokens must never collide across
# coexisting models even when layer names and shapes coincide
_linear_uid = itertools.count()

# frozen masks each Linear remembers for version restore: a few more
# than the serving ladder's rungs, each entry one mask-sized array
_KNOWN_MASKS_CAP = 8


class Linear(Module):
    """Affine map ``y = x W^T + b`` with optional pruning mask on ``W``.

    ``weight`` has shape ``(out_features, in_features)`` (torch convention).
    ``set_mask`` installs a 0/1 ndarray of the same shape; pass ``None`` to
    clear it.  The mask is applied multiplicatively on forward, so joint
    training through different masks (Fig. 2 of the paper) just swaps masks.
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 seed: Optional[int] = None) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        bound = 1.0 / math.sqrt(in_features)
        rng = _rng(seed)
        self.weight = Parameter(rng.uniform(-bound, bound, size=(out_features, in_features)),
                                name="weight")
        if bias:
            self.bias = Parameter(rng.uniform(-bound, bound, size=(out_features,)), name="bias")
        else:
            self.bias = None
        self.mask: Optional[np.ndarray] = None
        self._uid = next(_linear_uid)
        self._mask_version = 0
        # highest mask version handed out so far; fresh installs count on
        # from here, so a restored version can never be handed out twice
        self._mask_versions_issued = 0
        # frozen masks this layer held before, ``id -> (mask, version)``;
        # holding the array keeps its id from being reused by another
        self._known_masks: Dict[int, Tuple[np.ndarray, int]] = {}

    def set_mask(self, mask: Optional[np.ndarray]) -> None:
        """Install ``mask`` (``None`` clears it).

        Re-installing the resident object is free.  A *frozen* mask (a
        read-only array owning its data, so nothing can rewrite it) the
        layer held before gets its earlier mask version back, so
        :attr:`cache_token` — and every cache keyed on it — repeats when
        a run-time pattern set returns.  Any other mask is
        content-compared against the resident one: equal content keeps
        the token, anything else counts as a new mask.
        """
        if mask is self.mask:
            return
        frozen = False
        if mask is not None:
            mask = np.asarray(mask, dtype=np.float64)
            if mask.shape != self.weight.shape:
                raise ValueError(f"mask shape {mask.shape} != weight shape {self.weight.shape}")
            frozen = not mask.flags.writeable and mask.base is None
            if frozen:
                known = self._known_masks.get(id(mask))
                if known is not None:
                    self.mask, self._mask_version = known
                    return
            # content-addressed fast path: re-installing a mask identical
            # to the resident one changes nothing, so keep the cache token
            # stable — downstream format conversions stay hits instead of
            # paying a token-bump miss on every re-install
            if self.mask is not None and np.array_equal(mask, self.mask):
                if frozen:
                    self._remember(mask)
                return
        elif self.mask is None:
            return
        self.mask = mask
        self._mask_versions_issued += 1
        self._mask_version = self._mask_versions_issued
        if frozen:
            self._remember(mask)

    def _remember(self, mask: np.ndarray) -> None:
        """Adopt frozen ``mask`` under the current version (bounded)."""
        self.mask = mask
        if len(self._known_masks) >= _KNOWN_MASKS_CAP:
            del self._known_masks[next(iter(self._known_masks))]
        self._known_masks[id(mask)] = (mask, self._mask_version)

    @property
    def cache_token(self) -> str:
        """O(1) identity of the effective (masked) weight content.

        Combines the process-unique layer id, the weight's update counter
        (bumped by optimizers / ``load_state_dict``) and the mask version
        — everything ``weight * mask`` depends on — so caches can key on
        this token instead of hashing the weight bytes, which dominated
        small-layer lookups.  Two tokens are equal iff they describe the
        same layer with the same weight and mask content.  An identical
        re-install keeps the token, and re-installing a frozen mask the
        layer held before restores that mask's token: switching
        A -> B -> A between pattern sets ends on A's token again, so
        caches keyed on it (the compiled plans, format conversions) hit.
        """
        return f"u{self._uid}.w{self.weight.version}.m{self._mask_version}"

    def effective_weight(self) -> Tensor:
        if self.mask is None:
            return self.weight
        return F.mul(self.weight, Tensor(self.mask))

    def forward(self, x: Tensor) -> Tensor:
        w = self.effective_weight()
        out = F.matmul(x, F.transpose(w))
        if self.bias is not None:
            out = F.add(out, self.bias)
        return out

    def sparsity(self) -> float:
        """Fraction of weight entries currently masked to zero."""
        if self.mask is None:
            return 0.0
        return float(1.0 - self.mask.mean())


class Embedding(Module):
    """Token embedding table of shape ``(num_embeddings, dim)``."""

    def __init__(self, num_embeddings: int, dim: int, seed: Optional[int] = None) -> None:
        super().__init__()
        self.num_embeddings = num_embeddings
        self.dim = dim
        rng = _rng(seed)
        self.weight = Parameter(rng.normal(0.0, 0.02, size=(num_embeddings, dim)), name="weight")

    def forward(self, indices) -> Tensor:
        return F.embedding(self.weight, indices)


class LayerNorm(Module):
    """Layer normalization over the last dimension."""

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.gamma = Parameter(np.ones(dim), name="gamma")
        self.beta = Parameter(np.zeros(dim), name="beta")

    def forward(self, x: Tensor) -> Tensor:
        mu = F.mean(x, axis=-1, keepdims=True)
        centered = F.sub(x, mu)
        var = F.mean(F.mul(centered, centered), axis=-1, keepdims=True)
        inv = F.div(1.0, F.sqrt(F.add(var, self.eps)))
        normed = F.mul(centered, inv)
        return F.add(F.mul(normed, self.gamma), self.beta)


class Dropout(Module):
    """Inverted dropout; inert in eval mode."""

    def __init__(self, p: float = 0.1, seed: Optional[int] = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout p must be in [0, 1)")
        self.p = p
        self._rng = _rng(seed)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, training=self.training, rng=self._rng)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)


class GELU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.gelu(x)


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.tanh(x)


class Sequential(Module):
    """Run child modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._seq = list(modules)
        for i, m in enumerate(modules):
            self._modules[str(i)] = m

    def forward(self, x: Tensor) -> Tensor:
        for m in self._seq:
            x = m(x)
        return x

    def __getitem__(self, idx: int) -> Module:
        return self._seq[idx]

    def __len__(self) -> int:
        return len(self._seq)


def prunable_linears(model: Module, min_features: int = 1) -> "dict[str, Linear]":
    """Return the named ``Linear`` layers of ``model`` eligible for pruning.

    RT3 prunes the big projection matrices (attention q/k/v/out and the FFN
    matrices); tiny layers (below ``min_features`` in either dimension) are
    skipped, matching the paper's practice of leaving classifier heads and
    embeddings dense.
    """
    out = {}
    for name, module in model.named_modules():
        if isinstance(module, Linear):
            if module.in_features >= min_features and module.out_features >= min_features:
                out[name] = module
    return out
