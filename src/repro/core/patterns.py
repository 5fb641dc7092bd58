"""Pattern pruning (PP) primitives: patterns, pattern sets, mask composition.

A *pattern* is a ``psize x psize`` 0/1 mask (the paper uses 100x100; small
models use smaller sizes).  A *pattern set* is a small collection of
patterns sharing a sparsity level.  Applying a set to a weight matrix
tiles the matrix into ``psize x psize`` blocks and, for each block, keeps
the pattern whose retained positions carry the largest l2 norm — exactly
the forward rule of the paper's Fig. 2 ("choose the pattern with the
largest l2-norm for each block").

``MaskManager`` composes PP masks with the fixed BP backbone masks
(positions pruned by BP stay pruned) and swaps pattern sets in O(model)
without touching weights — the software half of run-time reconfiguration.

The paper's memory argument (COO needs per-nonzero coordinates, block and
pattern storage only per-group indices or per-tile pattern ids) is
accounted on the real containers of :mod:`repro.sparse.formats`.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.nn.layers import Linear, prunable_linears
from repro.nn.module import Module


class PackedMask:
    """A 0/1 mask stored bit-packed: one *bit* per position.

    The storage form the paper's memory argument assumes — a pattern mask
    costs ``size/8`` bytes, not ``size`` floats.  ``np.packbits`` on
    construction, ``unpack()`` back to the float 0/1 array; the round trip
    is exact (masks are binary), so packed artifacts in the
    :class:`~repro.serve.cache.ArtifactCache` reproduce the original mask
    bit for bit while the cache's byte budget sees the honest footprint.
    """

    __slots__ = ("bits", "shape")

    def __init__(self, mask: np.ndarray) -> None:
        mask = np.asarray(mask)
        self.shape: Tuple[int, ...] = tuple(mask.shape)
        self.bits = np.packbits((mask != 0).ravel())

    @property
    def nbytes(self) -> int:
        return int(self.bits.nbytes)

    def unpack(self) -> np.ndarray:
        n = int(np.prod(self.shape)) if self.shape else 0
        flat = np.unpackbits(self.bits, count=n)
        return flat.reshape(self.shape).astype(np.float64)

    def __repr__(self) -> str:
        return f"PackedMask(shape={self.shape}, nbytes={self.nbytes})"


class Pattern:
    """An immutable ``psize x psize`` binary mask."""

    def __init__(self, mask: np.ndarray) -> None:
        mask = np.asarray(mask)
        if mask.ndim != 2 or mask.shape[0] != mask.shape[1]:
            raise ValueError("a pattern must be a square 2-D mask")
        self._mask = (mask != 0).astype(np.float64)
        self._mask.setflags(write=False)

    @property
    def mask(self) -> np.ndarray:
        return self._mask

    @property
    def size(self) -> int:
        return self._mask.shape[0]

    @property
    def sparsity(self) -> float:
        """Fraction of zeros in the pattern."""
        return float(1.0 - self._mask.mean())

    @property
    def nbytes(self) -> float:
        """Storage as a bitmask."""
        return self._mask.size / 8.0

    def digest(self) -> str:
        return hashlib.sha1(self._mask.astype(np.uint8).tobytes()).hexdigest()[:12]

    def __eq__(self, other) -> bool:
        return isinstance(other, Pattern) and np.array_equal(self._mask, other._mask)

    def __hash__(self) -> int:
        return hash(self.digest())

    def __repr__(self) -> str:
        return f"Pattern(size={self.size}, sparsity={self.sparsity:.2f})"

    def render(self, on: str = "#", off: str = ".") -> str:
        """ASCII visualization (used for the paper's Fig. 4)."""
        return "\n".join("".join(on if v else off for v in row) for row in self._mask)


class PatternSet:
    """Patterns with a common nominal sparsity, bound to one V/F level."""

    def __init__(self, patterns: Sequence[Pattern], sparsity: Optional[float] = None,
                 name: str = "") -> None:
        if not patterns:
            raise ValueError("a pattern set needs at least one pattern")
        sizes = {p.size for p in patterns}
        if len(sizes) != 1:
            raise ValueError("all patterns in a set must share a size")
        self.patterns: Tuple[Pattern, ...] = tuple(patterns)
        self.sparsity = float(sparsity if sparsity is not None
                              else np.mean([p.sparsity for p in patterns]))
        self.name = name

    @property
    def pattern_size(self) -> int:
        return self.patterns[0].size

    def __len__(self) -> int:
        return len(self.patterns)

    def __iter__(self):
        return iter(self.patterns)

    def __getitem__(self, i: int) -> Pattern:
        return self.patterns[i]

    def subset(self, indices: Sequence[int]) -> "PatternSet":
        """The K patterns the controller picked out of this set."""
        picked = [self.patterns[i] for i in indices]
        return PatternSet(picked, sparsity=self.sparsity, name=self.name)

    @property
    def nbytes(self) -> float:
        return sum(p.nbytes for p in self.patterns)

    def digest(self) -> str:
        """Content hash of the set (order-sensitive): its cache identity.

        Two sets with identical patterns in identical order produce the
        same digest regardless of ``name``, so caches survive rebuilding a
        set from its serialized form.
        """
        h = hashlib.sha1()
        h.update(f"{self.sparsity:.6f}".encode())
        for p in self.patterns:
            h.update(p.digest().encode())
        return h.hexdigest()[:16]

    def __repr__(self) -> str:
        return (f"PatternSet(n={len(self.patterns)}, size={self.pattern_size}, "
                f"sparsity={self.sparsity:.2f}{', ' + self.name if self.name else ''})")


def random_pattern_set(pattern_size: int, sparsity: float, num_patterns: int,
                       rng: Optional[np.random.Generator] = None) -> PatternSet:
    """The paper's rPP ablation: patterns drawn uniformly at random.

    Same sparsity budget as a searched set, but positions are chosen with
    no importance information — the baseline Table IV shows losing ~6-11%
    accuracy against guided PP.
    """
    if not 0.0 <= sparsity < 1.0:
        raise ValueError("sparsity must be in [0, 1)")
    rng = rng or np.random.default_rng()
    keep = max(1, int(round((1.0 - sparsity) * pattern_size * pattern_size)))
    patterns = []
    for _ in range(num_patterns):
        flat = np.zeros(pattern_size * pattern_size)
        idx = rng.choice(flat.size, size=keep, replace=False)
        flat[idx] = 1.0
        patterns.append(Pattern(flat.reshape(pattern_size, pattern_size)))
    return PatternSet(patterns, sparsity=sparsity, name=f"random-s{sparsity:.2f}")


def _pad_to_blocks(weight: np.ndarray, psize: int) -> Tuple[np.ndarray, Tuple[int, int]]:
    rows = -(-weight.shape[0] // psize) * psize
    cols = -(-weight.shape[1] // psize) * psize
    if (rows, cols) == weight.shape:
        return weight, weight.shape
    padded = np.zeros((rows, cols), dtype=weight.dtype)
    padded[: weight.shape[0], : weight.shape[1]] = weight
    return padded, weight.shape


def pattern_mask_for_matrix(weight: np.ndarray, pattern_set: PatternSet
                            ) -> Tuple[np.ndarray, np.ndarray]:
    """Apply a pattern set to one matrix: (full mask, per-block pattern ids).

    Each ``psize x psize`` tile independently picks the pattern maximizing
    the l2 norm of the weights it keeps.
    """
    psize = pattern_set.pattern_size
    padded, orig_shape = _pad_to_blocks(weight, psize)
    n_row = padded.shape[0] // psize
    n_col = padded.shape[1] // psize
    # (n_row, n_col, psize, psize) tile view
    tiles = padded.reshape(n_row, psize, n_col, psize).transpose(0, 2, 1, 3)
    sq = tiles ** 2
    stack = np.stack([p.mask for p in pattern_set.patterns])  # (P, psize, psize)
    # energy kept by each pattern in each tile: (n_row, n_col, P)
    energy = np.einsum("rcij,pij->rcp", sq, stack)
    ids = energy.argmax(axis=-1)
    chosen = stack[ids]  # (n_row, n_col, psize, psize)
    full = chosen.transpose(0, 2, 1, 3).reshape(padded.shape)
    return full[: orig_shape[0], : orig_shape[1]].copy(), ids


# distinguishes the cache entries of coexisting MaskManagers
_manager_counter = itertools.count()

# pattern sets whose combined per-layer masks a MaskManager keeps resident
_COMBINED_SETS_CAP = 8


class MaskManager:
    """Composes the fixed BP backbone mask with swappable pattern masks.

    Mirrors the deployment story: after Level 1, the backbone mask is
    frozen; at run time only the pattern set changes.  ``apply`` installs
    ``bp_mask * pattern_mask`` on every managed layer; ``clear_patterns``
    restores the backbone-only masks.
    """

    def __init__(self, model: Module, backbone_masks: Optional[Dict[str, np.ndarray]] = None,
                 min_features: int = 8, cache=None) -> None:
        self.layers: Dict[str, Linear] = prunable_linears(model, min_features=min_features)
        if not self.layers:
            raise ValueError("model has no prunable Linear layers")
        self.backbone_masks: Dict[str, np.ndarray] = {}
        for name, layer in self.layers.items():
            if backbone_masks and name in backbone_masks:
                self.backbone_masks[name] = np.asarray(backbone_masks[name], dtype=np.float64)
            else:
                self.backbone_masks[name] = np.ones_like(layer.weight.data)
        self.active_set: Optional[PatternSet] = None
        self._pattern_ids: Dict[str, np.ndarray] = {}
        # Optional repro.serve.cache.ArtifactCache: memoizes the per-layer
        # (pp_mask, ids) derivation across pattern-set swaps.  Valid only
        # while weights are frozen — call ``invalidate_cache`` after any
        # weight update.  Entries are owner-scoped: masks depend on this
        # manager's weights, so a cache shared between managers must not
        # serve one manager's masks to another.
        self.cache = cache
        self._cache_owner = f"mm{next(_manager_counter)}"
        # (layer, set digest) -> (packed, bp, combined): the read-only
        # ``bp * packed.unpack()`` installed for that pair, valid while
        # the cache hands back the same PackedMask for the same backbone
        self._combined: Dict[Tuple[str, str], tuple] = {}

    # ------------------------------------------------------------------
    def attach_cache(self, cache) -> None:
        """Install (or replace) the artifact cache used by ``apply``."""
        self.cache = cache

    def invalidate_cache(self) -> int:
        """Drop this manager's cached masks (weights changed).

        Scoped to this manager's owner key: other managers' masks in a
        shared cache stay valid.  The masks on the layers now derive from
        the old weights, so no set counts as installed (``active_set`` is
        ``None``) until the next ``apply``.  Returns the number of entries
        removed.
        """
        self.active_set = None
        self._combined.clear()
        if self.cache is None:
            return 0
        return self.cache.invalidate(owner=self._cache_owner)

    def apply(self, pattern_set: Optional[PatternSet]) -> None:
        """Install combined masks for ``pattern_set`` (None = backbone only).

        Cached mask artifacts are stored *bit-packed*
        (:class:`PackedMask`): one bit per position instead of one float,
        so the artifact cache's byte budget models the kilobytes a pattern
        switch actually moves.  Unpacking is exact — the installed masks
        are identical with and without the cache.

        With a cache, the combined ``bp * mask`` array is built once per
        (layer, pattern set) and installed read-only, so a set that comes
        back is an O(layers) lookup that restores each layer's
        ``cache_token`` instead of an unpack, a compare and a recompile.
        """
        self.active_set = pattern_set
        self._pattern_ids.clear()
        set_digest = pattern_set.digest() if pattern_set is not None else ""
        for name, layer in self.layers.items():
            bp = self.backbone_masks[name]
            if pattern_set is None:
                layer.set_mask(bp.copy())
                continue
            if self.cache is not None:
                def compute():
                    mask, ids = pattern_mask_for_matrix(
                        layer.weight.data * bp, pattern_set)
                    return PackedMask(mask), ids
                packed, ids = self.cache.get_mask(
                    name, set_digest, compute, owner=self._cache_owner)
                memo = self._combined.get((name, set_digest))
                if memo is None or memo[0] is not packed or memo[1] is not bp:
                    combined = bp * packed.unpack()
                    combined.flags.writeable = False
                    memo = (packed, bp, combined)
                    if len(self._combined) >= _COMBINED_SETS_CAP * len(self.layers):
                        del self._combined[next(iter(self._combined))]
                    self._combined[(name, set_digest)] = memo
                layer.set_mask(memo[2])
            else:
                pp_mask, ids = pattern_mask_for_matrix(layer.weight.data * bp, pattern_set)
                layer.set_mask(bp * pp_mask)
            self._pattern_ids[name] = ids

    def clear_patterns(self) -> None:
        self.apply(None)

    # ------------------------------------------------------------------
    def combined_sparsity(self) -> float:
        """Overall sparsity across managed layers under the current masks."""
        total = kept = 0
        for layer in self.layers.values():
            total += layer.weight.size
            kept += int(layer.mask.sum()) if layer.mask is not None else layer.weight.size
        return 1.0 - kept / total

    def backbone_sparsity(self) -> float:
        total = sum(m.size for m in self.backbone_masks.values())
        kept = sum(int(m.sum()) for m in self.backbone_masks.values())
        return 1.0 - kept / total

    def snapshot_masks(self) -> Dict[str, np.ndarray]:
        return {name: (layer.mask.copy() if layer.mask is not None
                       else np.ones_like(layer.weight.data))
                for name, layer in self.layers.items()}
