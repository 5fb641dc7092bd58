"""Sparse storage formats with exact byte accounting.

Three layouts, matching the storage options the paper discusses:

- :class:`COOMatrix` — irregular pruning's format: three parallel vectors
  (row, col, data).  Flexible but index-heavy: 2 coordinates per nonzero.
- :class:`BlockCompressedMatrix` — BP's format: the matrix is split into
  row-wise blocks; each block stores the indices of its *kept columns*
  once, plus a dense (rows x kept) payload.  Indices per kept group, not
  per nonzero — the paper's Section III-B memory argument.
- :class:`PatternIndexedMatrix` — PP's format: a shared library of
  ``psize x psize`` bitmasks plus one pattern id per tile and the packed
  nonzero values per tile.

Every format converts losslessly back to dense (tested), and reports its
storage footprint via ``nbytes()`` so the formats can be compared at equal
sparsity.

The structured formats additionally materialize *execution tables* once
per matrix — the software analogue of PatDNN's compiler-generated code:

- :meth:`PatternIndexedMatrix.pattern_groups` groups tiles by pattern id
  (tile coordinates plus a dense ``(tiles, psize, psize)`` stack of the
  packed values), so the pattern kernel runs one gather and one batched
  ``einsum`` per *pattern* instead of a Python loop per tile;
- :meth:`BlockCompressedMatrix.matmul_groups` groups row-blocks by
  ``(height, kept_columns)`` so uniform blocks execute as one batched
  GEMM.

Both tables are cached on the matrix and shared by every kernel
invocation; :meth:`PatternIndexedMatrix.consume_table_charge` bills their
index cost exactly once per packed matrix (amortized across calls), which
is the cost story :mod:`repro.sparse.kernels` documents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

VALUE_BYTES = 4  # fp32 payloads on device
COORD_BYTES = 4  # 32-bit coordinates
GROUP_INDEX_BYTES = 2  # 16-bit kept-column indices (dims < 65536)
PATTERN_ID_BYTES = 2


@dataclass
class COOMatrix:
    """Coordinate-format sparse matrix (row, col, data vectors)."""

    shape: Tuple[int, int]
    row: np.ndarray
    col: np.ndarray
    data: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.row) == len(self.col) == len(self.data)):
            raise ValueError("row/col/data must have equal lengths")
        if len(self.row) and (self.row.max() >= self.shape[0]
                              or self.col.max() >= self.shape[1]):
            raise ValueError("coordinates out of bounds")

    @property
    def nnz(self) -> int:
        return len(self.data)

    def nbytes(self) -> int:
        return self.nnz * (VALUE_BYTES + 2 * COORD_BYTES)

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.row, self.col] = self.data
        return out


@dataclass
class BlockMatmulGroup:
    """Blocks sharing a ``(height, kept_columns)`` signature, stacked.

    ``rows`` are the flat output rows the group's blocks cover (blocks
    never overlap rows, so the kernel can assign, not scatter);
    ``cols``/``payloads`` stack each block's kept-column indices and dense
    payload so one batched ``einsum`` executes the whole group.
    """

    rows: np.ndarray  # (B * height,) flat output row indices
    cols: np.ndarray  # (B, kept) kept-column indices per block
    payloads: np.ndarray  # (B, height, kept) dense payloads


@dataclass
class BlockCompressedMatrix:
    """BP's layout: per row-block, kept-column indices + dense payload."""

    shape: Tuple[int, int]
    block_bounds: List[Tuple[int, int]]
    kept_cols: List[np.ndarray]  # per block: sorted kept column indices
    payloads: List[np.ndarray]  # per block: (block_rows, len(kept_cols))
    _groups: Optional[List[BlockMatmulGroup]] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (len(self.block_bounds) == len(self.kept_cols) == len(self.payloads)):
            raise ValueError("per-block lists must align")
        for (lo, hi), cols, payload in zip(self.block_bounds, self.kept_cols,
                                           self.payloads):
            if payload.shape != (hi - lo, len(cols)):
                raise ValueError("payload shape mismatch")

    @property
    def nnz(self) -> int:
        return sum(p.size for p in self.payloads)

    def nbytes(self) -> int:
        values = self.nnz * VALUE_BYTES
        indices = sum(len(c) for c in self.kept_cols) * GROUP_INDEX_BYTES
        return values + indices

    def matmul_groups(self) -> List[BlockMatmulGroup]:
        """Blocks grouped by ``(height, kept_count)``, built once and cached.

        Uniform-height, uniform-kept blocks (the common case: BP splits
        rows evenly) collapse into a single group, so the kernel runs one
        batched GEMM; ragged blocks each land in their own group and the
        kernel degrades gracefully to per-group dispatch.
        """
        if self._groups is None:
            by_sig: dict = {}
            for i, ((lo, hi), cols) in enumerate(zip(self.block_bounds,
                                                     self.kept_cols)):
                by_sig.setdefault((hi - lo, len(cols)), []).append(i)
            groups = []
            for (height, kept), idxs in by_sig.items():
                if height == 0:
                    continue
                rows = np.concatenate([np.arange(*self.block_bounds[i])
                                       for i in idxs])
                cols = np.stack([np.asarray(self.kept_cols[i], dtype=np.int64)
                                 for i in idxs])
                payloads = np.stack([self.payloads[i] for i in idxs])
                groups.append(BlockMatmulGroup(rows, cols, payloads))
            self._groups = groups
        return self._groups

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        for (lo, hi), cols, payload in zip(self.block_bounds, self.kept_cols,
                                           self.payloads):
            out[lo:hi, cols] = payload
        return out


@dataclass
class PatternTileGroup:
    """Tiles sharing one pattern id, ready for a batched kernel pass.

    ``tiles`` scatters each tile's packed values back into a dense
    ``(T, psize, psize)`` stack (positions are fixed per pattern, so this
    is a single duplicate-free assignment); the kernel contracts it with
    the gathered activation tiles in one ``einsum``.
    """

    pattern_id: int
    tile_rows: np.ndarray  # (T,) tile row index bi per member tile
    tile_cols: np.ndarray  # (T,) tile col index bj per member tile
    tiles: np.ndarray  # (T, psize, psize) dense value stack
    nnz: int  # total packed values across member tiles


@dataclass
class PatternIndexedMatrix:
    """PP's layout: shared pattern bitmasks + per-tile (id, packed values)."""

    shape: Tuple[int, int]
    pattern_size: int
    patterns: np.ndarray  # (P, psize, psize) binary
    tile_ids: np.ndarray  # (n_row, n_col) int
    tile_values: List[np.ndarray]  # row-major per tile: packed kept values
    _kept_positions: Optional[List[np.ndarray]] = field(
        default=None, init=False, repr=False, compare=False)
    _groups: Optional[List[PatternTileGroup]] = field(
        default=None, init=False, repr=False, compare=False)
    _table_charged: bool = field(
        default=False, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.tile_ids.size != len(self.tile_values):
            raise ValueError("one value vector per tile required")
        if self.tile_ids.size and self.tile_ids.max() >= len(self.patterns):
            raise ValueError("tile id out of range")

    @property
    def nnz(self) -> int:
        return sum(len(v) for v in self.tile_values)

    def nbytes(self, include_patterns: bool = True) -> int:
        values = self.nnz * VALUE_BYTES
        ids = self.tile_ids.size * PATTERN_ID_BYTES
        masks = (self.patterns.size / 8) if include_patterns else 0
        return int(values + ids + masks)

    # -- execution tables (materialized once, shared by every kernel call)
    def kept_positions(self) -> List[np.ndarray]:
        """Per-pattern ``(k, 2)`` kept-position tables, built once."""
        if self._kept_positions is None:
            self._kept_positions = [np.argwhere(p != 0) for p in self.patterns]
        return self._kept_positions

    def consume_table_charge(self) -> int:
        """Index ops to materialize the kept-position tables — once.

        The tables are compiler-generated code in PatDNN terms: built a
        single time per packed matrix and amortized over every subsequent
        kernel invocation.  The first call returns their index cost; later
        calls return 0.
        """
        if self._table_charged:
            return 0
        self._table_charged = True
        return sum(len(k) for k in self.kept_positions())

    def pattern_groups(self) -> List[PatternTileGroup]:
        """Tiles grouped by pattern id, built once and cached."""
        if self._groups is None:
            n_col = self.tile_ids.shape[1]
            flat_ids = self.tile_ids.ravel()
            kept = self.kept_positions()
            psize = self.pattern_size
            groups = []
            for pid in np.unique(flat_ids):
                tidx = np.flatnonzero(flat_ids == pid)
                pos = kept[pid]
                tiles = np.zeros((len(tidx), psize, psize))
                nnz = 0
                if len(pos):
                    values = np.stack([self.tile_values[i] for i in tidx])
                    tiles[:, pos[:, 0], pos[:, 1]] = values
                    nnz = int(values.size)
                groups.append(PatternTileGroup(
                    int(pid), tidx // n_col, tidx % n_col, tiles, nnz))
            self._groups = groups
        return self._groups

    def to_dense(self) -> np.ndarray:
        psize = self.pattern_size
        n_row, n_col = self.tile_ids.shape
        masks = self.patterns[self.tile_ids.ravel()] != 0  # (T, psize, psize)
        tiles = np.zeros((n_row * n_col, psize, psize))
        if self.tile_values:
            # boolean assignment walks tiles then positions row-major —
            # exactly the packing order of ``tile_values``
            tiles[masks] = np.concatenate(
                [np.asarray(v, dtype=np.float64) for v in self.tile_values])
        padded = tiles.reshape(n_row, n_col, psize, psize)
        padded = padded.transpose(0, 2, 1, 3).reshape(n_row * psize, n_col * psize)
        return padded[: self.shape[0], : self.shape[1]]


# ---------------------------------------------------------------------------
# constructors from dense
# ---------------------------------------------------------------------------

def from_dense_coo(dense: np.ndarray) -> COOMatrix:
    """Store the nonzeros of ``dense`` in COO format."""
    row, col = np.nonzero(dense)
    return COOMatrix(dense.shape, row, col, dense[row, col].astype(np.float64))


def from_dense_block(dense: np.ndarray, num_blocks: int) -> BlockCompressedMatrix:
    """Store ``dense`` in BP's block-compressed layout.

    Within each row-block, a column is "kept" if it has any nonzero; BP
    masks produce exactly this structure (whole columns per block).  The
    kept-column detection is a single vectorized reduction when the blocks
    split evenly (the usual case); only the ragged-height fallback walks
    blocks one by one.
    """
    if dense.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    if num_blocks < 1:
        raise ValueError("num_blocks must be at least 1")
    edges = np.linspace(0, dense.shape[0], num_blocks + 1).astype(int)
    heights = np.diff(edges)
    if heights.size and np.all(heights == heights[0]) and heights[0] > 0:
        # one reduction for every block at once
        any_nz = (dense.reshape(num_blocks, heights[0], dense.shape[1])
                  != 0).any(axis=1)
    else:
        any_nz = np.stack([(dense[lo:hi] != 0).any(axis=0) if hi > lo
                           else np.zeros(dense.shape[1], dtype=bool)
                           for lo, hi in zip(edges[:-1], edges[1:])])
    bounds, kept, payloads = [], [], []
    for b, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        cols = np.flatnonzero(any_nz[b])
        bounds.append((int(lo), int(hi)))
        kept.append(cols)
        payloads.append(dense[lo:hi][:, cols].copy())
    return BlockCompressedMatrix(dense.shape, bounds, kept, payloads)


def from_dense_pattern(dense: np.ndarray, patterns: Sequence[np.ndarray],
                       tile_ids: np.ndarray) -> PatternIndexedMatrix:
    """Pack ``dense`` given the pattern library and per-tile assignment.

    ``dense`` must already be masked (zeros outside each tile's pattern);
    the values kept are those at the pattern's one-positions.  Packing is
    fully vectorized: one tile view, one mask gather, one boolean extract.
    """
    stack = np.stack([np.asarray(p) != 0 for p in patterns])
    psize = stack.shape[1]
    n_row, n_col = tile_ids.shape
    padded = np.zeros((n_row * psize, n_col * psize))
    padded[: dense.shape[0], : dense.shape[1]] = dense
    # (n_row, n_col, psize, psize) tile view, then flat (T, psize, psize)
    tiles = padded.reshape(n_row, psize, n_col, psize).transpose(0, 2, 1, 3)
    tiles = tiles.reshape(n_row * n_col, psize, psize)
    masks = stack[tile_ids.ravel()]
    outside = (tiles != 0) & ~masks
    if outside.any():
        bad = int(np.flatnonzero(outside.any(axis=(1, 2)))[0])
        raise ValueError(f"tile ({bad // n_col},{bad % n_col}) has nonzeros "
                         "outside its pattern")
    # boolean extraction is row-major per tile — the packing order
    flat_values = tiles[masks].astype(np.float64)
    counts = masks.sum(axis=(1, 2))
    values = (list(np.split(flat_values, np.cumsum(counts)[:-1]))
              if counts.size else [])
    return PatternIndexedMatrix(dense.shape, psize, stack.astype(np.float64),
                                tile_ids.astype(np.int64), values)
