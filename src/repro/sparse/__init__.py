"""Executable sparse formats and kernels.

The latency model in :mod:`repro.hardware` *predicts* how block/pattern/COO
sparsity execute on the target; this package makes those execution
strategies concrete and testable:

- :mod:`repro.sparse.formats` — COO, block-compressed (BP's kept-group
  layout) and pattern-indexed storage with exact byte accounting, dense
  round-trips, and cached execution tables (tiles grouped by pattern id,
  blocks grouped by height/kept signature) materialized once per matrix;
- :mod:`repro.sparse.kernels` — matmul kernels for each format whose
  operation counts (:class:`OpCounter`) realize the cost ordering the
  paper argues for: block ≈ pattern ≪ irregular, and whose outputs match
  the dense reference exactly.  The structured kernels are vectorized:
  ``pattern_matmul`` runs one gather + one batched ``einsum`` per
  *pattern* (≥10x over the scalar per-tile loop, kept as
  :func:`pattern_matmul_loop` for the microbench), ``block_matmul`` one
  batched GEMM per block group;
- :mod:`repro.sparse.executor` — the model cost audit: every masked layer
  through one format's kernel, checked against the dense product.

The kernels are cost models, not the serving path.  Serving folds the
masks into dense weights, and on every serving layer shape (at most 64
wide) a dense ``x @ W.T`` beats them; ``docs/benchmarks.md`` has the
timings.
"""

from repro.sparse.formats import (
    COOMatrix,
    BlockCompressedMatrix,
    BlockMatmulGroup,
    PatternIndexedMatrix,
    PatternTileGroup,
    from_dense_coo,
    from_dense_block,
    from_dense_pattern,
)
from repro.sparse.kernels import (
    OpCounter,
    dense_matmul,
    coo_matmul,
    block_matmul,
    pattern_matmul,
    pattern_matmul_loop,
)
from repro.sparse.executor import SparseExecutor, ModelAudit, LayerAudit, compare_formats

__all__ = [
    "COOMatrix",
    "BlockCompressedMatrix",
    "BlockMatmulGroup",
    "PatternIndexedMatrix",
    "PatternTileGroup",
    "from_dense_coo",
    "from_dense_block",
    "from_dense_pattern",
    "OpCounter",
    "dense_matmul",
    "coo_matmul",
    "block_matmul",
    "pattern_matmul",
    "pattern_matmul_loop",
    "SparseExecutor",
    "ModelAudit",
    "LayerAudit",
    "compare_formats",
]
