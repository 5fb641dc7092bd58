"""Neural-network layers, models and optimizers on :mod:`repro.tensor`.

Provides the model substrate the paper runs on: a torch-like ``Module``
system, the standard transformer building blocks, the paper's two model
families (a small encoder-decoder ``TransformerLM`` with 2 encoder and
1 decoder layers, and ``DistilBert*`` with 6 encoder layers), plus SGD /
Adam optimizers and LR schedulers.

Two forward planes share the same weights:

- **training** — the eager reverse-mode autograd engine
  (:mod:`repro.tensor`): every op records the graph, ``backward()``
  applies the chain rule;
- **inference** — :func:`repro.nn.inference.compile_inference` compiles
  a model's eval-mode forward into a flat program of pure ``np.ndarray``
  steps (fused layernorm/softmax, zero graph construction), bound per
  input shape to preallocated buffers and replayed as prebuilt ufunc
  calls on every later call of that shape.  The float64 plan is
  bit-identical to the eager forward and compiles once per distinct
  parameter/mask signature (O(1)
  :attr:`~repro.nn.layers.Linear.cache_token` / ``Parameter.version``
  checks), so switching back to a pattern set already seen is a lookup;
  the serving stack runs every batch and every decode step through it
  (a decode step is the plan's last output row).
"""

from repro.nn.module import Module, Parameter, ModuleList
from repro.nn.layers import Linear, Embedding, LayerNorm, Dropout, Sequential, ReLU, GELU, Tanh
from repro.nn.attention import MultiHeadAttention
from repro.nn.transformer import (
    TransformerConfig,
    TransformerEncoderLayer,
    TransformerDecoderLayer,
    TransformerLM,
)
from repro.nn.distilbert import DistilBertConfig, DistilBertModel, DistilBertForSequenceTask
from repro.nn.optim import SGD, Adam, Optimizer, clip_grad_norm
from repro.nn.masked_optim import MaskedAdam
from repro.nn.lr_scheduler import ConstantLR, LinearWarmupDecay, StepLR
from repro.nn.generation import (
    DecodeSession,
    GenerationConfig,
    GenerationResult,
    generate_with_deadline,
    sample_token,
)
from repro.nn.inference import (
    CompiledForward,
    ScratchPool,
    UnsupportedModel,
    compile_decode,
    compile_inference,
)
from repro.nn.training import FitConfig, TrainingHistory, fit

__all__ = [
    "Module",
    "Parameter",
    "ModuleList",
    "Linear",
    "Embedding",
    "LayerNorm",
    "Dropout",
    "Sequential",
    "ReLU",
    "GELU",
    "Tanh",
    "MultiHeadAttention",
    "TransformerConfig",
    "TransformerEncoderLayer",
    "TransformerDecoderLayer",
    "TransformerLM",
    "DistilBertConfig",
    "DistilBertModel",
    "DistilBertForSequenceTask",
    "SGD",
    "Adam",
    "MaskedAdam",
    "Optimizer",
    "clip_grad_norm",
    "ConstantLR",
    "LinearWarmupDecay",
    "StepLR",
    "CompiledForward",
    "ScratchPool",
    "UnsupportedModel",
    "compile_decode",
    "compile_inference",
    "DecodeSession",
    "GenerationConfig",
    "GenerationResult",
    "generate_with_deadline",
    "sample_token",
    "FitConfig",
    "TrainingHistory",
    "fit",
]
