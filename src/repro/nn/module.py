"""Torch-like ``Module``/``Parameter`` system.

Modules register parameters and child modules automatically via
``__setattr__`` so that ``parameters()`` / ``named_parameters()`` walk the
whole tree.  ``state_dict`` / ``load_state_dict`` give (de)serialization,
which the RT3 trainer uses to snapshot and restore backbone weights.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.tensor.tensor import Tensor


class Parameter(Tensor):
    """A trainable tensor (``requires_grad=True`` by construction).

    ``version`` counts content updates: every sanctioned mutation path
    (optimizer steps, masked-optimizer pinning, ``load_state_dict``)
    bumps it, so caches keyed on the version never pay to hash the data
    — the O(1) replacement for content digests on serving hot paths.
    Code that mutates ``data`` in place through any other route must
    call :meth:`bump_version` itself.
    """

    def __init__(self, data, name: str = "") -> None:
        super().__init__(data, requires_grad=True, name=name)
        self.version = 0

    def bump_version(self) -> None:
        """Declare that ``data`` changed (invalidates version-keyed caches)."""
        self.version += 1


class Module:
    """Base class for all layers and models."""

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def __setattr__(self, key: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[key] = value
        elif isinstance(value, Module):
            self._modules[key] = value
        object.__setattr__(self, key, value)

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield (prefix.rstrip("."), self)
        for name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{name}.")

    def modules(self) -> Iterator["Module"]:
        for _, m in self.named_modules():
            yield m

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if strict and (missing or unexpected):
            raise KeyError(f"state mismatch; missing={sorted(missing)} unexpected={sorted(unexpected)}")
        for name, value in state.items():
            if name in own:
                if own[name].shape != value.shape:
                    raise ValueError(f"shape mismatch for {name}: {own[name].shape} vs {value.shape}")
                own[name].data[...] = value
                own[name].bump_version()

    # ------------------------------------------------------------------
    # call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        child = ", ".join(self._modules)
        return f"{type(self).__name__}({child})"


class ModuleList(Module):
    """A list of submodules, registered under their index."""

    def __init__(self, modules: Optional[List[Module]] = None) -> None:
        super().__init__()
        self._items: List[Module] = []
        for m in modules or []:
            self.append(m)

    def append(self, module: Module) -> None:
        self._modules[str(len(self._items))] = module
        self._items.append(module)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, idx: int) -> Module:
        return self._items[idx]
