"""RT3 deployment bundle: backbone + masks + per-level pattern sets.

On-disk layout of a saved bundle directory::

    bundle/
      manifest.json        # level binding, sparsities, metadata
      backbone.npz         # model state dict
      masks.npz            # BP backbone masks, keyed by layer name
      patterns_<level>.npz # each level's pattern masks (stacked)

The manifest stores per-level sparsity and pattern count so the runtime
can reason about switch costs without loading the arrays.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

import numpy as np

from repro.core.patterns import MaskManager, Pattern, PatternSet
from repro.nn.module import Module

PathLike = Union[str, pathlib.Path]

MANIFEST_VERSION = 1


def save_state_npz(state: Dict[str, np.ndarray], path: PathLike) -> None:
    """Save a state dict (or mask dict) as a compressed .npz archive."""
    np.savez_compressed(str(path), **state)


def load_state_npz(path: PathLike) -> Dict[str, np.ndarray]:
    """Load a dict of arrays saved by :func:`save_state_npz`."""
    with np.load(str(path)) as archive:
        return {name: archive[name] for name in archive.files}


@dataclass
class LevelBinding:
    """What one V/F level deploys."""

    level_name: str
    pattern_set: PatternSet
    total_sparsity: float

    def manifest_entry(self) -> dict:
        return {
            "level": self.level_name,
            "num_patterns": len(self.pattern_set),
            "pattern_size": self.pattern_set.pattern_size,
            "pattern_sparsity": self.pattern_set.sparsity,
            "total_sparsity": self.total_sparsity,
        }


@dataclass
class DeploymentBundle:
    """Everything the device needs to run and reconfigure the model."""

    backbone_state: Dict[str, np.ndarray]
    backbone_masks: Dict[str, np.ndarray]
    bindings: List[LevelBinding]
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.bindings:
            raise ValueError("a bundle needs at least one level binding")
        names = [b.level_name for b in self.bindings]
        if len(set(names)) != len(names):
            raise ValueError("duplicate level bindings")

    # ------------------------------------------------------------------
    def binding_for(self, level_name: str) -> LevelBinding:
        for b in self.bindings:
            if b.level_name == level_name:
                return b
        raise KeyError(f"no binding for level {level_name!r}")

    def pattern_sets(self) -> Dict[str, PatternSet]:
        return {b.level_name: b.pattern_set for b in self.bindings}

    # ------------------------------------------------------------------
    def save(self, directory: PathLike) -> pathlib.Path:
        """Write the bundle; returns the directory path."""
        directory = pathlib.Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        save_state_npz(self.backbone_state, directory / "backbone.npz")
        save_state_npz(self.backbone_masks, directory / "masks.npz")
        for b in self.bindings:
            stacked = np.stack([p.mask for p in b.pattern_set])
            np.savez_compressed(directory / f"patterns_{b.level_name}.npz",
                                masks=stacked,
                                sparsity=np.asarray(b.pattern_set.sparsity))
        manifest = {
            "version": MANIFEST_VERSION,
            "levels": [b.manifest_entry() for b in self.bindings],
            "metadata": self.metadata,
        }
        (directory / "manifest.json").write_text(json.dumps(manifest, indent=2))
        return directory

    # ------------------------------------------------------------------
    def install(self, model: Module, level_name: Optional[str] = None) -> MaskManager:
        """Load weights into ``model`` and activate a level's pattern set.

        Defaults to the highest-named level (the top V/F level under the
        lN naming convention).  Returns the manager for later switching.
        """
        model.load_state_dict(self.backbone_state)
        manager = MaskManager(model, self.backbone_masks)
        target = level_name or max(b.level_name for b in self.bindings)
        manager.apply(self.binding_for(target).pattern_set)
        return manager


def export_bundle(rt3, result, extra_metadata: Optional[dict] = None) -> DeploymentBundle:
    """Build a bundle from a finished :class:`repro.core.rt3.RT3` search.

    ``rt3`` must be the framework instance that produced ``result`` (its
    manager holds the backbone masks and its space maps sparsities).
    """
    if rt3.manager is None or rt3.space is None:
        raise ValueError("rt3.search() must run before export")
    bindings = [
        LevelBinding(
            name,
            result.best.pattern_sets[name],
            rt3.space.total_sparsity(result.best.pattern_sets[name].sparsity),
        )
        for name in rt3.table.names()
    ]
    metadata = {
        "deadline_ms": rt3.cfg.deadline_s * 1e3,
        "backbone_sparsity": rt3.manager.backbone_sparsity(),
        "original_accuracy": result.original_accuracy,
        "backbone_accuracy": result.backbone_accuracy,
        "final_accuracies": result.final_accuracies,
        "switch_ms": result.switch_ms,
    }
    metadata.update(extra_metadata or {})
    return DeploymentBundle(
        backbone_state=rt3.task.model.state_dict(),
        backbone_masks={k: v.copy() for k, v in rt3.manager.backbone_masks.items()},
        bindings=bindings,
        metadata=metadata,
    )


def load_bundle(directory: PathLike) -> DeploymentBundle:
    """Load a bundle saved by :meth:`DeploymentBundle.save`."""
    directory = pathlib.Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    if manifest.get("version") != MANIFEST_VERSION:
        raise ValueError(f"unsupported bundle version {manifest.get('version')!r}")
    backbone = load_state_npz(directory / "backbone.npz")
    masks = load_state_npz(directory / "masks.npz")
    bindings = []
    for entry in manifest["levels"]:
        with np.load(directory / f"patterns_{entry['level']}.npz") as arch:
            stacked = arch["masks"]
            sparsity = float(arch["sparsity"])
        pset = PatternSet([Pattern(m) for m in stacked], sparsity=sparsity,
                          name=f"s{sparsity:.2f}")
        bindings.append(LevelBinding(entry["level"], pset,
                                     float(entry["total_sparsity"])))
    return DeploymentBundle(backbone, masks, bindings,
                            metadata=manifest.get("metadata", {}))
