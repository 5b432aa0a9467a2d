"""Parameter and FLOP accounting by two independent routes.

Route 1: closed-form hire-module counts ((h+w)C^2 + C^2 params, 3HWC^2
FLOPs for the two-FC C/2 bottleneck, specializing to 2hC^2+C^2 when
h == w). Route 2: a traversal of the instantiated model in execution
order at a given resolution, reading array shapes only. The two must
agree exactly on hire modules at divisible extents.

Conventions: one multiply-accumulate = 1 FLOP; biases and norm affines
count as parameters but contribute no FLOPs; padding-induced extra
tokens ARE counted by the traversal (closed form assumes divisibility).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor as T
from .errors import ConfigError
from .hire import BottleneckMlpParams, HireModuleParams
from .network import Model, ModelConfig, assemble_model
from .rearrange import padded_extent
from .variants import FC_SWEEP_REFERENCE, REFERENCE_HW


@dataclass
class CostEntry:
    path: str
    params: int
    flops: int


@dataclass
class CostReport:
    params: int
    flops: int
    breakdown: list[CostEntry] = field(default_factory=list)

    def subtotal(self, prefix: str) -> tuple[int, int]:
        p = sum(e.params for e in self.breakdown if e.path.startswith(prefix))
        f = sum(e.flops for e in self.breakdown if e.path.startswith(prefix))
        return p, f


def hire_module_closed_form(h: int, w: int, c: int, height: int, width: int) -> tuple[int, int]:
    """Closed-form (params, flops) of one hire module, two-FC C/2 bottleneck.

    params = (h + w) C^2 + C^2 (= 2hC^2 + C^2 when h == w),
    flops  = 3 H W C^2, assuming H divisible by h and W divisible by w.
    """
    if min(h, w, c, height, width) < 1:
        raise ConfigError("hire_module_closed_form: all arguments must be positive")
    params = (h + w) * c * c + c * c
    flops = 3 * height * width * c * c
    return params, flops


def _norm_params(norm: T.NormParams, weights_only: bool) -> int:
    # gamma/beta are parameters; running statistics are buffers, not counted
    return 0 if weights_only else 2 * norm.channels


def _linear_cost(p: T.LinearParams, tokens: int, weights_only: bool) -> tuple[int, int]:
    w = T._value(p.weight)
    return w.size + (0 if weights_only else T._value(p.bias).size), tokens * w.size


def _bottleneck_cost(mlp: BottleneckMlpParams, tokens: int, weights_only: bool) -> tuple[int, int]:
    params = flops = 0
    for layer in mlp.layers:
        p, f = _linear_cost(layer, tokens, weights_only)
        params += p
        flops += f
    if mlp.norm is not None:
        params += _norm_params(mlp.norm, weights_only)
    return params, flops


def _hire_cost(
    hire: HireModuleParams, h_ext: int, w_ext: int, path: str, weights_only: bool
) -> list[CostEntry]:
    # a branch MLP runs once per region: padded extent / region size along its axis
    m_h, m_w = hire.height.region.region_size, hire.width.region.region_size
    h_tokens = padded_extent(h_ext, m_h) // m_h * w_ext
    w_tokens = h_ext * (padded_extent(w_ext, m_w) // m_w)
    return [
        CostEntry(f"{path}.height", *_bottleneck_cost(hire.height.mlp, h_tokens, weights_only)),
        CostEntry(f"{path}.width", *_bottleneck_cost(hire.width.mlp, w_tokens, weights_only)),
        CostEntry(f"{path}.channel", *_linear_cost(hire.channel, h_ext * w_ext, weights_only)),
    ]


def _embed_out(extent: int, stride: int) -> int:
    return -(-extent // stride)


def count_model(model: Model, height: int, width: int, weights_only: bool = False) -> CostReport:
    """Traverse the model in execution order at the given input resolution.

    weights_only=True restricts parameter counts to rank-2 weight matrices
    (the closed-form convention); the default also counts biases and norm
    affines. FLOP counts are identical in both modes.
    """
    entries: list[CostEntry] = []
    h, w = height, width
    for i, stage in enumerate(model.stages):
        pe = stage.embed.spec
        h, w = _embed_out(h, pe.stride), _embed_out(w, pe.stride)
        p, f = _linear_cost(stage.embed.proj, h * w, weights_only)
        entries.append(CostEntry(f"stage{i + 1}.embed", p, f))
        for b, block in enumerate(stage.blocks):
            prefix = f"stage{i + 1}.block{b}"
            if not weights_only:
                entries.append(
                    CostEntry(f"{prefix}.norm1", _norm_params(block.norm1, weights_only), 0)
                )
            entries.extend(_hire_cost(block.hire, h, w, f"{prefix}.hire", weights_only))
            if not weights_only:
                entries.append(
                    CostEntry(f"{prefix}.norm2", _norm_params(block.norm2, weights_only), 0)
                )
            p1, f1 = _linear_cost(block.channel_mlp.fc1, h * w, weights_only)
            p2, f2 = _linear_cost(block.channel_mlp.fc2, h * w, weights_only)
            entries.append(CostEntry(f"{prefix}.channel_mlp", p1 + p2, f1 + f2))
    p, f = _linear_cost(model.head, 1, weights_only)
    entries.append(CostEntry("head", p, f))
    return CostReport(
        params=sum(e.params for e in entries),
        flops=sum(e.flops for e in entries),
        breakdown=entries,
    )


def count_config(
    config: ModelConfig, height: int, width: int, weights_only: bool = False
) -> CostReport:
    """count_model of config's model, assembled with zero weights: the
    traversal reads shapes only, so no random weights are drawn."""
    model = assemble_model(config, lambda shape: np.zeros(shape, dtype=np.float32))
    return count_model(model, height, width, weights_only)


def ablation_cost_sweep(base_config: ModelConfig) -> list[tuple[int, CostReport]]:
    """Cost reports at REFERENCE_HW of the 1- to 4-FC bottleneck variants of
    one base config, the depths of the published sweep (FC_SWEEP_REFERENCE)."""
    return [
        (n, count_config(replace(base_config, bottleneck_fcs=n), *REFERENCE_HW))
        for n in FC_SWEEP_REFERENCE
    ]
