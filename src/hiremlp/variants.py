"""The reconstructed model family and its published budget targets.

Per-variant depths/channels are reconstructed from the published budget
table (the defining table is not public): the 1-FC minus 2-FC parameter
delta pins the spatial-branch structure, and per-stage channel-MLP
expansion ratios close the remaining gap. Configs are labeled
"reconstructed" in their meta block and verified within 5% of the
published parameter/FLOP totals by the acceptance suite.
"""

from __future__ import annotations

from .network import ModelConfig, PatchEmbedSpec, StageConfig

# (height, width) of the input at which every published FLOP count below was taken
REFERENCE_HW = (224, 224)

# published (params, flops) at REFERENCE_HW, MAC-as-FLOP convention
REFERENCE_BUDGETS = {
    "tiny": (18.0e6, 2.1e9),
    "small": (33.11e6, 4.24e9),
    "base": (58.0e6, 8.1e9),
    "large": (96.0e6, 13.4e9),
}

# published Small totals for the 1/2/3/4-FC bottleneck sweep, at REFERENCE_HW
FC_SWEEP_REFERENCE = {
    1: (49.65e6, 5.65e9),
    2: (33.11e6, 4.24e9),
    3: (32.98e6, 4.23e9),
    4: (33.26e6, 4.24e9),
}

BUDGET_TOLERANCE = 0.05

_EMBEDS = (
    PatchEmbedSpec(kernel=7, stride=4),
    PatchEmbedSpec(kernel=3, stride=2),
    PatchEmbedSpec(kernel=3, stride=2),
    PatchEmbedSpec(kernel=3, stride=2),
)


def _config(name: str, depths, channels, regions, steps, ratios) -> ModelConfig:
    ref = REFERENCE_BUDGETS[name]
    return ModelConfig(
        stages=tuple(
            StageConfig(depth=d, channels=c, h=a, w=a, s=s, padding="circular")
            for d, c, a, s in zip(depths, channels, regions, steps)
        ),
        patch_embed=_EMBEDS,
        expansion_ratio=tuple(ratios),
        num_classes=1000,
        meta={
            "name": name,
            "provenance": "reconstructed",
            "reference_params": ref[0],
            "reference_flops": ref[1],
        },
    )


def tiny_config() -> ModelConfig:
    return _config(
        "tiny",
        depths=(2, 2, 4, 2),
        channels=(64, 128, 320, 512),
        regions=(4, 3, 3, 3),
        steps=(2, 2, 1, 1),
        ratios=(4, 4, 5, 4),
    )


def small_config() -> ModelConfig:
    return _config(
        "small",
        depths=(3, 4, 10, 3),
        channels=(64, 128, 320, 512),
        regions=(4, 3, 3, 2),
        steps=(2, 2, 1, 1),
        ratios=(4, 4, 5, 5),
    )


def base_config() -> ModelConfig:
    return _config(
        "base",
        depths=(4, 6, 24, 3),
        channels=(64, 128, 320, 512),
        regions=(4, 3, 3, 3),
        steps=(2, 2, 1, 1),
        ratios=(4, 4, 5, 4),
    )


def large_config() -> ModelConfig:
    return _config(
        "large",
        depths=(4, 6, 24, 3),
        channels=(96, 192, 384, 768),
        regions=(4, 3, 3, 2),
        steps=(2, 2, 1, 1),
        ratios=(4, 4, 5, 5),
    )


def micro_config() -> ModelConfig:
    """Desk-scale config for gradient checks and fast structural tests."""
    return ModelConfig(
        stages=(
            StageConfig(depth=1, channels=8, h=2, w=2, s=1),
            StageConfig(depth=1, channels=12, h=3, w=3, s=1),
            StageConfig(depth=1, channels=16, h=2, w=2, s=1),
            StageConfig(depth=1, channels=20, h=1, w=1, s=0),
        ),
        patch_embed=(
            PatchEmbedSpec(kernel=7, stride=4),
            PatchEmbedSpec(kernel=3, stride=2),
            PatchEmbedSpec(kernel=3, stride=2),
            PatchEmbedSpec(kernel=3, stride=2),
        ),
        expansion_ratio=(2, 2, 2, 2),
        num_classes=2,
        shift_phase=0,  # single-block stages still exercise the cross-shift
        meta={"name": "micro"},
    )


VARIANTS = {
    "tiny": tiny_config,
    "small": small_config,
    "base": base_config,
    "large": large_config,
    "micro": micro_config,
}
