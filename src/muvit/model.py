"""Full segmentation model: 5-stage hybrid encoder, cascaded decoder, head.

Stages 1-3 are ConvUtr stages, stage 4 stacks LKLGL blocks at 1/16
resolution, stage 5 is the transformer bottleneck on the 1/32 token grid.
The decoder upsamples back in five steps, fusing pooled (or horizontal)
skip features from the ConvUtr stages along the way, as SKIPS lays out.

MobileUViT.stages is the one walk of the network. It yields (name, output)
per stage: enc1..enc5, the mode's skip adapters (adapt1..), dec1..dec5 and
head. forward returns the last output, and first_nonfinite_layer names the
first stage of the walk, adapter or not, whose output is non-finite.
"""

from collections import namedtuple
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from . import nn, tensor as T
from .blocks import (DOWNSAMPLE_MODES, ConvUtrStage, DecoderBlock, Downsample,
                     LKLGLBlock, SkipAdapter, TransformerBlock, to_map, to_tokens)
from .nn import Conv2d, BatchNorm2d, Module, ModuleList
from .tensor import ConfigError, UsageError

VARIANTS = {
    "base": {"channels": (16, 16, 32, 64, 128), "depths": (1, 1, 3, 3, 3)},
    "large": {"channels": (32, 32, 64, 128, 256), "depths": (1, 1, 3, 3, 4)},
}

# A skip adapter refines the output of encoder stage `stage` (max-pooled 2x
# first if `pooled`) and feeds decoder block `level`, counted from the
# bottleneck.
Skip = namedtuple("Skip", "name stage level pooled")

# The skip wiring of each mode, one row per adapter in creation order. Stage i
# outputs s / 2**i and decoder block L runs at s / 2**(4 - L), so a pooled
# stage-i feature fuses at level 3 - i and a horizontal one at level 4 - i.
SKIPS = {
    "none": (),
    "horizontal": (Skip("adapt1", 1, 3, False), Skip("adapt2", 2, 2, False),
                   Skip("adapt3", 3, 1, False)),
    "skip1": (Skip("adapt1", 1, 2, True),),
    "skip2": (Skip("adapt1", 1, 2, True), Skip("adapt2", 2, 1, True)),
    "skip3": (Skip("adapt1", 1, 2, True), Skip("adapt2", 2, 1, True),
              Skip("adapt3", 3, 0, True)),
}

# Shared by both variants. The LKLGL transposed conv redistributes each pooled
# token over a POOL_RATIO x POOL_RATIO patch, so its kernel is POOL_RATIO.
LKLGL_KERNEL = 9
POOL_RATIO = 2
FFN_RATIO = 6
HEAD_DIM = 32


@dataclass(frozen=True)
class ModelConfig:
    """Every field a checkpoint's config document carries, plus the dtype.

    The variant fixes channels and depths; the LKLGL kernel, pool ratio, FFN
    ratio and head width are the module constants above. With input_size a
    multiple of 32, every width divides by HEAD_DIM and the stage-4 grid by
    POOL_RATIO.
    """
    variant: str = "base"
    convutr_kernels: tuple = (3, 3, 7)
    num_classes: int = 1
    input_size: int = 256
    skip_mode: str = "skip3"
    downsample_mode: str = "maxpool"
    literal_eq2: bool = False
    dtype: str = "f32"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant '{self.variant}'")
        if len(self.convutr_kernels) != 3:
            raise ConfigError("config needs 3 ConvUtr kernel sizes")
        if any(k < 1 or k % 2 == 0 for k in self.convutr_kernels):
            raise ConfigError("conv kernels must be positive and odd")
        if self.input_size < 32 or self.input_size % 32:
            raise ConfigError(f"input_size {self.input_size} is not a positive multiple of 32")
        if self.skip_mode not in SKIPS:
            raise ConfigError(f"unknown skip mode '{self.skip_mode}'")
        if self.downsample_mode not in DOWNSAMPLE_MODES:
            raise ConfigError(f"unknown downsample mode '{self.downsample_mode}'")
        if self.num_classes < 1:
            raise ConfigError("num_classes must be >= 1")
        if self.dtype not in T.DTYPES:
            raise ConfigError(f"unknown dtype '{self.dtype}'")

    @classmethod
    def for_variant(cls, variant, **overrides):
        return cls(variant=variant, **overrides)

    @property
    def channels(self):
        return VARIANTS[self.variant]["channels"]

    @property
    def depths(self):
        return VARIANTS[self.variant]["depths"]

    @property
    def skips(self):
        return SKIPS[self.skip_mode]

    @property
    def decoder(self):
        """(in, skip, out) channels of each decoder block, bottleneck first.

        The widths halve from the bottleneck down to C3, then hold; the skip
        channels are those of the stage that feeds the block, 0 if none.
        """
        c = self.channels
        out = (c[3], c[2], c[2], c[2], c[2])
        skip = [0] * 5
        for row in self.skips:
            skip[row.level] = c[row.stage - 1]
        return tuple(zip((c[4],) + out[:-1], skip, out))

    @property
    def token_count(self):
        return (self.input_size // 32) ** 2


class MobileUViT(Module):
    def __init__(self, cfg: ModelConfig):
        super().__init__()
        self.cfg = cfg
        c = cfg.channels
        k = cfg.convutr_kernels
        dm = cfg.downsample_mode

        self.enc1 = ConvUtrStage(3, c[0], cfg.depths[0], k[0], stem=True, downsample=dm)
        self.enc2 = ConvUtrStage(c[0], c[1], cfg.depths[1], k[1], downsample=dm)
        self.enc3 = ConvUtrStage(c[1], c[2], cfg.depths[2], k[2], downsample=dm)

        self.down4 = Downsample(c[2], dm)
        self.proj4 = Conv2d(c[2], c[3], 1, bias=False)
        self.proj4_bn = BatchNorm2d(c[3])
        heads4 = c[3] // HEAD_DIM
        self.enc4 = ModuleList([LKLGLBlock(c[3], heads4, LKLGL_KERNEL, POOL_RATIO, FFN_RATIO,
                                           cfg.literal_eq2) for _ in range(cfg.depths[3])])

        self.down5 = Downsample(c[3], dm)
        self.proj5 = Conv2d(c[3], c[4], 1, bias=False)
        self.proj5_bn = BatchNorm2d(c[4])
        self.pos_embed = nn._param((1, cfg.token_count, c[4]), "zero")
        heads5 = c[4] // HEAD_DIM
        self.enc5 = ModuleList([TransformerBlock(c[4], heads5, FFN_RATIO)
                                for _ in range(cfg.depths[4])])

        for row in cfg.skips:
            ch = c[row.stage - 1]
            setattr(self, row.name, SkipAdapter(ch, ch, pool=row.pooled))

        self.dec = ModuleList([DecoderBlock(cin, cskip, cout) for cin, cskip, cout in cfg.decoder])
        self.head = Conv2d(cfg.decoder[-1][2], cfg.num_classes, 1, bias=True)
        self.astype(cfg.dtype)

    def stages(self, images):
        """Run images [N,3,S,S] one stage at a time, yielding (name, output)
        in execution order; the last output is the logits."""
        if images.ndim != 4 or images.shape[1] != 3:
            raise UsageError(f"expected [N,3,S,S] images, got {images.shape}")
        s = self.cfg.input_size
        if images.shape[2] != s or images.shape[3] != s:
            raise UsageError(f"model built for {s}x{s} inputs, got "
                             f"{images.shape[2]}x{images.shape[3]}")
        f1 = self.enc1(images)
        yield "enc1", f1
        f2 = self.enc2(f1)
        yield "enc2", f2
        f3 = self.enc3(f2)
        yield "enc3", f3
        f4 = T.relu(self.proj4_bn(self.proj4(self.down4(f3))))
        for blk in self.enc4:
            f4 = blk(f4)
        yield "enc4", f4
        t = T.relu(self.proj5_bn(self.proj5(self.down5(f4))))
        h, w = t.shape[2:]
        t = T.add(to_tokens(t), self.pos_embed)
        for blk in self.enc5:
            t = blk(t)
        x = to_map(t, h, w)
        yield "enc5", x
        feats = (f1, f2, f3, f4)
        skips = [None] * 5
        for row in self.cfg.skips:
            skips[row.level] = getattr(self, row.name)(feats[row.stage - 1])
            yield row.name, skips[row.level]
        for i, dec in enumerate(self.dec):
            x = dec(x, skips[i])
            yield f"dec{i + 1}", x
        yield "head", self.head(x)

    def forward(self, images):
        """Images [N,3,S,S] -> logits [N,num_classes,S,S], the last output of
        stages. Eval mode runs under no_grad, so nothing is recorded."""
        with nullcontext() if self.training else T.no_grad():
            for _, out in self.stages(images):
                pass
        return out


def build_model(cfg: ModelConfig, seed=0):
    """Construct and deterministically initialize a model from its config."""
    model = MobileUViT(cfg)
    nn.initialize(model, seed)
    return model


def first_nonfinite_layer(model, images):
    """Name of the first stage of model.stages whose output is non-finite, or
    None; no later stage runs.

    The walk runs in the model's current mode without recording a tape and
    raises no floating-point warnings, as non-finite values are what it looks
    for; other errors propagate. Train-mode BatchNorm running statistics are
    restored, so the call leaves the model as it found it.
    """
    saved = [(b, b.copy()) for _, b in model.named_buffers()]
    try:
        with T.no_grad(), np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for name, out in model.stages(images):
                if not np.all(np.isfinite(out.data)):
                    return name
    finally:
        for buf, value in saved:
            buf[...] = value
    return None
