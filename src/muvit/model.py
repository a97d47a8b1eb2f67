"""Full segmentation model: 5-stage hybrid encoder, cascaded decoder, head.

Stages 1-3 are ConvUtr stages, stage 4 stacks LKLGL blocks at 1/16
resolution, stage 5 is the transformer bottleneck on the 1/32 token grid.
The decoder upsamples back in five steps, fusing pooled (or horizontal)
skip features from the ConvUtr stages along the way.
"""

from dataclasses import dataclass

import numpy as np

from . import nn, tensor as T
from .blocks import (ConvUtrStage, DecoderBlock, Downsample, LKLGLBlock,
                     SkipAdapter, TransformerBlock, to_map, to_tokens)
from .nn import Conv2d, BatchNorm2d, Module, ModuleList
from .tensor import ConfigError, UsageError

VARIANTS = {
    "base": {"channels": (16, 16, 32, 64, 128), "depths": (1, 1, 3, 3, 3)},
    "large": {"channels": (32, 32, 64, 128, 256), "depths": (1, 1, 3, 3, 4)},
}

SKIP_MODES = ("none", "horizontal", "skip1", "skip2", "skip3")


@dataclass(frozen=True)
class ModelConfig:
    variant: str = "base"
    channels: tuple = (16, 16, 32, 64, 128)
    depths: tuple = (1, 1, 3, 3, 3)
    convutr_kernels: tuple = (3, 3, 7)
    lklgl_kernel: int = 9
    pool_ratio: int = 2
    transconv_kernel: int = 2
    ffn_ratio: int = 6
    head_dim: int = 32
    num_classes: int = 1
    input_size: int = 256
    skip_mode: str = "skip3"
    downsample_mode: str = "maxpool"
    literal_eq2: bool = False
    dtype: str = "f32"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant '{self.variant}'")
        if len(self.channels) != 5 or len(self.depths) != 5:
            raise ConfigError("config needs 5 channel counts and 5 depths")
        if len(self.convutr_kernels) != 3:
            raise ConfigError("config needs 3 ConvUtr kernel sizes")
        if any(k % 2 == 0 for k in self.convutr_kernels) or self.lklgl_kernel % 2 == 0:
            raise ConfigError("conv kernels must be odd")
        if self.input_size % 32:
            raise ConfigError(f"input_size {self.input_size} not divisible by 32")
        if self.skip_mode not in SKIP_MODES:
            raise ConfigError(f"unknown skip mode '{self.skip_mode}'")
        if self.downsample_mode not in ("maxpool", "conv"):
            raise ConfigError(f"unknown downsample mode '{self.downsample_mode}'")
        for d in (self.channels[3], self.channels[4]):
            if d % self.head_dim:
                raise ConfigError(f"channels {d} not divisible by head_dim {self.head_dim}")
        if (self.input_size // 16) % self.pool_ratio:
            raise ConfigError("stage-4 grid not divisible by the pool ratio")
        if self.num_classes < 1:
            raise ConfigError("num_classes must be >= 1")
        if self.dtype not in ("f32", "f64"):
            raise ConfigError(f"unknown dtype '{self.dtype}'")

    @classmethod
    def for_variant(cls, variant, **overrides):
        base = dict(VARIANTS[variant]) if variant in VARIANTS else {}
        if not base:
            raise ConfigError(f"unknown variant '{variant}'")
        base.update(overrides)
        return cls(variant=variant, **base)

    @property
    def decoder_channels(self):
        """Decoder widths: halve from the bottleneck down to C3, then hold."""
        c = self.channels
        return (c[3], c[2], c[2], c[2], c[2])

    @property
    def token_count(self):
        return (self.input_size // 32) ** 2


def _skip_channels(cfg):
    """Skip channel count for each decoder block, bottleneck first;
    0 means no fusion at that block."""
    c1, c2, c3 = cfg.channels[0], cfg.channels[1], cfg.channels[2]
    mode = cfg.skip_mode
    if mode == "none":
        return (0, 0, 0, 0, 0)
    if mode == "horizontal":
        # same-resolution fusion: stage3 @ dec4, stage2 @ dec3, stage1 @ dec2
        return (0, c3, c2, c1, 0)
    # downsampled: stage features pooled 2x fuse one level below their origin
    want = {"skip1": 1, "skip2": 2, "skip3": 3}[mode]
    return (c3 if want >= 3 else 0, c2 if want >= 2 else 0, c1 if want >= 1 else 0, 0, 0)


class MobileUViT(Module):
    def __init__(self, cfg: ModelConfig):
        super().__init__()
        self.cfg = cfg
        c = cfg.channels
        k = cfg.convutr_kernels
        dt = cfg.dtype
        dm = cfg.downsample_mode

        self.enc1 = ConvUtrStage(3, c[0], cfg.depths[0], k[0], stem=True, downsample=dm, dtype=dt)
        self.enc2 = ConvUtrStage(c[0], c[1], cfg.depths[1], k[1], downsample=dm, dtype=dt)
        self.enc3 = ConvUtrStage(c[1], c[2], cfg.depths[2], k[2], downsample=dm, dtype=dt)

        self.down4 = Downsample(c[2], dm, dtype=dt)
        self.proj4 = Conv2d(c[2], c[3], 1, bias=False, dtype=dt)
        self.proj4_bn = BatchNorm2d(c[3], dtype=dt)
        heads4 = c[3] // cfg.head_dim
        self.enc4 = ModuleList([
            LKLGLBlock(c[3], heads4, cfg.lklgl_kernel, cfg.pool_ratio,
                       cfg.transconv_kernel, cfg.ffn_ratio, cfg.literal_eq2, dtype=dt)
            for _ in range(cfg.depths[3])])

        self.down5 = Downsample(c[3], dm, dtype=dt)
        self.proj5 = Conv2d(c[3], c[4], 1, bias=False, dtype=dt)
        self.proj5_bn = BatchNorm2d(c[4], dtype=dt)
        self.pos_embed = nn._param((1, cfg.token_count, c[4]), dt, "zero")
        heads5 = c[4] // cfg.head_dim
        self.enc5 = ModuleList([
            TransformerBlock(c[4], heads5, cfg.ffn_ratio, dtype=dt)
            for _ in range(cfg.depths[4])])

        cskips = _skip_channels(cfg)
        if cfg.skip_mode in ("skip1", "skip2", "skip3"):
            if cskips[2]:
                self.adapt1 = SkipAdapter(c[0], c[0], pool=True, dtype=dt)
            if cskips[1]:
                self.adapt2 = SkipAdapter(c[1], c[1], pool=True, dtype=dt)
            if cskips[0]:
                self.adapt3 = SkipAdapter(c[2], c[2], pool=True, dtype=dt)
        elif cfg.skip_mode == "horizontal":
            self.adapt1 = SkipAdapter(c[0], c[0], pool=False, dtype=dt)
            self.adapt2 = SkipAdapter(c[1], c[1], pool=False, dtype=dt)
            self.adapt3 = SkipAdapter(c[2], c[2], pool=False, dtype=dt)

        dc = cfg.decoder_channels
        dec_in = (c[4],) + dc[:-1]
        decs = []
        for i in range(5):
            decs.append(DecoderBlock(dec_in[i], cskips[i], dc[i], dtype=dt))
        self.dec = ModuleList(decs)
        self.head = Conv2d(dc[-1], cfg.num_classes, 1, bias=True, dtype=dt)

    def encode(self, x, taps=None):
        """Run the encoder; returns (stage outputs f1..f5)."""
        f1 = self.enc1(x)
        f2 = self.enc2(f1)
        f3 = self.enc3(f2)
        t = T.relu(self.proj4_bn(self.proj4(self.down4(f3))))
        for blk in self.enc4:
            t = blk(t)
        f4 = t
        t = T.relu(self.proj5_bn(self.proj5(self.down5(f4))))
        n, c, h, w = t.shape
        tok = T.add(to_tokens(t), self.pos_embed)
        for blk in self.enc5:
            tok = blk(tok)
        f5 = to_map(tok, h, w)
        feats = (f1, f2, f3, f4, f5)
        if taps is not None:
            for i, f in enumerate(feats, start=1):
                taps[f"enc{i}"] = f
        return feats

    def _decode(self, feats, taps=None):
        f1, f2, f3, f4, f5 = feats
        mode = self.cfg.skip_mode
        skips = [None] * 5
        if mode in ("skip1", "skip2", "skip3"):
            want = {"skip1": 1, "skip2": 2, "skip3": 3}[mode]
            skips[2] = self.adapt1(f1)
            if want >= 2:
                skips[1] = self.adapt2(f2)
            if want >= 3:
                skips[0] = self.adapt3(f3)
        elif mode == "horizontal":
            skips[1] = self.adapt3(f3)
            skips[2] = self.adapt2(f2)
            skips[3] = self.adapt1(f1)
        x = f5
        for i, dec in enumerate(self.dec):
            x = dec(x, skips[i])
            if taps is not None:
                taps[f"dec{i + 1}"] = x
        logits = self.head(x)
        if taps is not None:
            taps["head"] = logits
        return logits

    def _forward(self, images, taps=None):
        if images.ndim != 4 or images.shape[1] != 3:
            raise UsageError(f"expected [N,3,S,S] images, got {images.shape}")
        s = self.cfg.input_size
        if images.shape[2] != s or images.shape[3] != s:
            raise UsageError(f"model built for {s}x{s} inputs, got "
                             f"{images.shape[2]}x{images.shape[3]}")
        return self._decode(self.encode(images, taps), taps)

    def forward(self, images, taps=None):
        """Images [N,3,S,S] -> logits [N,num_classes,S,S].

        Eval mode runs under no_grad, so nothing is recorded on any graph.
        """
        if not self.training:
            with T.no_grad():
                return self._forward(images, taps)
        return self._forward(images, taps)


def build_model(cfg: ModelConfig, seed=0):
    """Construct and deterministically initialize a model from its config."""
    model = MobileUViT(cfg)
    nn.initialize(model, seed)
    model.seed = seed
    return model


def set_mode(model, mode):
    if mode == "train":
        model.train()
    elif mode == "eval":
        model.eval()
    else:
        raise UsageError(f"unknown mode '{mode}'")


def first_nonfinite_layer(model, images):
    """Name of the first stage producing non-finite values, or None.

    Re-runs the forward in the model's current mode without recording a tape
    or checking finiteness per op; train-mode BatchNorm running statistics
    are restored afterwards, so the call leaves the model as it found it.
    Errors other than non-finite values propagate.
    """
    taps = {}
    saved = [(b, b.copy()) for _, b in model.named_buffers()]
    try:
        with T.no_grad(), T.finite_checks(False):
            model.forward(images, taps=taps)
    finally:
        for buf, value in saved:
            buf[...] = value
    for name, t in taps.items():
        if not np.all(np.isfinite(t.data)):
            return name
    return None
