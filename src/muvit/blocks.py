"""Composite blocks of the segmentation network.

ConvUtrBlock: large-kernel depthwise conv plus two pointwise convs, each
wrapped in GELU+BN, with residuals arranged like a transformer sublayer.

LKLGLBlock: local aggregation (9x9 depthwise-separable conv), token pooling,
global self-attention on the pooled grid, transposed-conv redistribution,
all interleaved with FFN residual sublayers.

TransformerBlock: standard pre-norm MHSA + FFN on token sequences.

SkipAdapter / DecoderBlock: the downsampled skip refinement and the cascaded
upsample-fuse-conv decoder stage.
"""

from . import tensor as T
from .nn import (BatchNorm2d, ChannelLayerNorm, Conv2d, ConvTranspose2d,
                 FeedForward, LayerNorm, Module, ModuleList,
                 MultiHeadSelfAttention)
from .tensor import ConfigError


def to_tokens(x):
    """NCHW feature map -> [N, H*W, C] token sequence."""
    n, c, h, w = x.shape
    return T.reshape(T.transpose(x, (0, 2, 3, 1)), (n, h * w, c))


def to_map(tokens, h, w):
    """[N, H*W, C] token sequence -> NCHW feature map."""
    n, t, c = tokens.shape
    if t != h * w:
        raise ConfigError(f"token count {t} does not tile {h}x{w}")
    return T.transpose(T.reshape(tokens, (n, h, w, c)), (0, 3, 1, 2))


class ConvUtrBlock(Module):
    """Shape-preserving conv block with transformer-style residual wiring:

        y   = BN(gelu(depthwise_KxK(x))) + x
        z   = BN(gelu(pointwise(y)))
        out = BN(gelu(pointwise(z))) + y
    """

    def __init__(self, d, kernel):
        super().__init__()
        if kernel % 2 == 0:
            raise ConfigError(f"ConvUtrBlock kernel must be odd, got {kernel}")
        self.d = d
        self.dw = Conv2d(d, d, kernel, pad=kernel // 2, groups=d, bias=False)
        self.bn1 = BatchNorm2d(d)
        self.pw1 = Conv2d(d, d, 1, bias=False)
        self.bn2 = BatchNorm2d(d)
        self.pw2 = Conv2d(d, d, 1, bias=False)
        self.bn3 = BatchNorm2d(d)

    def forward(self, x):
        if x.shape[1] != self.d:
            raise ConfigError(f"ConvUtrBlock expects {self.d} channels, got {x.shape[1]}")
        y = T.add(self.bn1(T.gelu(self.dw(x))), x)
        z = self.bn2(T.gelu(self.pw1(y)))
        return T.add(self.bn3(T.gelu(self.pw2(z))), y)


# 2x2 max-pool, or the learnable stride-2 2x2 depthwise conv.
DOWNSAMPLE_MODES = ("maxpool", "conv")


class Downsample(Module):
    """2x spatial reduction: 2x2 max-pool, or a stride-2 2x2 depthwise conv.

    The conv form is the learnable-pool ablation; k == stride keeps the
    output size integral on any even map.
    """

    def __init__(self, c, mode):
        super().__init__()
        if mode not in DOWNSAMPLE_MODES:
            raise ConfigError(f"unknown downsample mode '{mode}'")
        self.mode = mode
        if mode == "conv":
            self.conv = Conv2d(c, c, 2, stride=2, pad=0, groups=c, bias=False)

    def forward(self, x):
        if self.mode == "conv":
            return self.conv(x)
        return T.pool2d(x, "max", 2)


class ConvUtrStage(Module):
    """Channel projection, a stack of ConvUtr blocks, then 2x downsampling.

    The first stage projects with a 3x3 conv (the stem); later stages use a
    pointwise projection.
    """

    def __init__(self, cin, cout, depth, kernel, stem=False, downsample="maxpool"):
        super().__init__()
        k = 3 if stem else 1
        self.proj = Conv2d(cin, cout, k, pad=k // 2, bias=False)
        self.proj_bn = BatchNorm2d(cout)
        self.blocks = ModuleList([ConvUtrBlock(cout, kernel) for _ in range(depth)])
        self.down = Downsample(cout, downsample)

    def forward(self, x):
        if x.shape[2] % 2 or x.shape[3] % 2:
            raise ConfigError(f"stage needs even spatial dims, got {x.shape[2]}x{x.shape[3]}")
        x = T.relu(self.proj_bn(self.proj(x)))
        for blk in self.blocks:
            x = blk(x)
        return self.down(x)


class LKLGLBlock(Module):
    """Local-global-local mixing at constant shape.

        x   = dsconv_9x9(norm(x_in)) + x_in
        y   = ffn(norm(x)) + x
        z   = transconv(attn(pool(norm(y)))) + y
        out = ffn(norm(z)) + z

    Attention runs on the pooled (H/p)*(W/p) token grid so its quadratic cost
    shrinks by p^4; the p x p, stride-p transconv restores the H x W grid.
    `literal_order=True` swaps to attn-then-pool for comparison.
    """

    def __init__(self, d, heads, kernel=9, pool_ratio=2, ffn_ratio=6, literal_order=False):
        super().__init__()
        self.d, self.p = d, pool_ratio
        self.literal_order = literal_order
        self.norm1 = ChannelLayerNorm(d)
        self.dw = Conv2d(d, d, kernel, pad=kernel // 2, groups=d, bias=False)
        self.pw = Conv2d(d, d, 1, bias=True)
        self.norm2 = LayerNorm(d)
        self.ffn1 = FeedForward(d, ffn_ratio)
        self.norm3 = ChannelLayerNorm(d)
        self.attn = MultiHeadSelfAttention(d, heads)
        self.transconv = ConvTranspose2d(d, d, pool_ratio)
        self.norm4 = LayerNorm(d)
        self.ffn2 = FeedForward(d, ffn_ratio)

    def _token_ffn(self, norm, ffn, x):
        n, c, h, w = x.shape
        t = to_tokens(x)
        t = ffn(norm(t))
        return to_map(t, h, w)

    def forward(self, x_in):
        n, c, h, w = x_in.shape
        if c != self.d:
            raise ConfigError(f"LKLGL expects {self.d} channels, got {c}")
        if h % self.p or w % self.p:
            raise ConfigError(f"LKLGL needs {h}x{w} divisible by pool ratio {self.p}")
        x = T.add(self.pw(self.dw(self.norm1(x_in))), x_in)
        y = T.add(self._token_ffn(self.norm2, self.ffn1, x), x)
        t = self.norm3(y)
        if self.literal_order:
            t = to_map(self.attn(to_tokens(t)), h, w)
            t = T.pool2d(t, "avg", self.p)
        else:
            t = T.pool2d(t, "avg", self.p)
            t = to_map(self.attn(to_tokens(t)), h // self.p, w // self.p)
        z = T.add(self.transconv(t), y)
        return T.add(self._token_ffn(self.norm4, self.ffn2, z), z)


class TransformerBlock(Module):
    """Pre-norm transformer encoder block on [N, T, d] tokens."""

    def __init__(self, d, heads, ffn_ratio=6):
        super().__init__()
        self.norm1 = LayerNorm(d)
        self.attn = MultiHeadSelfAttention(d, heads)
        self.norm2 = LayerNorm(d)
        self.ffn = FeedForward(d, ffn_ratio)

    def forward(self, x):
        t = T.add(self.attn(self.norm1(x)), x)
        return T.add(self.ffn(self.norm2(t)), t)


class SkipAdapter(Module):
    """Refines an encoder feature before decoder fusion.

    Downsampled mode (default) halves the resolution with a 2x2 max-pool so
    the feature fuses one decoder level below its origin; horizontal mode
    keeps the resolution. Both apply two conv(3x3)-ReLU-BN refinements.
    """

    def __init__(self, cin, cout, pool=True):
        super().__init__()
        self.pool = pool
        self.conv1 = Conv2d(cin, cout, 3, pad=1, bias=False)
        self.bn1 = BatchNorm2d(cout)
        self.conv2 = Conv2d(cout, cout, 3, pad=1, bias=False)
        self.bn2 = BatchNorm2d(cout)

    def forward(self, x):
        if self.pool:
            if x.shape[2] % 2 or x.shape[3] % 2:
                raise ConfigError("SkipAdapter pooling needs even spatial dims")
            x = T.pool2d(x, "max", 2)
        x = self.bn1(T.relu(self.conv1(x)))
        return self.bn2(T.relu(self.conv2(x)))


class DecoderBlock(Module):
    """Bilinear 2x upsample, optional skip concat, then conv-BN-ReLU."""

    def __init__(self, cin, cskip, cout):
        super().__init__()
        self.cskip = cskip
        self.conv = Conv2d(cin + cskip, cout, 3, pad=1, bias=False)
        self.bn = BatchNorm2d(cout)

    def forward(self, x, skip=None):
        x = T.bilinear_upsample(x, 2)
        if (skip is None) != (self.cskip == 0):
            raise ConfigError("DecoderBlock skip presence does not match its wiring")
        if skip is not None:
            if skip.shape[2:] != x.shape[2:]:
                raise ConfigError(
                    f"skip spatial dims {skip.shape[2:]} != upsampled {x.shape[2:]}")
            x = T.concat([x, skip], axis=1)
        # rebound at each step, so each full-size map is freed once the next exists
        x = self.conv(x)
        x = self.bn(x)
        return T.relu(x)
