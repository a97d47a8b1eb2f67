"""Exact parameter and multiply-accumulate accounting.

Two independent routes exist for each quantity: parameters are counted both
in closed form from the config and by enumerating the model's actual
tensors; MACs are counted both by an analytic shape walk and by the shadow
counter inside the tensor ops. The report lists MACs and FLOPs (= 2*MACs,
the convention used when quoting GFLOPs).

Closed forms: a conventional conv costs h*w*d_i*d_j*k^2 MACs; the ConvUtr
core (large-kernel depthwise + two pointwise convs) costs
h*w*d_i*(k^2 + 2*d_j). Attention on T tokens of width d costs T^2*d (QK)
+ T^2*d (AV) + 4*T*d^2 (projections); pooling the token grid by p shrinks
the quadratic terms by exactly p^4.

Norms, activations and pooling are carried as linear terms at one MAC per
output element, so band comparisons include them but they never dominate.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .model import MobileUViT, ModelConfig
from .tensor import ConfigError, VerificationError


def conv_macs(h, w, d_i, d_j, k):
    """MACs of a dense k x k conv at output resolution h x w."""
    return h * w * d_j * d_i * k * k


def convutr_core_macs(h, w, d, k):
    """MACs of the ConvUtr conv core: depthwise k x k plus two pointwise."""
    return h * w * d * (k * k + 2 * d)


def convutr_to_conv_ratio(d_j, k):
    """Exact cost ratio of the ConvUtr core to a conventional conv."""
    return Fraction(k * k + 2 * d_j, d_j * k * k)


def attention_quadratic_macs(tokens, d):
    """QK plus AV MACs: the T^2-scaling part of attention."""
    return 2 * tokens * tokens * d


def attention_projection_macs(tokens, d):
    return 4 * tokens * d * d


def attention_cost_ratio(n_tokens, p):
    """Quadratic-cost ratio of pooled vs unpooled attention: exactly 1/p^4.

    Cross-checked against the counted quadratic MACs for both token counts.
    """
    if p < 1 or n_tokens % (p * p):
        raise ConfigError(f"{n_tokens} tokens not divisible by p^2 = {p * p}")
    pooled = attention_quadratic_macs(n_tokens // (p * p), 1)
    full = attention_quadratic_macs(n_tokens, 1)
    ratio = Fraction(pooled, full)
    if ratio != Fraction(1, p ** 4):
        raise VerificationError(f"attention ratio {ratio} != 1/p^4 for p={p}")
    return float(ratio)


@dataclass
class Row:
    name: str
    params: int = 0
    macs: int = 0
    kind: str = ""          # conv | transconv | linear | matmul | term | param
    trainable: bool = True


@dataclass
class CostReport:
    rows: list = field(default_factory=list)
    input_size: int = 0
    total_params: int = 0   # trainable parameters
    total_state: int = 0    # parameters plus buffers (checkpointed tensors)
    total_macs: int = 0

    @property
    def total_flops(self):
        return 2 * self.total_macs

    def countable_macs(self):
        """MACs of the ops the shadow counter measures (conv/linear/matmul)."""
        return sum(r.macs for r in self.rows if r.kind in ("conv", "transconv", "linear", "matmul"))

    def to_records(self):
        return [{"name": r.name, "params": r.params, "macs": r.macs,
                 "kind": r.kind, "trainable": r.trainable} for r in self.rows]

    def to_text(self, title="cost report"):
        lines = [title, "-" * len(title)]
        width = max((len(r.name) for r in self.rows), default=10) + 2
        lines.append(f"{'layer'.ljust(width)}{'params':>12}{'macs':>16}")
        for r in self.rows:
            flag = "" if r.trainable else "  (buffer)"
            lines.append(f"{r.name.ljust(width)}{r.params:>12}{r.macs:>16}{flag}")
        lines.append("")
        lines.append(f"total params (trainable): {self.total_params}")
        if self.total_state:
            lines.append(f"total state tensors size: {self.total_state}")
        if self.total_macs:
            lines.append(f"total MACs:   {self.total_macs}")
            lines.append(f"total FLOPs:  {self.total_flops}  (2 x MACs)")
            lines.append(f"GMACs: {self.total_macs / 1e9:.4f}   GFLOPs: {self.total_flops / 1e9:.4f}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# analytic parameter count (closed form from the config)


def _convutr_block_params(d, k):
    # depthwise + 2 pointwise (no conv biases) + 3 BN affine pairs
    return d * k * k + 2 * d * d + 6 * d


def _lklgl_block_params(d, r, k, p):
    norms = 4 * 2 * d
    dsconv = d * k * k + d * d + d            # depthwise, pointwise + bias
    ffn = 2 * (d * (r * d) + r * d + (r * d) * d + d)
    attn = 4 * (d * d + d)
    transconv = d * d * p * p + d
    return norms + dsconv + ffn + attn + transconv


def _vit_block_params(d, r):
    norms = 2 * 2 * d
    attn = 4 * (d * d + d)
    ffn = d * (r * d) + r * d + (r * d) * d + d
    return norms + attn + ffn


def analytic_param_rows(cfg: ModelConfig):
    """Closed-form per-layer trainable parameter counts from the config."""
    c = cfg.channels
    k = cfg.convutr_kernels
    r = cfg.ffn_ratio
    rows = []
    conv_down = cfg.downsample_mode == "conv"

    stage_in = (3, c[0], c[1])
    for i in range(3):
        cin, cout = stage_in[i], c[i]
        pk = 3 if i == 0 else 1
        rows.append(Row(f"enc{i + 1}.proj(+bn)", cout * cin * pk * pk + 2 * cout))
        for b in range(cfg.depths[i]):
            rows.append(Row(f"enc{i + 1}.block{b}", _convutr_block_params(cout, k[i])))
        if conv_down:
            rows.append(Row(f"enc{i + 1}.down", cout * 4))

    if conv_down:
        rows.append(Row("down4", c[2] * 4))
    rows.append(Row("proj4(+bn)", c[3] * c[2] + 2 * c[3]))
    for b in range(cfg.depths[3]):
        rows.append(Row(f"enc4.block{b}",
                        _lklgl_block_params(c[3], r, cfg.lklgl_kernel, cfg.pool_ratio)))

    if conv_down:
        rows.append(Row("down5", c[3] * 4))
    rows.append(Row("proj5(+bn)", c[4] * c[3] + 2 * c[4]))
    rows.append(Row("pos_embed", cfg.token_count * c[4]))
    for b in range(cfg.depths[4]):
        rows.append(Row(f"enc5.block{b}", _vit_block_params(c[4], r)))

    for row in cfg.skips:
        ch = c[row.stage - 1]
        rows.append(Row(row.name, 2 * (ch * ch * 9 + 2 * ch)))

    for i, (cin, cskip, cout) in enumerate(cfg.decoder, start=1):
        rows.append(Row(f"dec{i}(+bn)", (cin + cskip) * cout * 9 + 2 * cout))
    rows.append(Row("head", cfg.decoder[-1][2] * cfg.num_classes + cfg.num_classes))
    return rows


def analytic_param_count(cfg: ModelConfig):
    return sum(r.params for r in analytic_param_rows(cfg))


def count_params(model: MobileUViT):
    """Per-tensor parameter report; verifies analytic == enumerated exactly."""
    rows = []
    total_trainable = 0
    total_state = 0
    for name, p in model.named_parameters():
        n = int(p.data.size)
        rows.append(Row(name, n, kind="param", trainable=True))
        total_trainable += n
        total_state += n
    for name, b in model.named_buffers():
        n = int(b.size)
        rows.append(Row(name, n, kind="param", trainable=False))
        total_state += n
    analytic = analytic_param_count(model.cfg)
    if analytic != total_trainable:
        raise VerificationError(
            f"parameter accounting mismatch: analytic {analytic} != enumerated {total_trainable}")
    return CostReport(rows=rows, input_size=model.cfg.input_size,
                      total_params=total_trainable, total_state=total_state)


# ---------------------------------------------------------------------------
# analytic MAC walk (mirrors the forward pass shape-by-shape)


def _norm_rows(rows, name, hw, d):
    rows.append(Row(f"{name}", macs=hw * d, kind="term"))


def _attention_rows(rows, name, tokens, d, heads):
    rows.append(Row(f"{name}.proj", macs=attention_projection_macs(tokens, d), kind="linear"))
    rows.append(Row(f"{name}.qk", macs=tokens * tokens * d, kind="matmul"))
    rows.append(Row(f"{name}.softmax", macs=heads * tokens * tokens, kind="term"))
    rows.append(Row(f"{name}.av", macs=tokens * tokens * d, kind="matmul"))


def _ffn_rows(rows, name, tokens, d, r):
    rows.append(Row(f"{name}.fc1", macs=tokens * d * r * d, kind="linear"))
    rows.append(Row(f"{name}.gelu", macs=tokens * r * d, kind="term"))
    rows.append(Row(f"{name}.fc2", macs=tokens * r * d * d, kind="linear"))


def _convutr_block_rows(rows, name, h, w, d, k):
    rows.append(Row(f"{name}.dw", macs=h * w * d * k * k, kind="conv"))
    _norm_rows(rows, f"{name}.gelu_bn1", h * w * 2, d)
    rows.append(Row(f"{name}.pw1", macs=h * w * d * d, kind="conv"))
    _norm_rows(rows, f"{name}.gelu_bn2", h * w * 2, d)
    rows.append(Row(f"{name}.pw2", macs=h * w * d * d, kind="conv"))
    _norm_rows(rows, f"{name}.gelu_bn3", h * w * 2, d)


def _down_rows(rows, name, h, w, d, mode):
    if mode == "conv":
        rows.append(Row(f"{name}", macs=(h // 2) * (w // 2) * d * 4, kind="conv"))
    else:
        rows.append(Row(f"{name}", macs=h * w * d, kind="term"))


def count_flops(cfg_or_model, input_size=None):
    """Analytic per-layer MAC counts for a single image (N=1)."""
    cfg = cfg_or_model.cfg if isinstance(cfg_or_model, MobileUViT) else cfg_or_model
    s = cfg.input_size if input_size is None else input_size
    if s % 32:
        raise ConfigError(f"input size {s} not divisible by 32")
    c = cfg.channels
    k = cfg.convutr_kernels
    r = cfg.ffn_ratio
    rows = []

    # encoder stages 1-3
    h = s
    stage_in = (3, c[0], c[1])
    for i in range(3):
        cin, cout, name = stage_in[i], c[i], f"enc{i + 1}"
        pk = 3 if i == 0 else 1
        rows.append(Row(f"{name}.proj", macs=conv_macs(h, h, cin, cout, pk), kind="conv"))
        _norm_rows(rows, f"{name}.proj_bn_relu", h * h * 2, cout)
        for b in range(cfg.depths[i]):
            _convutr_block_rows(rows, f"{name}.block{b}", h, h, cout, k[i])
        _down_rows(rows, f"{name}.down", h, h, cout, cfg.downsample_mode)
        h //= 2

    # stage 4: LKLGL at s/16
    _down_rows(rows, "down4", h, h, c[2], cfg.downsample_mode)
    h //= 2
    rows.append(Row("proj4", macs=conv_macs(h, h, c[2], c[3], 1), kind="conv"))
    _norm_rows(rows, "proj4_bn_relu", h * h * 2, c[3])
    d = c[3]
    heads = d // cfg.head_dim
    p = cfg.pool_ratio
    hw = h * h
    t_pool = hw // (p * p)
    # literal published ordering runs attention on the unpooled grid
    t_attn = hw if cfg.literal_eq2 else t_pool
    for b in range(cfg.depths[3]):
        name = f"enc4.block{b}"
        _norm_rows(rows, f"{name}.norm1", hw, d)
        rows.append(Row(f"{name}.dsconv.dw", macs=hw * d * cfg.lklgl_kernel ** 2, kind="conv"))
        rows.append(Row(f"{name}.dsconv.pw", macs=hw * d * d, kind="conv"))
        _norm_rows(rows, f"{name}.norm2", hw, d)
        _ffn_rows(rows, f"{name}.ffn1", hw, d, r)
        _norm_rows(rows, f"{name}.norm3", hw, d)
        rows.append(Row(f"{name}.pool", macs=hw * d, kind="term"))
        _attention_rows(rows, f"{name}.attn", t_attn, d, heads)
        rows.append(Row(f"{name}.transconv",
                        macs=t_pool * p * p * d * d, kind="transconv"))
        _norm_rows(rows, f"{name}.norm4", hw, d)
        _ffn_rows(rows, f"{name}.ffn2", hw, d, r)

    # stage 5: transformer bottleneck at s/32
    _down_rows(rows, "down5", h, h, c[3], cfg.downsample_mode)
    h //= 2
    rows.append(Row("proj5", macs=conv_macs(h, h, c[3], c[4], 1), kind="conv"))
    _norm_rows(rows, "proj5_bn_relu", h * h * 2, c[4])
    d = c[4]
    heads = d // cfg.head_dim
    tokens = h * h
    for b in range(cfg.depths[4]):
        name = f"enc5.block{b}"
        _norm_rows(rows, f"{name}.norm1", tokens, d)
        _attention_rows(rows, f"{name}.attn", tokens, d, heads)
        _norm_rows(rows, f"{name}.norm2", tokens, d)
        _ffn_rows(rows, f"{name}.ffn", tokens, d, r)

    # skip adapters, each convolving at the resolution of the decoder block it feeds
    for row in cfg.skips:
        nm, ch, hr = row.name, c[row.stage - 1], s // 2 ** (4 - row.level)
        if row.pooled:
            rows.append(Row(f"{nm}.pool", macs=(2 * hr) * (2 * hr) * ch, kind="term"))
        rows.append(Row(f"{nm}.conv1", macs=conv_macs(hr, hr, ch, ch, 3), kind="conv"))
        _norm_rows(rows, f"{nm}.relu_bn1", hr * hr * 2, ch)
        rows.append(Row(f"{nm}.conv2", macs=conv_macs(hr, hr, ch, ch, 3), kind="conv"))
        _norm_rows(rows, f"{nm}.relu_bn2", hr * hr * 2, ch)

    # decoder
    h = s // 32
    for i, (cin, cskip, cout) in enumerate(cfg.decoder, start=1):
        name = f"dec{i}"
        h *= 2
        rows.append(Row(f"{name}.upsample", macs=h * h * cin, kind="term"))
        rows.append(Row(f"{name}.conv", macs=conv_macs(h, h, cin + cskip, cout, 3), kind="conv"))
        _norm_rows(rows, f"{name}.bn_relu", h * h * 2, cout)
    rows.append(Row("head", macs=conv_macs(s, s, cfg.decoder[-1][2], cfg.num_classes, 1),
                    kind="conv"))

    total = sum(row.macs for row in rows)
    return CostReport(rows=rows, input_size=s, total_macs=total)
