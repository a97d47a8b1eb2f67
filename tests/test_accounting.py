"""Parameter/FLOP accounting: closed forms, dual-route agreement, bands."""

from fractions import Fraction

import numpy as np
import pytest

from muvit import tensor as T
from muvit.accounting import (attention_cost_ratio, attention_quadratic_macs,
                              conv_macs, convutr_core_macs, convutr_to_conv_ratio,
                              count_flops, count_params)
from muvit.model import ModelConfig, build_model
from muvit.nn import Conv2d, Linear
from muvit.tensor import ConfigError, Tensor


class TestParamCountExamples:
    def test_linear_16_32_with_bias(self):
        layer = Linear(16, 32)
        assert sum(p.data.size for _, p in layer.named_parameters()) == 544

    def test_conv_3x3_16_32_with_bias(self):
        layer = Conv2d(16, 32, 3, bias=True)
        assert sum(p.data.size for _, p in layer.named_parameters()) == 4640

    def test_depthwise_7x7_32ch_no_bias(self):
        layer = Conv2d(32, 32, 7, groups=32, bias=False)
        assert sum(p.data.size for _, p in layer.named_parameters()) == 1568


class TestMacFormulas:
    def test_conv_closed_form(self):
        assert conv_macs(64, 64, 3, 16, 3) == 1_769_472

    def test_convutr_core_closed_form(self):
        assert convutr_core_macs(64, 64, 16, 7) == 64 * 64 * 16 * (49 + 32) == 5_308_416

    def test_convutr_cheaper_than_conv_iff(self):
        # k^2 + 2*d_j < d_j*k^2 for all k >= 3, d_j >= 2
        for k in range(3, 12, 2):
            for dj in range(2, 130):
                assert k * k + 2 * dj < dj * k * k
                assert convutr_core_macs(8, 8, dj, k) < conv_macs(8, 8, dj, dj, k)

    def test_ratio_exact_on_grid(self):
        for k in (3, 5, 7, 9):
            for dj in (2, 8, 16, 64, 128):
                r = convutr_to_conv_ratio(dj, k)
                assert r == Fraction(k * k + 2 * dj, dj * k * k)
                assert r * conv_macs(32, 32, dj, dj, k) == convutr_core_macs(32, 32, dj, k)

    def test_kernel_ladder_flop_factor(self):
        # swapping K 3 -> 7 at fixed d scales the ConvUtr core by (9+2d)/(49+2d)
        d = 16
        got = Fraction(convutr_core_macs(64, 64, d, 3), convutr_core_macs(64, 64, d, 7))
        assert got == Fraction(9 + 2 * d, 49 + 2 * d)


class TestAttentionPooling:
    def test_ratio_4096_p2(self):
        assert attention_cost_ratio(4096, 2) == 1 / 16

    def test_ratio_p1_identity(self):
        assert attention_cost_ratio(4096, 1) == 1.0

    def test_ratio_256_p4(self):
        assert attention_cost_ratio(256, 4) == 1 / 256

    def test_indivisible_rejected(self):
        with pytest.raises(ConfigError):
            attention_cost_ratio(100, 4)

    def test_measured_qk_macs_match_ratio(self, rng):
        # run real attention at 256 and 16 tokens; quadratic MACs scale by 1/256
        d, heads, n_tok, p = 8, 2, 256, 4
        ws = [Tensor(rng.standard_normal((d, d)).astype(np.float32)) for _ in range(4)]

        def qk_av_macs(tokens):
            x = Tensor(rng.standard_normal((1, tokens, d)).astype(np.float32))
            with T.count_macs() as c:
                T.mhsa(x, heads, *ws)
            return c.by_op["matmul"]

        full = qk_av_macs(n_tok)
        pooled = qk_av_macs(n_tok // (p * p))
        assert full == attention_quadratic_macs(n_tok, d)
        assert pooled * 256 == full


class TestModelAccounting:
    def test_base_params_in_band(self):
        model = build_model(ModelConfig.for_variant("base"), seed=0)
        rep = count_params(model)
        assert 1_100_000 <= rep.total_params <= 1_700_000

    def test_large_params_in_band(self):
        model = build_model(ModelConfig.for_variant("large"), seed=0)
        rep = count_params(model)
        assert 6_300_000 <= rep.total_params <= 9_500_000

    def test_base_gflops_in_band(self):
        rep = count_flops(ModelConfig.for_variant("base"), 256)
        assert 1.9e9 <= rep.total_flops <= 3.1e9

    def test_param_report_covers_every_tensor_once(self):
        model = build_model(ModelConfig.for_variant("base", input_size=64), seed=0)
        rep = count_params(model)
        names = [r.name for r in rep.rows]
        assert len(names) == len(set(names))
        assert set(names) == set(model.named_state().keys())

    @pytest.mark.parametrize("size", [0, -32, 48])
    def test_count_flops_rejects_unbuildable_size(self, size):
        with pytest.raises(ConfigError, match="input_size"):
            count_flops(ModelConfig.for_variant("base"), size)

    def test_count_flops_size_overrides_config(self):
        cfg = ModelConfig.for_variant("base", input_size=256)
        assert count_flops(cfg, 64) == count_flops(ModelConfig.for_variant("base", input_size=64))

    def test_flops_additive_over_rows(self):
        rep = count_flops(ModelConfig.for_variant("base"), 256)
        assert rep.total_macs == sum(r.macs for r in rep.rows)

    def test_conv_macs_scale_with_area(self):
        r64 = count_flops(ModelConfig.for_variant("base", input_size=64), 64)
        r128 = count_flops(ModelConfig.for_variant("base", input_size=128), 128)
        for a, b in zip(r64.rows, r128.rows):
            assert a.name == b.name
            if a.kind == "conv":
                assert b.macs == 4 * a.macs, a.name

    def test_conv_rows_match_closed_form(self):
        s = 256
        rep = count_flops(ModelConfig.for_variant("base"), s)
        rows = {r.name: r.macs for r in rep.rows}
        assert rows["enc1.proj"] == conv_macs(s, s, 3, 16, 3)
        assert rows["enc1.block0.dw"] + rows["enc1.block0.pw1"] + rows["enc1.block0.pw2"] \
            == convutr_core_macs(s, s, 16, 3)
        assert rows["enc3.block0.dw"] + rows["enc3.block0.pw1"] + rows["enc3.block0.pw2"] \
            == convutr_core_macs(s // 4, s // 4, 32, 7)
        assert rows["dec5.conv"] == conv_macs(s, s, 32, 32, 3)
        assert rows["head"] == conv_macs(s, s, 32, 1, 1)

    @pytest.mark.parametrize("kw", [
        dict(), dict(skip_mode="none"), dict(skip_mode="horizontal"),
        dict(skip_mode="skip2"), dict(downsample_mode="conv"),
        dict(literal_eq2=True), dict(num_classes=3),
    ])
    def test_instrumented_forward_matches_analytic(self, rng, kw):
        cfg = ModelConfig.for_variant("base", input_size=64, **kw)
        model = build_model(cfg, seed=0)
        model.eval()
        x = Tensor(rng.random((1, 3, 64, 64)).astype(np.float32))
        with T.count_macs() as c:
            model(x)
        measured = sum(v for k, v in c.by_op.items()
                       if k in ("conv2d", "conv_transpose2d", "linear", "matmul"))
        assert measured == count_flops(cfg, 64).countable_macs()

    @pytest.mark.parametrize("kw", [
        dict(skip_mode="none"), dict(skip_mode="horizontal"), dict(skip_mode="skip1"),
        dict(downsample_mode="conv"), dict(convutr_kernels=(3, 3, 3)),
        dict(num_classes=4), dict(variant="large"),
    ])
    def test_analytic_equals_enumerated_across_configs(self, kw):
        variant = kw.pop("variant", "base")
        cfg = ModelConfig.for_variant(variant, input_size=64, **kw)
        model = build_model(cfg, seed=0)
        count_params(model)  # raises on analytic/enumerated mismatch

    def test_report_text_and_records(self):
        model = build_model(ModelConfig.for_variant("base", input_size=64), seed=0)
        rep = count_params(model)
        text = rep.to_text("params")
        assert "total params" in text
        recs = rep.to_records()
        assert all({"name", "params", "macs"} <= set(r) for r in recs)


# Totals of `muvit count --size 64`, written down independently of the skip
# table in model.py: the builder and both accounting routes read that table,
# so a wrong row (a wrong source stage, an extra adapter) would leave them
# agreeing with each other but not with these numbers.
ARCHITECTURE_TOTALS_64 = {
    ("base", "none"): (1_364_241, 70_629_664),
    ("base", "horizontal"): (1_410_577, 84_285_728),
    ("base", "skip1"): (1_373_521, 73_021_728),
    ("base", "skip2"): (1_382_801, 73_619_744),
    ("base", "skip3"): (1_419_793, 74_213_664),
    ("large", "none"): (6_440_737, 275_493_568),
    ("large", "horizontal"): (6_625_569, 329_937_600),
    ("large", "skip1"): (6_477_729, 284_996_288),
    ("large", "skip2"): (6_514_721, 287_371_968),
    ("large", "skip3"): (6_662_433, 289_739_456),
}


@pytest.mark.parametrize("variant,skip_mode", sorted(ARCHITECTURE_TOTALS_64))
def test_architecture_totals_at_64(variant, skip_mode):
    cfg = ModelConfig.for_variant(variant, input_size=64, skip_mode=skip_mode)
    params = count_params(build_model(cfg, seed=0)).total_params
    flops = count_flops(cfg)
    assert (params, flops.total_macs) == ARCHITECTURE_TOTALS_64[variant, skip_mode]
    assert flops.total_params == params
