"""Composite block behavior: zero-init identities, shape contracts, wiring."""

import numpy as np
import pytest

from muvit import tensor as T
from muvit.blocks import (ConvUtrBlock, ConvUtrStage, DecoderBlock, Downsample,
                          LKLGLBlock, SkipAdapter, TransformerBlock, to_map,
                          to_tokens)
from muvit.nn import initialize
from muvit.tensor import ConfigError, Tensor


def zero_weights(module):
    """Weight matrices to zero, norm gains to one, biases/shifts to zero."""
    initialize(module, 0)
    for _, p in module.named_parameters():
        if p.init_kind in ("conv", "conv_transpose", "linear"):
            p.data[...] = 0.0
    return module


def f64(rng, shape):
    return Tensor(rng.standard_normal(shape), dtype="f64")


class TestZeroInitIdentity:
    def test_conv_utr_block(self, rng):
        blk = zero_weights(ConvUtrBlock(6, 7).astype("f64"))
        x = f64(rng, (2, 6, 8, 8))
        out = blk(x)
        assert np.max(np.abs(out.data - x.data)) <= 1e-12

    def test_lklgl_block(self, rng):
        blk = zero_weights(LKLGLBlock(8, 2, kernel=9, pool_ratio=2, ffn_ratio=4).astype("f64"))
        x = f64(rng, (1, 8, 6, 6))
        out = blk(x)
        assert np.max(np.abs(out.data - x.data)) <= 1e-12

    def test_lklgl_block_literal_order(self, rng):
        blk = zero_weights(LKLGLBlock(8, 2, kernel=3, pool_ratio=2, ffn_ratio=4,
                                      literal_order=True).astype("f64"))
        x = f64(rng, (1, 8, 4, 4))
        out = blk(x)
        assert np.max(np.abs(out.data - x.data)) <= 1e-12

    def test_vit_block(self, rng):
        blk = zero_weights(TransformerBlock(8, 2, ffn_ratio=4).astype("f64"))
        x = f64(rng, (2, 5, 8))
        out = blk(x)
        assert np.max(np.abs(out.data - x.data)) <= 1e-12


class TestShapeContracts:
    @pytest.mark.parametrize("shape", [(1, 4, 6, 6), (2, 4, 10, 10), (3, 4, 4, 12)])
    def test_conv_utr_preserves_shape(self, rng, shape):
        blk = ConvUtrBlock(4, 3)
        initialize(blk, 1)
        assert blk(Tensor(rng.standard_normal(shape).astype(np.float32))).shape == shape

    @pytest.mark.parametrize("shape", [(1, 8, 4, 4), (2, 8, 6, 6), (1, 8, 8, 4)])
    def test_lklgl_preserves_shape(self, rng, shape):
        blk = LKLGLBlock(8, 2, ffn_ratio=2)
        initialize(blk, 1)
        assert blk(Tensor(rng.standard_normal(shape).astype(np.float32))).shape == shape

    def test_lklgl_base_stage4_shape(self, rng):
        blk = LKLGLBlock(64, 2, ffn_ratio=2)
        initialize(blk, 1)
        x = Tensor(rng.standard_normal((1, 64, 16, 16)).astype(np.float32))
        assert blk(x).shape == (1, 64, 16, 16)

    def test_vit_preserves_shape(self, rng):
        blk = TransformerBlock(128, 4, ffn_ratio=2)
        initialize(blk, 1)
        x = Tensor(rng.standard_normal((1, 64, 128)).astype(np.float32))
        assert blk(x).shape == (1, 64, 128)

    def test_lklgl_rejects_indivisible(self, rng):
        blk = LKLGLBlock(8, 2, pool_ratio=2)
        initialize(blk, 1)
        with pytest.raises(ConfigError):
            blk(Tensor(rng.standard_normal((1, 8, 5, 5)).astype(np.float32)))

    def test_channel_mismatch(self, rng):
        blk = ConvUtrBlock(4, 3)
        initialize(blk, 1)
        with pytest.raises(ConfigError):
            blk(Tensor(rng.standard_normal((1, 5, 6, 6)).astype(np.float32)))

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            ConvUtrBlock(4, 4)


class TestLKLGLAttentionTokens:
    def test_pooled_token_count(self, rng):
        # attention must run on the (H/p)*(W/p) grid: measure QK+AV MACs
        d, h, w, p = 8, 16, 16, 2
        blk = LKLGLBlock(d, 2, pool_ratio=p, ffn_ratio=2)
        initialize(blk, 1)
        x = Tensor(rng.standard_normal((1, d, h, w)).astype(np.float32))
        with T.count_macs() as c:
            blk(x)
        tokens = (h // p) * (w // p)
        assert tokens == 64  # not the 256 unpooled positions
        assert c.by_op["matmul"] == 2 * tokens * tokens * d

    def test_literal_order_runs_attention_unpooled(self, rng):
        d, h, w, p = 8, 8, 8, 2
        blk = LKLGLBlock(d, 2, pool_ratio=p, ffn_ratio=2, literal_order=True)
        initialize(blk, 1)
        x = Tensor(rng.standard_normal((1, d, h, w)).astype(np.float32))
        with T.count_macs() as c:
            blk(x)
        assert c.by_op["matmul"] == 2 * (h * w) ** 2 * d


class TestConvUtrStage:
    def test_base_stage1_shape(self, rng):
        stage = ConvUtrStage(3, 16, 1, 3, stem=True)
        initialize(stage, 1)
        x = Tensor(rng.standard_normal((1, 3, 256, 256)).astype(np.float32))
        assert stage(x).shape == (1, 16, 128, 128)

    def test_base_stage3_shape(self, rng):
        stage = ConvUtrStage(16, 32, 3, 7)
        initialize(stage, 1)
        x = Tensor(rng.standard_normal((1, 16, 64, 64)).astype(np.float32))
        assert stage(x).shape == (1, 32, 32, 32)

    def test_zeroed_blocks_reduce_to_projection_and_pool(self, rng):
        stage = ConvUtrStage(4, 8, 2, 3).astype("f64")
        zero_weights(stage)
        # reinstate the projection so the stage is projection + pool only
        initialize(stage.proj, 3)
        x = f64(rng, (1, 4, 8, 8))
        got = stage(x)
        ref = T.pool2d(T.relu(stage.proj_bn(stage.proj(x))), "max", 2)
        np.testing.assert_allclose(got.data, ref.data, atol=1e-12)

    def test_odd_spatial_rejected(self, rng):
        stage = ConvUtrStage(3, 8, 1, 3, stem=True)
        initialize(stage, 1)
        with pytest.raises(ConfigError):
            stage(Tensor(rng.standard_normal((1, 3, 7, 7)).astype(np.float32)))

    def test_conv_downsample_mode(self, rng):
        stage = ConvUtrStage(3, 8, 1, 3, stem=True, downsample="conv")
        initialize(stage, 1)
        x = Tensor(rng.standard_normal((1, 3, 16, 16)).astype(np.float32))
        assert stage(x).shape == (1, 8, 8, 8)
        assert any(name == "down.conv.weight" for name, _ in stage.named_parameters())


class TestSkipAdapter:
    def test_downsampled_shape(self, rng):
        ad = SkipAdapter(16, 16, pool=True)
        initialize(ad, 1)
        x = Tensor(rng.standard_normal((1, 16, 128, 128)).astype(np.float32))
        assert ad(x).shape == (1, 16, 64, 64)

    def test_zero_convs_zero_output(self, rng):
        ad = zero_weights(SkipAdapter(4, 6, pool=True).astype("f64"))
        x = f64(rng, (1, 4, 8, 8))
        assert np.all(ad(x).data == 0.0)

    def test_horizontal_keeps_resolution(self, rng):
        ad = SkipAdapter(8, 8, pool=False)
        initialize(ad, 1)
        x = Tensor(rng.standard_normal((1, 8, 128, 128)).astype(np.float32))
        assert ad(x).shape == (1, 8, 128, 128)


class TestDecoderBlock:
    def test_no_skip_shape(self, rng):
        dec = DecoderBlock(128, 0, 64)
        initialize(dec, 1)
        x = Tensor(rng.standard_normal((1, 128, 8, 8)).astype(np.float32))
        assert dec(x).shape == (1, 64, 16, 16)

    def test_concat_channel_arithmetic(self, rng):
        dec = DecoderBlock(128, 32, 64)
        assert dec.conv.weight.shape == (64, 160, 3, 3)
        initialize(dec, 1)
        x = Tensor(rng.standard_normal((1, 128, 8, 8)).astype(np.float32))
        skip = Tensor(rng.standard_normal((1, 32, 16, 16)).astype(np.float32))
        assert dec(x, skip).shape == (1, 64, 16, 16)

    def test_five_blocks_restore_resolution(self, rng):
        chans = [128, 64, 32, 32, 32, 32]
        decs = []
        for i in range(5):
            d = DecoderBlock(chans[i], 0, chans[i + 1])
            initialize(d, i)
            decs.append(d)
        x = Tensor(rng.standard_normal((1, 128, 8, 8)).astype(np.float32))
        for d in decs:
            x = d(x)
        assert x.shape == (1, 32, 256, 256)

    def test_skip_spatial_mismatch_rejected(self, rng):
        dec = DecoderBlock(16, 8, 16)
        initialize(dec, 1)
        x = Tensor(rng.standard_normal((1, 16, 8, 8)).astype(np.float32))
        bad = Tensor(rng.standard_normal((1, 8, 8, 8)).astype(np.float32))
        with pytest.raises(ConfigError):
            dec(x, bad)

    def test_unexpected_skip_rejected(self, rng):
        dec = DecoderBlock(16, 0, 16)
        initialize(dec, 1)
        x = Tensor(rng.standard_normal((1, 16, 8, 8)).astype(np.float32))
        skip = Tensor(rng.standard_normal((1, 8, 16, 16)).astype(np.float32))
        with pytest.raises(ConfigError):
            dec(x, skip)


class TestTokenHelpers:
    def test_roundtrip(self, rng):
        x = Tensor(rng.standard_normal((2, 5, 4, 6)).astype(np.float32))
        back = to_map(to_tokens(x), 4, 6)
        np.testing.assert_array_equal(back.data, x.data)

    def test_bad_tiling_rejected(self, rng):
        tok = Tensor(rng.standard_normal((1, 12, 5)).astype(np.float32))
        with pytest.raises(ConfigError):
            to_map(tok, 3, 5)


class TestDownsample:
    def test_maxpool_mode_has_no_params(self):
        assert list(Downsample(8, "maxpool").named_parameters()) == []

    def test_conv_mode_param_count(self):
        ds = Downsample(8, "conv")
        assert sum(p.data.size for _, p in ds.named_parameters()) == 8 * 4
