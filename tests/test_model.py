"""Full-model assembly: config validation, shapes, determinism, modes."""

import numpy as np
import pytest

from muvit import tensor as T
from muvit.model import (ModelConfig, build_model, first_nonfinite_layer,
                         set_mode)
from muvit.tensor import ConfigError, Tensor, UsageError


def image_batch(rng, n, size, dtype=np.float32):
    return Tensor(rng.random((n, 3, size, size)).astype(dtype))


class TestModelConfig:
    def test_variant_table(self):
        base = ModelConfig.for_variant("base")
        assert base.channels == (16, 16, 32, 64, 128)
        assert base.depths == (1, 1, 3, 3, 3)
        assert base.convutr_kernels == (3, 3, 7)
        large = ModelConfig.for_variant("large")
        assert large.channels == (32, 32, 64, 128, 256)
        assert large.depths == (1, 1, 3, 3, 4)

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            ModelConfig.for_variant("tiny")

    def test_input_size_must_divide_32(self):
        with pytest.raises(ConfigError):
            ModelConfig.for_variant("base", input_size=100)

    def test_even_kernels_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig.for_variant("base", convutr_kernels=(3, 4, 7))

    def test_bad_skip_mode(self):
        with pytest.raises(ConfigError):
            ModelConfig.for_variant("base", skip_mode="skip4")

    def test_token_count(self):
        assert ModelConfig.for_variant("base", input_size=256).token_count == 64
        assert ModelConfig.for_variant("base", input_size=64).token_count == 4


class TestBuildDeterminism:
    def test_same_seed_bitwise_identical(self):
        cfg = ModelConfig.for_variant("base", input_size=64)
        m1 = build_model(cfg, seed=0)
        m2 = build_model(cfg, seed=0)
        for (n1, p1), (n2, p2) in zip(m1.named_parameters(), m2.named_parameters()):
            assert n1 == n2
            assert p1.data.tobytes() == p2.data.tobytes()

    def test_different_seed_differs(self):
        cfg = ModelConfig.for_variant("base", input_size=64)
        m1 = build_model(cfg, seed=0)
        m2 = build_model(cfg, seed=1)
        diff = any(p1.data.tobytes() != p2.data.tobytes()
                   for (_, p1), (_, p2) in zip(m1.named_parameters(), m2.named_parameters()))
        assert diff

    def test_encoder_params_independent_of_skip_mode(self):
        cfg_a = ModelConfig.for_variant("base", input_size=64, skip_mode="skip3")
        cfg_b = ModelConfig.for_variant("base", input_size=64, skip_mode="none")
        pa = dict(build_model(cfg_a, seed=0).named_parameters())
        pb = dict(build_model(cfg_b, seed=0).named_parameters())
        for name in pa:
            if name.startswith(("enc", "proj", "pos_embed", "stem")):
                assert pa[name].data.tobytes() == pb[name].data.tobytes(), name


class TestForward:
    def test_shapes_at_64(self, rng):
        cfg = ModelConfig.for_variant("base", input_size=64)
        model = build_model(cfg, seed=0)
        model.eval()
        taps = {}
        out = model.forward(image_batch(rng, 2, 64), taps=taps)
        assert out.shape == (2, 1, 64, 64)
        assert taps["enc5"].shape == (2, 128, 2, 2)
        assert np.all(np.isfinite(out.data))

    def test_wrong_size_rejected(self, rng):
        cfg = ModelConfig.for_variant("base", input_size=64)
        model = build_model(cfg, seed=0)
        model.eval()
        with pytest.raises(UsageError):
            model(image_batch(rng, 1, 96))

    def test_forward_deterministic(self, rng):
        cfg = ModelConfig.for_variant("base", input_size=64)
        x = image_batch(rng, 1, 64)
        out1 = build_model(cfg, seed=3).forward(x)
        out2 = build_model(cfg, seed=3).forward(x)
        assert out1.data.tobytes() == out2.data.tobytes()

    def test_encoder_activations_unchanged_by_skip_mode(self, rng):
        x = image_batch(rng, 1, 64)
        taps = {}
        for mode in ("none", "skip3", "horizontal"):
            cfg = ModelConfig.for_variant("base", input_size=64, skip_mode=mode)
            model = build_model(cfg, seed=0)
            model.eval()
            tp = {}
            model.forward(x, taps=tp)
            taps[mode] = tp
        for stage in ("enc1", "enc2", "enc3", "enc4", "enc5"):
            ref = taps["none"][stage].data.tobytes()
            assert taps["skip3"][stage].data.tobytes() == ref
            assert taps["horizontal"][stage].data.tobytes() == ref

    @pytest.mark.parametrize("mode", ["none", "horizontal", "skip1", "skip2", "skip3"])
    def test_all_skip_modes_run(self, rng, mode):
        cfg = ModelConfig.for_variant("base", input_size=64, skip_mode=mode)
        model = build_model(cfg, seed=0)
        model.eval()
        assert model(image_batch(rng, 1, 64)).shape == (1, 1, 64, 64)

    def test_conv_downsampling_runs(self, rng):
        cfg = ModelConfig.for_variant("base", input_size=64, downsample_mode="conv")
        model = build_model(cfg, seed=0)
        model.eval()
        assert model(image_batch(rng, 1, 64)).shape == (1, 1, 64, 64)

    def test_literal_eq2_runs(self, rng):
        cfg = ModelConfig.for_variant("base", input_size=64, literal_eq2=True)
        model = build_model(cfg, seed=0)
        model.eval()
        assert model(image_batch(rng, 1, 64)).shape == (1, 1, 64, 64)

    def test_multiclass_head(self, rng):
        cfg = ModelConfig.for_variant("base", input_size=64, num_classes=3)
        model = build_model(cfg, seed=0)
        model.eval()
        assert model(image_batch(rng, 1, 64)).shape == (1, 3, 64, 64)


class TestModes:
    def test_eval_records_no_graph(self, rng):
        cfg = ModelConfig.for_variant("base", input_size=64)
        model = build_model(cfg, seed=0)
        set_mode(model, "eval")
        with T.record() as g:
            model(image_batch(rng, 1, 64))
        assert len(g.nodes) == 0

    def test_train_records_graph(self, rng):
        cfg = ModelConfig.for_variant("base", input_size=64)
        model = build_model(cfg, seed=0)
        set_mode(model, "train")
        with T.record() as g:
            model(image_batch(rng, 1, 64))
        assert len(g.nodes) > 100

    def test_double_set_idempotent(self, rng):
        cfg = ModelConfig.for_variant("base", input_size=64)
        model = build_model(cfg, seed=0)
        set_mode(model, "eval")
        set_mode(model, "eval")
        x = image_batch(rng, 1, 64)
        a = model(x).data.tobytes()
        b = model(x).data.tobytes()
        assert a == b

    def test_eval_uses_running_stats(self, rng):
        cfg = ModelConfig.for_variant("base", input_size=64)
        model = build_model(cfg, seed=0)
        x = image_batch(rng, 2, 64)
        set_mode(model, "eval")
        before = model(x).data.copy()
        # a train-mode pass updates running statistics
        set_mode(model, "train")
        model(x)
        set_mode(model, "eval")
        after = model(x).data
        assert not np.array_equal(before, after)

    def test_bad_mode(self):
        cfg = ModelConfig.for_variant("base", input_size=64)
        model = build_model(cfg, seed=0)
        with pytest.raises(UsageError):
            set_mode(model, "predict")


class TestDiagnostics:
    def test_first_nonfinite_layer_names_poisoned_stage(self, rng):
        cfg = ModelConfig.for_variant("base", input_size=64)
        model = build_model(cfg, seed=0)
        model.enc3.proj.weight.data[0, 0, 0, 0] = np.nan
        layer = first_nonfinite_layer(model, image_batch(rng, 1, 64))
        assert layer == "enc3"

    def test_clean_model_reports_none(self, rng):
        cfg = ModelConfig.for_variant("base", input_size=64)
        model = build_model(cfg, seed=0)
        assert first_nonfinite_layer(model, image_batch(rng, 1, 64)) is None

    def test_running_stats_untouched_in_train_mode(self, rng):
        cfg = ModelConfig.for_variant("base", input_size=64)
        model = build_model(cfg, seed=0)
        model.train()
        model.forward(image_batch(rng, 2, 64))     # move the stats off their init
        before = {k: v.tobytes() for k, v in model.named_buffers()}
        first_nonfinite_layer(model, image_batch(rng, 2, 64))
        assert {k: v.tobytes() for k, v in model.named_buffers()} == before
        assert model.training

    def test_non_numeric_error_propagates(self, rng):
        cfg = ModelConfig.for_variant("base", input_size=64)
        model = build_model(cfg, seed=0)
        model.enc3.proj.weight.data = np.zeros((1, 1, 3, 3), dtype=np.float32)
        with pytest.raises(ConfigError):
            first_nonfinite_layer(model, image_batch(rng, 1, 64))
