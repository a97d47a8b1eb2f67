"""Loss closed forms, optimizer arithmetic, schedules, augmentation, loop."""

import gc
import math
import weakref

import numpy as np
import pytest

from muvit import tensor as T
from muvit.data import standardize, synth_dataset
from muvit.model import ModelConfig, build_model
from muvit.tensor import ConfigError, Tensor, UsageError, backward, record
from muvit.training import (SGD, TrainingDiverged, augment, hflip, lr_schedule,
                            rot90k, seg_loss, train_loop, vflip)


def logits_of(p):
    p = np.asarray(p, dtype=np.float64)
    return np.log(p / (1.0 - p))


class TestSegLoss:
    def test_perfect_prediction_near_zero(self):
        y = np.zeros((1, 1, 8, 8))
        y[0, 0, 2:5, 2:5] = 1.0
        logits = Tensor(np.where(y > 0, 20.0, -20.0))
        terms = seg_loss(logits, Tensor(y))
        assert terms.bce.item() < 1e-6
        assert terms.dice.item() < 0.02      # eps=1 smoothing keeps a small floor
        assert terms.total.item() < 0.02

    def test_half_mask_closed_form_16x16(self):
        # y covers half of a 16x16 mask, y_hat = 0.5 everywhere:
        #   bce = ln 2
        #   dice (eps=1) = 1 - (2*64 + 1) / (128 + 128 + 1) = 128/257
        y = np.zeros((1, 1, 16, 16))
        y[0, 0, :8, :] = 1.0
        terms = seg_loss(Tensor(np.zeros((1, 1, 16, 16))), Tensor(y))
        assert abs(terms.bce.item() - math.log(2.0)) < 1e-12
        assert abs(terms.dice.item() - 128.0 / 257.0) < 1e-12
        expected = 0.5 * math.log(2.0) + 128.0 / 257.0
        assert abs(terms.total.item() - expected) < 1e-12
        # the eps -> 0 limit of the same case is ~0.8466
        assert abs(terms.total.item() - 0.8466) < 2.5e-3

    def test_empty_mask_empty_prediction(self):
        y = np.zeros((1, 1, 8, 8))
        terms = seg_loss(Tensor(np.full((1, 1, 8, 8), -30.0)), Tensor(y))
        assert abs(terms.dice.item()) < 1e-9   # eps guards the 0/0 case

    def test_total_identity_exact(self, rng):
        logits = Tensor(rng.standard_normal((2, 1, 8, 8)))
        y = Tensor((rng.random((2, 1, 8, 8)) > 0.5).astype(np.float32))
        terms = seg_loss(logits, y)
        assert terms.total.item() == 0.5 * terms.bce.item() + terms.dice.item()

    def test_multiclass_per_channel(self, rng):
        logits = Tensor(rng.standard_normal((1, 3, 8, 8)))
        y = Tensor((rng.random((1, 3, 8, 8)) > 0.5).astype(np.float32))
        terms = seg_loss(logits, y)
        assert np.isfinite(terms.total.item())

    def test_shape_mismatch(self, rng):
        with pytest.raises(ConfigError):
            seg_loss(Tensor(rng.standard_normal((1, 1, 8, 8))),
                     Tensor(np.zeros((1, 1, 4, 4))))

    def test_non_binary_target(self, rng):
        with pytest.raises(ConfigError):
            seg_loss(Tensor(rng.standard_normal((1, 1, 4, 4))),
                     Tensor(np.full((1, 1, 4, 4), 0.5)))

    def test_argmin_at_target(self):
        # on a 2x2 mask, grid-searching predicted values for the fg/bg pixels
        # puts the minimum at the corner closest to the mask itself
        y = np.array([[[[1.0, 0.0], [0.0, 1.0]]]])
        grid = np.linspace(0.01, 0.99, 25)
        best, best_pair = None, None
        for p1 in grid:
            for p0 in grid:
                pred = np.where(y > 0, p1, p0)
                total = seg_loss(Tensor(logits_of(pred)), Tensor(y)).total.item()
                if best is None or total < best:
                    best, best_pair = total, (p1, p0)
        assert best_pair == (grid[-1], grid[0])

    def test_gradient_matches_finite_differences(self, rng):
        logits = Tensor(rng.standard_normal((1, 1, 6, 6)), requires_grad=True, dtype="f64")
        y = Tensor((rng.random((1, 1, 6, 6)) > 0.4).astype(np.float64))
        err = T.gradcheck(lambda l: seg_loss(l, y).total, [logits])
        assert err <= 1e-5


class TestSGD:
    def _param(self, value):
        p = Tensor(np.array([value]), requires_grad=True, dtype="f64")
        p.grad = None
        return p

    def test_single_plain_step(self):
        p = self._param(1.0)
        p.grad = np.array([1.0])
        opt = SGD([("p", p)], momentum=0.0, weight_decay=0.0)
        opt.step(0.1)
        assert abs(p.data[0] - 0.9) < 1e-15

    def test_two_momentum_steps(self):
        # v1 = 1, v2 = 0.9 + 1 = 1.9 -> p = 1 - 0.1 - 0.19 = 0.71
        p = self._param(1.0)
        opt = SGD([("p", p)], momentum=0.9, weight_decay=0.0)
        p.grad = np.array([1.0])
        opt.step(0.1)
        p.grad = np.array([1.0])
        opt.step(0.1)
        assert abs(p.data[0] - 0.71) < 1e-12

    def test_pure_weight_decay(self):
        p = self._param(1.0)
        p.grad = np.array([0.0])
        opt = SGD([("p", p)], momentum=0.0, weight_decay=1e-4)
        opt.step(1.0)
        assert abs(p.data[0] - 0.9999) < 1e-15

    def test_zero_lr_bitwise_noop(self, rng):
        p = Tensor(rng.standard_normal(7), requires_grad=True, dtype="f64")
        before = p.data.tobytes()
        p.grad = rng.standard_normal(7)
        SGD([("p", p)]).step(0.0)
        assert p.data.tobytes() == before

    def test_missing_grad_rejected(self):
        p = self._param(1.0)
        with pytest.raises(UsageError):
            SGD([("p", p)]).step(0.1)


class TestSchedules:
    def test_poly_endpoints(self):
        assert lr_schedule("poly", 0, 100, 0.01) == 0.01
        assert lr_schedule("poly", 100, 100, 0.01) == 0.0

    def test_poly_halfway_closed_form(self):
        got = lr_schedule("poly", 50, 100, 0.01)
        assert abs(got - 0.01 * 0.5 ** 0.9) < 1e-12
        assert abs(got - 0.0053589) < 1e-7

    def test_warmup_cosine(self):
        assert lr_schedule("warmup_cosine", 10, 100, 0.01, warmup=10) == 0.01
        assert lr_schedule("warmup_cosine", 5, 100, 0.01, warmup=10) == 0.005
        assert abs(lr_schedule("warmup_cosine", 100, 100, 0.01, warmup=10)) < 1e-17

    def test_constant(self):
        assert lr_schedule("constant", 3, 10, 0.05) == 0.05

    def test_zero_total_rejected(self):
        with pytest.raises(ConfigError):
            lr_schedule("poly", 0, 0, 0.01)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            lr_schedule("step", 0, 10, 0.01)


class TestAugment:
    def _sample(self, rng, size=32):
        img = rng.random((3, size, size)).astype(np.float32)
        mask = (rng.random((1, size, size)) > 0.6).astype(np.float32)
        return img, mask

    def test_deterministic_under_seed(self, rng):
        img, mask = self._sample(rng)
        a1 = augment(img, mask, np.random.default_rng(5))
        a2 = augment(img, mask, np.random.default_rng(5))
        assert a1[0].tobytes() == a2[0].tobytes()
        assert a1[1].tobytes() == a2[1].tobytes()

    def test_flip_involution(self, rng):
        img, mask = self._sample(rng)
        i2, m2 = hflip(*hflip(img, mask))
        assert np.array_equal(i2, img) and np.array_equal(m2, mask)
        i2, m2 = vflip(*vflip(img, mask))
        assert np.array_equal(i2, img) and np.array_equal(m2, mask)

    def test_rot90_composes_to_identity(self, rng):
        img, mask = self._sample(rng)
        i2, m2 = img, mask
        for _ in range(4):
            i2, m2 = rot90k(i2, m2, 1)
        assert np.array_equal(i2, img) and np.array_equal(m2, mask)

    def test_mask_pixel_count_invariant(self, rng):
        img, mask = self._sample(rng)
        for seed in range(20):
            _, m2 = augment(img, mask, np.random.default_rng(seed))
            assert m2.sum() == mask.sum()

    def test_image_standardized(self, rng):
        img, mask = self._sample(rng)
        out, _ = augment(img, mask, np.random.default_rng(0))
        np.testing.assert_allclose(out.mean(axis=(1, 2)), 0.0, atol=1e-4)
        np.testing.assert_allclose(out.std(axis=(1, 2)), 1.0, atol=1e-3)

    def test_non_square_rejected(self, rng):
        img = rng.random((3, 16, 32)).astype(np.float32)
        mask = np.zeros((1, 16, 32), dtype=np.float32)
        with pytest.raises(ConfigError):
            augment(img, mask, np.random.default_rng(0))


class TestTrainLoop:
    def _tiny(self, seed=11):
        train = synth_dataset(seed=seed, n=8, size=64)
        val = synth_dataset(seed=seed + 1, n=4, size=64)
        return train, val

    def test_identical_seeds_identical_traces(self):
        train, val = self._tiny()
        traces = []
        for _ in range(2):
            cfg = ModelConfig.for_variant("base", input_size=64)
            model = build_model(cfg, seed=3)
            res = train_loop(model, train, val, epochs=2, batch_size=4,
                             schedule="poly", lr0=0.01, seed=3)
            traces.append([(r["total"], r["bce"], r["dice"], r["lr"]) for r in res.history])
        assert traces[0] == traces[1]

    def test_schedule_logged_values_match_closed_form(self):
        train, val = self._tiny()
        cfg = ModelConfig.for_variant("base", input_size=64)
        model = build_model(cfg, seed=0)
        res = train_loop(model, train, val, epochs=2, batch_size=4,
                         schedule="poly", lr0=0.01, seed=0)
        total = len(res.history)
        for rec in res.history:
            assert rec["lr"] == lr_schedule("poly", rec["step"], total, 0.01)

    def test_best_checkpoint_retained(self):
        train, val = self._tiny()
        cfg = ModelConfig.for_variant("base", input_size=64)
        model = build_model(cfg, seed=0)
        res = train_loop(model, train, val, epochs=2, batch_size=4, seed=0)
        assert res.best_val_iou >= 0.0
        assert set(res.best_state) == set(model.named_state().keys())

    def test_log_file_jsonl(self, tmp_path):
        import json
        train, val = self._tiny()
        cfg = ModelConfig.for_variant("base", input_size=64)
        model = build_model(cfg, seed=0)
        log = tmp_path / "train.log"
        train_loop(model, train, val, epochs=1, batch_size=4, seed=0, log_path=str(log))
        lines = [json.loads(line) for line in log.read_text().splitlines()]
        steps = [r for r in lines if "step" in r]
        epochs = [r for r in lines if "val_iou" in r]
        assert len(steps) == 2 and len(epochs) == 1
        assert {"step", "lr", "bce", "dice", "total"} <= set(steps[0])

    def test_nan_aborts_with_layer_name(self):
        train, val = self._tiny()
        cfg = ModelConfig.for_variant("base", input_size=64)
        model = build_model(cfg, seed=0)
        model.enc2.proj.weight.data[0, 0, 0, 0] = np.nan
        with pytest.raises(TrainingDiverged, match="enc2"):
            train_loop(model, train, val, epochs=1, batch_size=4, seed=0)

    def test_empty_dataset_rejected(self):
        cfg = ModelConfig.for_variant("base", input_size=64)
        model = build_model(cfg, seed=0)
        with pytest.raises(ConfigError):
            train_loop(model, [], [], epochs=1, batch_size=1, seed=0)

    def test_loss_decreases_during_overfit(self):
        # single-sample run: the loss should fall in at least 18 of the
        # first 20 steps (allowing BN transients)
        [sample] = synth_dataset(seed=5, n=1, size=64)
        cfg = ModelConfig.for_variant("base", input_size=64)
        model = build_model(cfg, seed=0)
        model.train()
        opt = SGD(list(model.named_parameters()))
        x = Tensor(standardize(sample.image)[None])
        y = Tensor(sample.mask[None])
        losses = []
        for _ in range(21):
            with record():
                terms = seg_loss(model(x), y)
                model.zero_grad()
                backward(terms.total)
            opt.step(0.05)
            losses.append(terms.total.item())
        drops = sum(1 for a, b in zip(losses, losses[1:]) if b < a)
        assert drops >= 18


class TestTape:
    def test_train_step_freed_without_cyclic_gc(self, rng):
        # the tape must be freed by reference counting alone: no tensor may
        # point back at the graph that holds it
        model = build_model(ModelConfig.for_variant("base", input_size=64), seed=0)
        model.train()
        x = Tensor(rng.random((1, 3, 64, 64)).astype(np.float32))
        y = Tensor((rng.random((1, 1, 64, 64)) > 0.5).astype(np.float32))
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            taps = {}
            with record():
                logits = model.forward(x, taps=taps)
                terms = seg_loss(logits, y)
                model.zero_grad()
                backward(terms.total)
            refs = [weakref.ref(taps["enc3"]), weakref.ref(logits), weakref.ref(terms.total)]
            del taps, logits, terms
            assert [r() for r in refs] == [None, None, None]
        finally:
            if was_enabled:
                gc.enable()

    def test_backward_outside_its_record_block_rejected(self, rng):
        x = Tensor(rng.standard_normal(4), requires_grad=True)
        with record():
            loss = T.tsum(T.mul(x, x))
        with record():
            with pytest.raises(UsageError):
                backward(loss)
        with pytest.raises(UsageError):
            backward(loss)
