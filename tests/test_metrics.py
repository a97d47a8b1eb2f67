"""Overlap metrics: exact identities, invariances, evaluation harness."""

from fractions import Fraction

import numpy as np
import pytest

from muvit import tensor as T
from muvit.data import synth_dataset
from muvit.metrics import evaluate, segmentation_metrics
from muvit.model import ModelConfig, build_model
from muvit.tensor import ConfigError, Tensor


def logit(mask, hi=12.0):
    return np.where(mask > 0, hi, -hi).astype(np.float64)


class TestSegmentationMetrics:
    def test_exact_match(self, rng):
        gt = (rng.random((1, 16, 16)) > 0.5).astype(np.float64)
        res = segmentation_metrics(logit(gt), gt)
        assert res.per_sample[0].iou == 1.0
        assert res.per_sample[0].f1 == 1.0

    def test_disjoint_nonempty(self):
        gt = np.zeros((1, 4, 4))
        gt[0, :2] = 1.0
        pred = np.zeros((1, 4, 4))
        pred[0, 2:] = 1.0
        res = segmentation_metrics(logit(pred), gt)
        assert res.per_sample[0].iou == 0.0
        assert res.per_sample[0].f1 == 0.0

    def test_left_half_vs_top_half(self):
        # intersection 1/4, union 3/4 -> IoU 1/3; sizes 1/2 each -> F1 1/2
        gt = np.zeros((1, 8, 8))
        gt[0, :4, :] = 1.0
        pred = np.zeros((1, 8, 8))
        pred[0, :, :4] = 1.0
        s = segmentation_metrics(logit(pred), gt).per_sample[0]
        assert abs(s.iou - 1.0 / 3.0) < 1e-15
        assert s.f1 == 0.5

    def test_empty_pred_and_gt_is_one(self):
        z = np.zeros((1, 8, 8))
        s = segmentation_metrics(np.full((1, 8, 8), -9.0), z).per_sample[0]
        assert s.iou == 1.0 and s.f1 == 1.0

    def test_f1_iou_identity_exact(self, rng):
        # F1 == 2*IoU / (1 + IoU) as exact rationals on integer counts
        for _ in range(200):
            gt = (rng.random((1, 12, 12)) > rng.random()).astype(np.float64)
            pred = (rng.random((1, 12, 12)) > rng.random()).astype(np.float64)
            s = segmentation_metrics(logit(pred), gt).per_sample[0]
            union = s.pred_size + s.gt_size - s.intersection
            if union == 0:
                continue
            iou = Fraction(s.intersection, union)
            f1 = Fraction(2 * s.intersection, s.pred_size + s.gt_size)
            assert f1 == 2 * iou / (1 + iou)

    def test_permutation_invariance(self, rng):
        gt = (rng.random((1, 10, 10)) > 0.5).astype(np.float64)
        pred = (rng.random((1, 10, 10)) > 0.5).astype(np.float64)
        before = segmentation_metrics(logit(pred), gt).per_sample[0]
        perm = rng.permutation(100)
        gt2 = gt.reshape(-1)[perm].reshape(1, 10, 10)
        pred2 = pred.reshape(-1)[perm].reshape(1, 10, 10)
        after = segmentation_metrics(logit(pred2), gt2).per_sample[0]
        assert before.iou == after.iou and before.f1 == after.f1

    def test_monotone_in_correct_pixels(self, rng):
        gt = np.zeros((1, 6, 6))
        gt[0, 1:5, 1:5] = 1.0
        pred = np.zeros((1, 6, 6))
        pred[0, 1:3, 1:5] = 1.0
        base = segmentation_metrics(logit(pred), gt).per_sample[0].iou
        pred[0, 3, 1] = 1.0  # one more correctly predicted pixel
        improved = segmentation_metrics(logit(pred), gt).per_sample[0].iou
        assert improved >= base

    def test_batch_means(self, rng):
        gt = (rng.random((3, 1, 8, 8)) > 0.5).astype(np.float64)
        res = segmentation_metrics(logit(gt), gt)
        assert len(res.per_sample) == 3
        assert res.mean_iou == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            segmentation_metrics(np.zeros((1, 4, 4)), np.zeros((1, 5, 5)))

    def test_non_binary_gt(self):
        with pytest.raises(ConfigError):
            segmentation_metrics(np.zeros((1, 4, 4)), np.full((1, 4, 4), 0.3))


class TestEvaluate:
    def _model(self):
        return build_model(ModelConfig.for_variant("base", input_size=64), seed=0)

    def test_single_sample_reduces_to_metrics(self):
        ds = synth_dataset(seed=3, n=1, size=64)
        model = self._model()
        res = evaluate(model, ds)
        assert len(res.per_sample) == 1
        assert res.mean_iou == res.per_sample[0].iou

    def test_duplicated_dataset_same_mean(self):
        ds = synth_dataset(seed=3, n=2, size=64)
        model = self._model()
        once = evaluate(model, ds)
        twice = evaluate(model, ds + ds)
        assert abs(once.mean_iou - twice.mean_iou) < 1e-12

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigError):
            evaluate(self._model(), [])

    def test_train_mode_model_still_records_after(self, rng):
        model = self._model()
        model.train()
        evaluate(model, synth_dataset(seed=3, n=1, size=64))
        assert model.training
        x = Tensor(rng.random((1, 3, 64, 64)).astype(np.float32))
        with T.record():
            loss = T.tsum(model(x))
            model.zero_grad()
            T.backward(loss)
        assert model.head.weight.grad is not None

    def test_eval_mode_model_stays_in_eval_mode(self):
        model = self._model()
        model.eval()
        evaluate(model, synth_dataset(seed=3, n=1, size=64))
        assert not model.training

    def test_deterministic(self):
        ds = synth_dataset(seed=3, n=4, size=64)
        model = self._model()
        a = evaluate(model, ds)
        b = evaluate(model, ds)
        assert [s.iou for s in a.per_sample] == [s.iou for s in b.per_sample]
