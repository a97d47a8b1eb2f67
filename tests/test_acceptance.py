"""Acceptance criteria, one test per criterion.

Each test enforces the stated tolerance and runtime budget and prints a
PASS line (visible with pytest -s / in the captured output). Published
dataset scores are not reproducible at desk scale; acceptance is
property- and accounting-based.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from muvit import tensor as T
from muvit.accounting import (attention_quadratic_macs, conv_macs,
                              convutr_core_macs, convutr_to_conv_ratio,
                              count_flops, count_params)
from muvit.data import (load_checkpoint, save_checkpoint, standardize,
                        synth_dataset, doc_from_model_config)
from muvit.metrics import segmentation_metrics
from muvit.model import ModelConfig, build_model
from muvit.tensor import Tensor, backward, record
from muvit.training import SGD, lr_schedule, seg_loss, train_loop
from muvit.verify import run_suite
from muvit.blocks import ConvUtrBlock, LKLGLBlock, TransformerBlock

from test_blocks import zero_weights


def report(n, name, detail=""):
    print(f"ACCEPTANCE {n:2d} {name}: PASS {detail}")


class Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.t0 = time.time()

    def check(self):
        elapsed = time.time() - self.t0
        assert elapsed < self.limit, f"runtime {elapsed:.1f}s exceeds {self.limit}s budget"
        return elapsed


def test_criterion_01_parameter_budget():
    budget = Budget(5)
    base = count_params(build_model(ModelConfig.for_variant("base"), seed=0))
    assert 1_100_000 <= base.total_params <= 1_700_000
    large = count_params(build_model(ModelConfig.for_variant("large"), seed=0))
    assert 6_300_000 <= large.total_params <= 9_500_000
    # count_params itself raises if the analytic closed form disagrees with
    # the enumerated tensors; reaching here means they matched exactly
    elapsed = budget.check()
    report(1, "parameter budget",
           f"(base {base.total_params / 1e6:.3f} M, large {large.total_params / 1e6:.3f} M, "
           f"{elapsed:.1f}s)")


def test_criterion_02_flops():
    budget = Budget(5)
    cfg = ModelConfig.for_variant("base")
    rep = count_flops(cfg, 256)
    assert 1.9e9 <= rep.total_flops <= 3.1e9
    rows = {r.name: r.macs for r in rep.rows}
    # conv rows must equal the closed forms exactly
    assert rows["enc1.proj"] == conv_macs(256, 256, 3, 16, 3)
    assert rows["enc2.proj"] == conv_macs(128, 128, 16, 16, 1)
    for b in range(3):
        core = (rows[f"enc3.block{b}.dw"] + rows[f"enc3.block{b}.pw1"]
                + rows[f"enc3.block{b}.pw2"])
        assert core == convutr_core_macs(64, 64, 32, 7)
    assert rows["dec5.conv"] == conv_macs(256, 256, 32, 32, 3)
    # ConvUtr/conventional-conv cost ratio is exact on a parameter grid
    for k in (3, 5, 7, 9):
        for dj in (2, 4, 16, 32, 64, 128):
            assert convutr_to_conv_ratio(dj, k) == Fraction(k * k + 2 * dj, dj * k * k)
            assert (convutr_core_macs(16, 16, dj, k) * dj * k * k
                    == conv_macs(16, 16, dj, dj, k) * (k * k + 2 * dj))
    elapsed = budget.check()
    report(2, "FLOPs accounting", f"({rep.total_flops / 1e9:.3f} GFLOPs, {elapsed:.1f}s)")


def test_criterion_03_attention_pooling():
    budget = Budget(5)
    # same stage geometry with p=2 vs p=1: quadratic MACs must shrink 16x,
    # measured on the actually executed matmuls
    rng = np.random.default_rng(0)
    d, heads, grid = 64, 2, 16
    ws = [Tensor(rng.standard_normal((d, d)).astype(np.float32)) for _ in range(4)]

    def measured(tokens):
        x = Tensor(rng.standard_normal((1, tokens, d)).astype(np.float32))
        with T.count_macs() as c:
            T.mhsa(x, heads, *ws)
        return c.by_op["matmul"]

    full = measured(grid * grid)               # p=1: all 256 positions
    pooled = measured((grid // 2) * (grid // 2))  # p=2: 64 tokens
    assert pooled * 16 == full
    assert full == attention_quadratic_macs(grid * grid, d)
    elapsed = budget.check()
    report(3, "attention pooling 1/p^4", f"(QK+AV {pooled} vs {full} MACs, {elapsed:.1f}s)")


def test_criterion_04_gradient_correctness():
    budget = Budget(120)
    worst = {}
    for scope in ("ops", "blocks"):
        for name, err in run_suite(scope):
            worst[name] = err
            assert err <= 1e-5, f"{scope}:{name} at {err:.3e}"
    elapsed = budget.check()
    report(4, "gradient correctness", f"(worst {max(worst.values()):.2e}, {elapsed:.1f}s)")


def test_criterion_05_zero_init_identity():
    budget = Budget(10)
    rng = np.random.default_rng(0)
    blocks = [
        (zero_weights(ConvUtrBlock(6, 7).astype("f64")), (2, 6, 8, 8)),
        (zero_weights(LKLGLBlock(8, 2, ffn_ratio=4).astype("f64")), (1, 8, 6, 6)),
        (zero_weights(TransformerBlock(8, 2, ffn_ratio=4).astype("f64")), (2, 5, 8)),
    ]
    worst = 0.0
    for blk, shape in blocks:
        x = Tensor(rng.standard_normal(shape), dtype="f64")
        worst = max(worst, float(np.max(np.abs(blk(x).data - x.data))))
    assert worst <= 1e-12
    elapsed = budget.check()
    report(5, "zero-init identity", f"(max |out-in| {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_06_shape_pipeline():
    budget = Budget(10)
    rng = np.random.default_rng(0)
    expected = {256: [(16, 128), (16, 64), (32, 32), (64, 16), (128, 8)],
                64: [(16, 32), (16, 16), (32, 8), (64, 4), (128, 2)]}
    for size, stages in expected.items():
        model = build_model(ModelConfig.for_variant("base", input_size=size), seed=0)
        model.eval()
        taps = dict(model.stages(Tensor(rng.random((1, 3, size, size)).astype(np.float32))))
        out = taps["head"]
        assert out.shape == (1, 1, size, size)
        for i, (c, s) in enumerate(stages, start=1):
            assert taps[f"enc{i}"].shape == (1, c, s, s), f"enc{i} at {size}"
    elapsed = budget.check()
    report(6, "shape pipeline", f"({elapsed:.1f}s)")


@pytest.mark.slow
def test_criterion_07_overfit_oracle():
    budget = Budget(180)
    [sample] = synth_dataset(seed=5, n=1, size=64, difficulty=0.0)
    model = build_model(ModelConfig.for_variant("base", input_size=64), seed=0)
    model.train()
    opt = SGD(list(model.named_parameters()))
    x = Tensor(standardize(sample.image)[None])
    y = Tensor(sample.mask[None])
    logits = None
    for _ in range(200):
        with record():
            logits = model(x)
            terms = seg_loss(logits, y)
            model.zero_grad()
            backward(terms.total)
        opt.step(0.05)
    dice = segmentation_metrics(logits.data, y.data).mean_f1
    assert dice >= 0.99
    elapsed = budget.check()
    report(7, "overfit oracle", f"(train Dice {dice:.4f}, {elapsed:.1f}s)")


@pytest.mark.slow
def test_criterion_08_desk_scale_learning():
    budget = Budget(1200)
    train_set = synth_dataset(seed=42, n=200, size=64, difficulty=0.0)
    val_set = synth_dataset(seed=4242, n=50, size=64, difficulty=0.0)
    scores = {}
    for mode in ("skip3", "none"):
        cfg = ModelConfig.for_variant("base", input_size=64, skip_mode=mode)
        model = build_model(cfg, seed=7)
        res = train_loop(model, train_set, val_set, epochs=30, batch_size=8,
                         schedule="poly", lr0=0.01, seed=7)
        scores[mode] = res.best_val_iou
    assert scores["skip3"] >= 0.80
    assert scores["skip3"] >= scores["none"]
    elapsed = budget.check()
    report(8, "desk-scale learning",
           f"(skip3 {scores['skip3']:.4f} vs none {scores['none']:.4f}, {elapsed / 60:.1f} min)")


def test_criterion_09_loss_identity():
    budget = Budget(1)
    rng = np.random.default_rng(3)
    for _ in range(50):
        logits = Tensor(rng.standard_normal((2, 1, 8, 8)), dtype="f64")
        y = Tensor((rng.random((2, 1, 8, 8)) > rng.random()).astype(np.float64))
        terms = seg_loss(logits, y)
        assert terms.total.item() == 0.5 * terms.bce.item() + terms.dice.item()
    # half-covered 32x32 mask, y_hat = 0.5: the eps=1 correction stays
    # inside +-1e-3 of the closed-form 0.8466 once the mask has >= 500 px
    y = np.zeros((1, 1, 32, 32))
    y[0, 0, :16, :] = 1.0
    total = seg_loss(Tensor(np.zeros((1, 1, 32, 32))), Tensor(y)).total.item()
    assert abs(total - 0.8466) <= 1e-3
    elapsed = budget.check()
    report(9, "loss identity", f"(half-mask total {total:.5f}, {elapsed:.2f}s)")


def test_criterion_10_schedules():
    budget = Budget(1)
    halfway = lr_schedule("poly", 50, 100, 0.01)
    assert abs(halfway - 0.01 * 0.5 ** 0.9) < 1e-12
    assert abs(halfway - 0.0053589) <= 1e-7
    assert lr_schedule("warmup_cosine", 25, 300, 0.01, warmup=25) == 0.01
    elapsed = budget.check()
    report(10, "LR schedules", f"(poly mid {halfway:.7f}, {elapsed:.2f}s)")


def test_criterion_11_persistence_and_determinism(tmp_path):
    budget = Budget(300)
    cfg = ModelConfig.for_variant("base", input_size=64)
    model = build_model(cfg, seed=0)
    state = model.named_state()
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    doc = doc_from_model_config(cfg, seed=0)
    save_checkpoint(str(p1), doc, state)
    doc2, tensors, optim = load_checkpoint(str(p1))
    save_checkpoint(str(p2), doc2, tensors, optim)
    assert p1.read_bytes() == p2.read_bytes()

    train_set = synth_dataset(seed=9, n=16, size=64)
    val_set = synth_dataset(seed=10, n=4, size=64)
    traces = []
    for _ in range(2):
        m = build_model(cfg, seed=4)
        res = train_loop(m, train_set, val_set, epochs=2, batch_size=8, seed=4)
        traces.append([(r["total"], r["bce"], r["dice"]) for r in res.history])
    assert traces[0] == traces[1]
    elapsed = budget.check()
    report(11, "persistence & determinism", f"({len(traces[0])} identical steps, {elapsed:.1f}s)")


def test_criterion_12_metric_identity():
    budget = Budget(5)
    rng = np.random.default_rng(12)
    checked = 0
    for _ in range(1000):
        gt = (rng.random((1, 8, 8)) > rng.random()).astype(np.float64)
        pred = (rng.random((1, 8, 8)) > rng.random()).astype(np.float64)
        logits = np.where(pred > 0, 9.0, -9.0)
        s = segmentation_metrics(logits, gt).per_sample[0]
        union = s.pred_size + s.gt_size - s.intersection
        if union == 0:
            assert s.iou == 1.0 and s.f1 == 1.0
            continue
        iou = Fraction(s.intersection, union)
        f1 = Fraction(2 * s.intersection, s.pred_size + s.gt_size)
        assert f1 == 2 * iou / (1 + iou)
        checked += 1
    assert checked > 900
    elapsed = budget.check()
    report(12, "metric identity", f"({checked} pairs exact, {elapsed:.1f}s)")
