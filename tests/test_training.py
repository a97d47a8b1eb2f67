"""Loss closed forms, optimizer arithmetic, schedules, augmentation, loop."""

import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from muvit import tensor as T
from muvit.blocks import ConvUtrBlock, SkipAdapter
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

    def test_warmup_cosine_warms_up_over_a_twentieth_of_the_run(self):
        model = build_model(ModelConfig.for_variant("base", input_size=32), seed=0)
        res = train_loop(model, synth_dataset(seed=2, n=10, size=32), None, epochs=4,
                         batch_size=1, schedule="warmup_cosine", lr0=0.01, seed=0)
        assert [r["lr"] for r in res.history] == [
            lr_schedule("warmup_cosine", t, 40, 0.01, warmup=2) for t in range(40)]
        assert res.history[0]["lr"] == 0.0

    def test_best_checkpoint_retained(self):
        train, val = self._tiny()
        cfg = ModelConfig.for_variant("base", input_size=64)
        model = build_model(cfg, seed=0)
        res = train_loop(model, train, val, epochs=2, batch_size=4, seed=0)
        assert res.best_val_iou >= 0.0
        assert set(res.best_state) == set(model.named_state().keys())

    @pytest.mark.parametrize("which", ["training", "validation"])
    def test_samples_of_another_size_rejected_before_the_first_step(self, tmp_path, which):
        train, val = self._tiny()
        if which == "training":
            train = train[:3] + synth_dataset(seed=5, n=1, size=32) + train[3:]
        else:
            val = synth_dataset(seed=5, n=2, size=32)
        model = build_model(ModelConfig.for_variant("base", input_size=64), seed=0)
        log = tmp_path / "train.log"
        with pytest.raises(ConfigError,
                           match=f"{which} sample 'synth-5-0000' is 32x32; the model takes 64x64"):
            train_loop(model, train, val, epochs=1, batch_size=4, seed=0, log_path=str(log))
        assert not log.exists()

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

    def test_log_records_flushed_before_next_step(self, tmp_path, monkeypatch):
        # a run killed during step k leaves the k step records before it,
        # and the epoch record, on disk
        from muvit import training
        train, val = self._tiny()
        model = build_model(ModelConfig.for_variant("base", input_size=64), seed=0)
        log = tmp_path / "train.log"
        on_disk = []
        real_step = training.SGD.step

        def step(opt, lr):
            on_disk.append(len(log.read_text().splitlines()))
            return real_step(opt, lr)

        monkeypatch.setattr(training.SGD, "step", step)
        train_loop(model, train, val, epochs=2, batch_size=4, seed=0, log_path=str(log))
        assert on_disk == [0, 1, 3, 4]

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

    @pytest.mark.parametrize("epochs,batch_size", [(1, 0), (1, -1), (0, 2), (-1, 2)])
    def test_nonpositive_epochs_or_batch_rejected(self, epochs, batch_size):
        train = synth_dataset(seed=1, n=2, size=32)
        model = build_model(ModelConfig.for_variant("base", input_size=32), seed=0)
        with pytest.raises(ConfigError, match="must both be >= 1"):
            train_loop(model, train, [], epochs=epochs, batch_size=batch_size, seed=0)

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
            with record():
                taps = dict(model.stages(x))
                logits = taps["head"]
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


def base64_step_inputs(batch):
    model = build_model(ModelConfig.for_variant("base", input_size=64), seed=0)
    model.train()
    rng = np.random.default_rng(7)
    x = Tensor(rng.standard_normal((batch, 3, 64, 64)).astype(np.float32))
    y = Tensor((rng.random((batch, 1, 64, 64)) > 0.5).astype(np.float32))
    return model, x, y


def full_tape_backward(graph, outputs, loss):
    """Reverse sweep that routes every gradient by the id of the Tensor it
    flows to, over a tape whose outputs are all kept alive, and accumulates
    in sweep order, as backward did before the tape held keys; returns
    {id(leaf): gradient}."""
    tensor_of = lambda t: outputs[t.key] if isinstance(t, T._Ref) else t  # noqa: E731
    flows = {id(loss): [loss, np.ones_like(loss.data)]}
    for node in reversed(graph.nodes):
        entry = flows.pop(id(outputs[node.key]), None)
        if entry is None:
            continue
        for t, gi in zip(map(tensor_of, node.inputs), node.bwd(entry[1])):
            if gi is None or not t.requires_grad:
                continue
            cur = flows.get(id(t))
            if cur is None:
                flows[id(t)] = [t, gi]
            else:
                cur[1] = cur[1] + gi
    return {tid: arr for tid, (_, arr) in flows.items()}


class TestTapeHoldsWhatBackwardReads:
    def test_step_gradients_bitwise_equal_to_full_tape_sweep(self, monkeypatch):
        # freeing the intermediates no closure reads changes no bit of the
        # loss or of any parameter gradient
        model, x, y = base64_step_inputs(8)
        with record():
            loss = seg_loss(model(x), y).total
            model.zero_grad()
            backward(loss)
        grads = {name: p.grad.copy() for name, p in model.named_parameters()}

        outputs = {}
        record_out = T._out

        def keep_out(*args):
            t = record_out(*args)
            outputs[t._key] = t
            return t

        monkeypatch.setattr(T, "_out", keep_out)
        with record() as g:
            loss2 = seg_loss(model(x), y).total
            ref = full_tape_backward(g, outputs, loss2)
        assert loss2.data.tobytes() == loss.data.tobytes()
        for name, p in model.named_parameters():
            assert ref[id(p)].tobytes() == grads[name].tobytes(), name

    def test_step_peak_memory(self):
        # forward, loss and backward of a Base@64, batch-8 step inside
        # record(); holding every activation until the block exits peaked
        # at 136.8 MB
        model, x, y = base64_step_inputs(8)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with record():
                terms = seg_loss(model(x), y)
                model.zero_grad()
                backward(terms.total)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 100e6, f"step peak {peak / 1e6:.1f} MB"

    @pytest.mark.parametrize("steps", [1, 2])
    def test_step_peak_memory_with_consumed_tape(self, steps):
        # backward frees each node as it consumes it and max-pool keeps only
        # its winner offsets: 63.3 MB, against 78.7 MB with a tape held whole
        # until the record() block exits; the last of several steps, measured
        # from what the earlier ones left, peaks no higher than the first
        model, x, y = base64_step_inputs(8)
        tracemalloc.start()
        try:
            for step in range(steps):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                with record():
                    terms = seg_loss(model(x), y)
                    model.zero_grad()
                    backward(terms.total)
                peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 70e6, f"step peak {peak / 1e6:.1f} MB"

    def test_dense_conv_input_freed_when_backward_returns(self, rng):
        # backward pops the conv's node, and with it the input array its
        # closure kept, before the record() block exits
        ad = SkipAdapter(8, 8, pool=False)
        ad.train()
        x = Tensor(rng.standard_normal((2, 8, 8, 8)).astype(np.float32), requires_grad=True)
        with record():
            h = ad.bn1(T.relu(ad.conv1(x)))
            ref = weakref.ref(h.data)
            out = ad.conv2(h)
            del h
            assert ref() is not None
            backward(T.tsum(T.mul(out, out)))
            assert ref() is None
        assert ad.conv2.weight.grad is not None

    def test_gelu_output_freed_once_batchnorm_consumed_it(self, rng):
        # BatchNorm's backward reads only xhat, and GELU's only dGELU/dx
        blk = ConvUtrBlock(8, 3)
        blk.train()
        x = Tensor(rng.standard_normal((2, 8, 8, 8)).astype(np.float32), requires_grad=True)
        with record():
            h = T.gelu(blk.dw(x))
            refs = [weakref.ref(h), weakref.ref(h.data)]
            out = blk.bn1(h)
            del h
            assert [r() for r in refs] == [None, None]
            backward(T.tsum(T.mul(out, out)))
        assert x.grad.shape == x.shape and np.all(np.isfinite(x.grad))
        assert blk.dw.weight.grad is not None and blk.bn1.gamma.grad is not None

    def test_dense_conv_tape_keeps_input_not_a_copy(self, rng):
        # the dense conv's backward restages its input windows from the input
        # array itself: the tape pins that array, not the Tensor around it,
        # and no padded copy
        ad = SkipAdapter(8, 8, pool=False)
        ad.train()
        x = Tensor(rng.standard_normal((2, 8, 8, 8)).astype(np.float32), requires_grad=True)
        with record() as graph:
            h = ad.bn1(T.relu(ad.conv1(x)))
            refs = [weakref.ref(h), weakref.ref(h.data)]
            out = ad.conv2(h)
            del h
            assert refs[0]() is None and refs[1]() is not None
            backward(T.tsum(T.mul(out, out)))
        del graph
        assert refs[1]() is None
        assert x.grad.shape == x.shape and np.all(np.isfinite(x.grad))
        assert ad.conv2.weight.grad is not None and ad.bn1.gamma.grad is not None

    def test_conv_nodes_expose_input_shapes(self):
        # tracers read node.inputs[0].shape and [1].shape on every conv2d node,
        # whether the input is a leaf Tensor or a stand-in for an activation
        model, x, y = base64_step_inputs(1)
        with record() as g:
            seg_loss(model(x), y)
        convs = [n for n in g.nodes if n.op == "conv2d"]
        assert convs
        kinds = set()
        for node in convs:
            xs, ws = node.inputs[0].shape, node.inputs[1].shape
            assert len(xs) == 4 and len(ws) == 4 and xs[1] % ws[1] == 0
            kinds.add(type(node.inputs[0]))
        assert kinds == {Tensor, T._Ref}
