"""The benchmark's workloads: closed loops, one caller, Base variant, f32.

train64   - training.train_loop at 64x64, batch 8; an iteration is one SGD step.
eval256   - eval-mode forward at 256x256, batch 1; an iteration is one forward.
evalset64 - the `muvit eval` path: dataset and checkpoint written and read
            back during set-up; an iteration is metrics.evaluate on 8 images.

Inputs come from the workload seed; model weights from a fixed seed, so the
f64 reference error and the MAC counts do not depend on the workload seed.
"""

import math
import os
import time
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from muvit import data, metrics, training
from muvit import tensor as T
from muvit.model import ModelConfig, build_model

import checks
import reference
from spans import Tracer, patched_attr, stage_of, wrapped_units

MODEL_SEED = 0
BATCH = 8
# 0.5 * BCE + Dice with probabilities clamped to [c, 1 - c]: BCE <= -log(c), Dice <= 1
LOSS_MAX = 0.5 * -math.log(training.BCE_CLAMP) + 1.0

now = time.perf_counter


@dataclass
class Phase:
    """One timed phase: per-iteration wall times, the reference time measured
    right after each iteration, and what succeeded."""
    durations: list = field(default_factory=list)
    ref_durations: list = field(default_factory=list)
    images: int = 0
    attempted: int = 0
    failed: int = 0
    wall: float = 0.0
    errors: list = field(default_factory=list)

    def fail(self, msg):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(msg)

    def ratios(self):
        """Each iteration's time over the reference time that followed it."""
        return [d / r for d, r in zip(self.durations, self.ref_durations)]

    def program_s(self):
        """Wall time of the phase minus the time spent in the reference."""
        return self.wall - sum(self.ref_durations)


def time_reference(batch, size, tracer=None):
    """Seconds one reference pass takes; a span of its own when traced, so
    that it is not counted in the self time of a muvit span around it."""
    span = tracer.begin(reference.SPAN) if tracer is not None else None
    t0 = now()
    reference.run(batch, size)
    dt = now() - t0
    if span is not None:
        tracer.end(span)
    return dt


def state_arrays(model):
    return {k: (v.data if isinstance(v, T.Tensor) else v) for k, v in model.named_state().items()}


def timed(data_ms, key, fn, *args):
    """fn(*args), with its wall time stored in data_ms[key] in milliseconds."""
    t0 = now()
    out = fn(*args)
    data_ms[key] = (now() - t0) * 1e3
    return out


def _tensor_images(samples):
    return T.Tensor(np.stack([data.standardize(s.image) for s in samples]))


def _logits_error(logits, shape):
    if tuple(logits.shape) != shape:
        return f"logits shape {tuple(logits.shape)} != {shape}"
    if not np.all(np.isfinite(logits.data)):
        return "non-finite logits"
    return None


def peak_bytes(fn):
    """tracemalloc peak over one call of fn, above what was live before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def stage_peaks(model, fn):
    """Per stage, the highest traced memory while it ran, above the level at fn start."""
    peaks = {}

    def make(path, key, fwd):
        def measured(*args, **kwargs):
            tracemalloc.reset_peak()
            out = fwd(*args, **kwargs)
            stage = stage_of(key)
            peaks[stage] = max(peaks.get(stage, 0), tracemalloc.get_traced_memory()[1] - base)
            return out
        return measured

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with wrapped_units(model, make):
            fn()
    finally:
        tracemalloc.stop()
    return peaks


class Workload:
    name = ""
    size = 64
    images_per_iter = BATCH

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.model = None

    def warmup_reference(self):
        reference.run(self.images_per_iter, self.size)

    def config(self):
        return ModelConfig.for_variant("base", input_size=self.size)

    def run(self, seconds, tracer=None):
        """Closed loop: iterate until `seconds` have passed, timing the
        reference on a batch of the workload's shape after each iteration."""
        phase = Phase()
        t0 = now()
        i = 0
        while now() - t0 < seconds:
            start = now()
            try:
                err = self.iterate(i)
            except Exception as e:   # a failing iteration is counted, not fatal
                err = f"{type(e).__name__}: {e}"
            phase.durations.append(now() - start)
            phase.ref_durations.append(time_reference(self.images_per_iter, self.size, tracer))
            phase.attempted += 1
            if err:
                phase.fail(err)
            else:
                phase.images += self.images_per_iter
            if tracer is not None:
                tracer.iteration += 1
            i += 1
        phase.wall = now() - t0
        return phase

    def noninterference(self, model, x):
        """Probe logits with tracing off and on must be bitwise equal."""
        plain = checks.digest(model(x).data)
        with Tracer().installed(model):
            traced = checks.digest(model(x).data)
        return plain == traced, {"untraced": plain, "traced": traced}


class Train64(Workload):
    name = "train64"
    n_train = 32

    def setup(self, rep):
        data_ms = {}
        samples = timed(data_ms, "synth_dataset", data.synth_dataset,
                        self.seed, self.n_train + BATCH, self.size)
        self.train_set, self.val_set = samples[:self.n_train], samples[self.n_train:]
        self.model = build_model(self.config(), seed=MODEL_SEED)
        return data_ms

    def _train(self, model, train_set, val_set):
        return training.train_loop(model, train_set, val_set, epochs=1,
                                   batch_size=BATCH, seed=self.seed)

    def warmup(self):
        self._train(self.model, self.train_set[:BATCH], self.val_set)

    def run(self, seconds, tracer=None):
        """Repeated one-epoch train_loop calls. Step times are the intervals
        between successive SGD.step returns, less the reference timed right
        after each return; the first step of each call is timed from the
        call, so the validation pass falls between steps."""
        phase = Phase()
        marks, resumes = [], []

        def timed_step(opt, lr, _step=training.SGD.step):
            _step(opt, lr)
            marks.append(now())
            phase.ref_durations.append(time_reference(self.images_per_iter, self.size, tracer))
            resumes.append(now())
            if tracer is not None:
                tracer.iteration += 1

        with patched_attr(training.SGD, "step", timed_step):
            t0 = now()
            while now() - t0 < seconds:
                start, first = now(), len(marks)
                try:
                    history = self._train(self.model, self.train_set, self.val_set).history
                    err = None
                except Exception as e:
                    history, err = [], f"{type(e).__name__}: {e}"
                steps = marks[first:]
                phase.durations += [m - r for m, r in zip(steps, [start] + resumes[first:])]
                phase.attempted += len(steps)
                for rec in history:
                    if not 0.0 < rec["total"] <= LOSS_MAX:
                        phase.fail(f"step loss {rec['total']!r} outside (0, {LOSS_MAX:.3f}]")
                    else:
                        phase.images += BATCH
                if err:
                    phase.attempted += 1
                    phase.fail(err)
        phase.wall = now() - t0
        return phase

    def memory_iteration(self):
        self._train(self.model, self.train_set[:BATCH], [])

    def probe_forward(self, model):
        images, _ = checks.probe_batch(BATCH, self.size)
        model.train()

        def fwd():
            with T.record():
                model(T.Tensor(images))
        return fwd

    def run_checks(self):
        images, masks = checks.probe_batch(BATCH, self.size)
        out = []
        out.append(("ref_f64", *checks.ref_train(
            build_model(self.config(), seed=MODEL_SEED), images, masks)))
        m = build_model(self.config(), seed=MODEL_SEED)
        ok, detail = checks.stage_mac_check(m, self.probe_forward(m), BATCH)
        out.append(("stage_macs", ok, detail))
        probe_set = data.synth_dataset(0, BATCH, self.size)
        firsts = []
        for traced in (False, True):
            m = build_model(self.config(), seed=MODEL_SEED)
            with Tracer().installed(m) if traced else nullcontext():
                loss = self._train(m, probe_set, []).history[0]["total"]
            firsts.append((loss, checks.digest(np.concatenate(
                [p.data.ravel() for p in m.parameters()]))))
        out.append(("trace_noninterference", firsts[0] == firsts[1],
                    {"untraced": firsts[0], "traced": firsts[1]}))
        return out


class Eval256(Workload):
    name = "eval256"
    size = 256
    images_per_iter = 1
    n_inputs = 8

    def setup(self, rep):
        data_ms = {}
        samples = timed(data_ms, "synth_dataset", data.synth_dataset,
                        self.seed, self.n_inputs, self.size)
        self.inputs = [_tensor_images([s]) for s in samples]
        self.model = build_model(self.config(), seed=MODEL_SEED)
        self.model.eval()
        self.expected = {}
        return data_ms

    def warmup(self):
        self.model(self.inputs[0])

    def iterate(self, i):
        k = i % self.n_inputs
        logits = self.model(self.inputs[k])
        err = _logits_error(logits, (1, 1, self.size, self.size))
        if err:
            return err
        d = checks.digest(logits.data)
        if self.expected.setdefault(k, d) != d:
            return f"input {k}: logits differ from its first forward"
        return None

    def memory_iteration(self):
        self.model(self.inputs[0])

    def probe_forward(self, model):
        x = T.Tensor(checks.probe_batch(1, self.size)[0])
        model.eval()
        return lambda: model(x)

    def run_checks(self):
        images, _ = checks.probe_batch(1, self.size)
        out = []
        out.append(("ref_f64", *checks.ref_logits(self.model, images)))
        ok, detail = checks.stage_mac_check(self.model, self.probe_forward(self.model), 1)
        out.append(("stage_macs", ok, detail))
        ok, detail = self.noninterference(self.model, T.Tensor(images))
        out.append(("trace_noninterference", ok, detail))
        return out


def _eval_error(res, n):
    if len(res.per_sample) != n:
        return f"{len(res.per_sample)} sample results for {n} images"
    for s in res.per_sample:
        union = s.pred_size + s.gt_size - s.intersection
        iou = s.intersection / union if union else 1.0
        f1 = 2 * s.intersection / (s.pred_size + s.gt_size) if union else 1.0
        if not (0 <= s.intersection <= min(s.pred_size, s.gt_size)) or s.iou != iou or s.f1 != f1:
            return f"inconsistent sample metrics {s}"
    return None


class EvalSet64(Workload):
    name = "evalset64"
    n_samples = 64

    def setup(self, rep):
        data_ms = {}
        samples = timed(data_ms, "synth_dataset", data.synth_dataset,
                        self.seed, self.n_samples, self.size)
        ds_dir = os.path.join(self.workdir, f"dataset{rep}")
        timed(data_ms, "save_dataset", data.save_dataset, samples, ds_dir)
        loaded = timed(data_ms, "load_dataset", data.load_dataset, ds_dir)
        self.batches = [loaded[j:j + BATCH] for j in range(0, len(loaded), BATCH)]

        cfg = self.config()
        self.built = build_model(cfg, seed=MODEL_SEED)
        ckpt = os.path.join(self.workdir, f"model{rep}.ckpt")
        doc = data.doc_from_model_config(cfg, seed=MODEL_SEED)
        timed(data_ms, "save_checkpoint", data.save_checkpoint, ckpt, doc,
              state_arrays(self.built))
        doc, tensors, _ = timed(data_ms, "load_checkpoint", data.load_checkpoint, ckpt)
        data_ms["checkpoint_mb"] = os.path.getsize(ckpt) / 1e6
        self.model = build_model(data.model_config_from_doc(doc), seed=doc["seed"])
        data.load_model_state(self.model, tensors)
        self.expected = {}
        return data_ms

    def warmup(self):
        metrics.evaluate(self.model, self.batches[0], batch_size=BATCH)

    def iterate(self, i):
        k = i % len(self.batches)
        batch = self.batches[k]
        res = metrics.evaluate(self.model, batch, batch_size=BATCH)
        err = _eval_error(res, len(batch))
        if err:
            return err
        if not math.isfinite(res.mean_iou):
            return "non-finite mean IoU"
        rec = res.to_records()
        if self.expected.setdefault(k, rec) != rec:
            return f"batch {k}: metrics differ from its first evaluation"
        return None

    def memory_iteration(self):
        metrics.evaluate(self.model, self.batches[0], batch_size=BATCH)

    def probe_forward(self, model):
        x = T.Tensor(checks.probe_batch(BATCH, self.size)[0])
        model.eval()
        return lambda: model(x)

    def run_checks(self):
        images, _ = checks.probe_batch(BATCH, self.size)
        x = T.Tensor(images)
        out = []
        out.append(("ref_f64", *checks.ref_logits(self.model, images)))
        ok, detail = checks.stage_mac_check(self.model, self.probe_forward(self.model), BATCH)
        out.append(("stage_macs", ok, detail))
        ok, detail = self.noninterference(self.model, x)
        out.append(("trace_noninterference", ok, detail))
        self.built.eval()
        before, after = checks.digest(self.built(x).data), checks.digest(self.model(x).data)
        out.append(("checkpoint_roundtrip", before == after, {"built": before, "loaded": after}))
        return out


WORKLOADS = {w.name: w for w in (Train64, Eval256, EvalSet64)}
