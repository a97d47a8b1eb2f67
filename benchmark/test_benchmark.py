"""Tests of the benchmark's own logic.

    python3 -m pytest benchmark/test_benchmark.py -q
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from muvit import accounting, data  # noqa: E402
from muvit import tensor as T  # noqa: E402
from muvit.model import ModelConfig, build_model  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
import report  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


class TestTail:
    def test_exactly_ten_beyond(self):
        d = list(range(1, 41))          # 40 samples
        value, pct, beyond = stats.tail(d)
        assert value == 30 and beyond == 10
        assert sum(x > value for x in d) == 10
        assert pct == pytest.approx(75.0)

    def test_percentile_rises_with_samples(self):
        assert stats.tail(list(range(100)))[1] == pytest.approx(90.0)
        assert stats.tail(list(range(200)))[1] == pytest.approx(95.0)

    def test_order_does_not_matter(self):
        rng = np.random.default_rng(0)
        d = list(rng.random(57))
        assert stats.tail(d) == stats.tail(sorted(d, reverse=True))

    def test_too_few_samples_gives_max_with_none_beyond(self):
        assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


class TestSelfTime:
    def test_nested_spans(self):
        # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9]
        starts = [0.0, 1.0, 2.0, 5.0]
        ends = [10.0, 4.0, 3.0, 9.0]
        parents = [-1, 0, 1, 0]
        assert stats.self_times(starts, ends, parents) == [3.0, 2.0, 1.0, 4.0]
        assert stats.leaf_mask(4, parents) == [False, False, True, True]

    def test_tracer_records_parents_and_iterations(self):
        clock = iter(range(100)).__next__
        tr = spans.Tracer(clock=clock)
        outer = tr.begin("outer")
        tr.wrap("inner", lambda: None)()
        tr.iteration = 1
        tr.wrap("inner", lambda: None)()
        tr.end(outer)
        assert tr.parents == [-1, 0, 0]
        assert tr.iters == [0, 0, 1]
        own = stats.self_times(tr.starts, tr.ends, tr.parents)
        assert own == [(tr.ends[0] - tr.starts[0]) - 2, 1, 1]


class TestReference:
    def test_same_result_every_pass(self):
        assert reference.run(2, 32) == reference.run(2, 32)

    def test_set_up_time_at_nominal_speed(self):
        nominal = reference.NOMINAL_S
        assert reference.at_nominal_speed(3.0, nominal) == pytest.approx(3.0)
        assert reference.at_nominal_speed(3.0, 2 * nominal) == pytest.approx(1.5)

    def test_ratios_pair_each_iteration_with_the_reference_after_it(self):
        phase = workloads.Phase(durations=[2.0, 3.0], ref_durations=[1.0, 2.0], wall=9.0)
        assert phase.ratios() == [2.0, 1.5]
        assert phase.program_s() == 6.0

    def test_every_iteration_is_followed_by_a_reference(self, tmp_path, monkeypatch):
        wl = workloads.EvalSet64(3, str(tmp_path))
        wl.setup(0)
        monkeypatch.setattr(reference, "run", lambda batch, size: time.sleep(0.05))
        phase = wl.run(0.01)
        assert len(phase.ref_durations) == len(phase.durations) >= 1
        assert min(phase.ref_durations) >= 0.05
        assert sum(phase.durations) + sum(phase.ref_durations) <= phase.wall

    def test_train_steps_exclude_the_reference(self, tmp_path, monkeypatch):
        wl = workloads.Train64(3, str(tmp_path))
        wl.n_train = 2 * workloads.BATCH
        wl.setup(0)
        monkeypatch.setattr(reference, "run", lambda batch, size: time.sleep(0.05))
        phase = wl.run(0.01)
        assert len(phase.durations) == len(phase.ref_durations) == 2
        assert min(phase.ref_durations) >= 0.05
        assert sum(phase.durations) + sum(phase.ref_durations) <= phase.wall

    def test_traced_reference_is_not_layer_time(self):
        tr = spans.Tracer(clock=iter(range(100)).__next__)
        loop = tr.begin("training.train_loop")
        workloads.time_reference(2, 32, tr)
        tr.end(loop)
        totals = report.SpanTotals(tr)
        assert tr.names == ["training.train_loop", reference.SPAN]
        assert totals.own["training.train_loop"] == 2 and totals.leaf_s == 0
        roof = {"sgemm_gflop_s": 1.0, "copy_gb_s": 1.0}
        assert [r["name"] for r in report.top_table(totals, 1, roof)] == ["training.train_loop"]


class TestSeededInputs:
    def test_same_seed_same_bytes(self, tmp_path):
        a = workloads.EvalSet64(7, str(tmp_path / "a"))
        b = workloads.EvalSet64(7, str(tmp_path / "b"))
        a.setup(0)
        b.setup(0)
        for ba, bb in zip(a.batches, b.batches):
            for sa, sb in zip(ba, bb):
                assert sa.image.tobytes() == sb.image.tobytes()
                assert sa.mask.tobytes() == sb.mask.tobytes()
        fa = sorted(os.listdir(tmp_path / "a" / "dataset0" / "images"))
        for name in fa:
            with open(tmp_path / "a" / "dataset0" / "images" / name, "rb") as f1, \
                    open(tmp_path / "b" / "dataset0" / "images" / name, "rb") as f2:
                assert f1.read() == f2.read()

    def test_other_seed_other_bytes(self):
        a = data.synth_dataset(1, 2, 64)
        b = data.synth_dataset(2, 2, 64)
        assert a[0].image.tobytes() != b[0].image.tobytes()


class TestStageMap:
    def test_examples(self):
        assert spans.unit_key("enc4.0") == "enc4.block0"
        assert spans.unit_key("enc5.2") == "enc5.block2"
        assert spans.unit_key("dec.0") == "dec1"
        assert spans.unit_key("dec.4") == "dec5"
        assert spans.unit_key("proj4_bn") == "proj4"
        assert spans.unit_key("enc1") == "enc1"
        assert spans.row_key("enc4.block0.attn.qk") == "enc4.block0"
        assert spans.row_key("enc1.block0.dw") == "enc1"
        assert spans.row_key("dec1.conv") == "dec1"

    def test_unknown_unit_rejected(self):
        with pytest.raises(KeyError):
            spans.unit_key("pos_embed_mlp")
        with pytest.raises(KeyError):
            spans.unit_key("adapt1.0")

    @pytest.mark.parametrize("skip_mode", ["skip3", "horizontal", "none"])
    def test_every_unit_and_row_maps_to_a_stage(self, skip_mode):
        cfg = ModelConfig.for_variant("base", input_size=64, skip_mode=skip_mode)
        model = build_model(cfg, seed=0)
        units = {spans.unit_key(p) for p, _ in spans.model_units(model)}
        rows = set(checks.analytic_unit_macs(cfg, 64, 1))
        assert rows <= units
        assert {spans.stage_of(k) for k in units} <= set(spans.STAGES)

    def test_stage_macs_match_count_flops(self):
        cfg = ModelConfig.for_variant("base", input_size=64)
        model = build_model(cfg, seed=0)
        model.eval()
        x = T.Tensor(np.zeros((2, 3, 64, 64), dtype=np.float32))
        ok, detail = checks.stage_mac_check(model, lambda: model(x), 2)
        assert ok, detail
        assert detail["total"] == 2 * accounting.count_flops(cfg, 64).countable_macs()

    def test_stage_mac_mismatch_is_reported(self):
        cfg = ModelConfig.for_variant("base", input_size=64)
        model = build_model(cfg, seed=0)
        model.eval()
        x = T.Tensor(np.zeros((1, 3, 64, 64), dtype=np.float32))
        ok, detail = checks.stage_mac_check(model, lambda: model(x), 2)   # wrong batch
        assert not ok and detail["mismatch"]


class TestTracer:
    def test_patches_removed_and_results_unchanged(self):
        cfg = ModelConfig.for_variant("base", input_size=64)
        model = build_model(cfg, seed=0)
        model.eval()
        x = T.Tensor(np.random.default_rng(0).random((1, 3, 64, 64), dtype=np.float32))
        conv2d, backward = T.conv2d, T.backward
        plain = model(x).data
        tr = spans.Tracer()
        with tr.installed(model):
            traced = model(x).data
        assert T.conv2d is conv2d and T.backward is backward
        assert "forward" not in vars(model) and "forward" not in vars(model.enc1)
        assert plain.tobytes() == traced.tobytes()
        names = set(tr.names)
        assert {"tensor.conv2d.dense.fwd", "tensor.conv2d.dw.fwd", "tensor.conv2d.pw.fwd",
                "model.enc4", "model.dec1", "model.forward"} <= names
        bilinear = sum(m for i, m in tr.op_macs.items()
                       if tr.names[i] == "tensor.bilinear_upsample.fwd")
        assert sum(tr.op_macs.values()) - bilinear == \
            accounting.count_flops(cfg, 64).countable_macs()

    def test_backward_nodes_are_timed(self):
        model = build_model(ModelConfig.for_variant("base", input_size=64), seed=0)
        images, masks = checks.probe_batch(2, 64)
        tr = spans.Tracer()
        with tr.installed(model):
            checks._loss_and_grads(model, images, masks, np.float32)
        assert tr.tape_nodes and tr.tape_nodes[0] > 100
        bwd = [i for i, n in enumerate(tr.names) if n.endswith(".bwd")]
        root = tr.names.index("tensor.backward")
        assert bwd and all(tr.parents[i] == root for i in bwd)


class TestFailureCounting:
    def test_changed_result_is_a_failed_check(self, tmp_path):
        wl = workloads.EvalSet64(3, str(tmp_path))
        wl.setup(0)
        assert wl.iterate(0) is None
        wl.expected[0] = []
        assert "differ" in wl.iterate(0)

    def test_exceptions_count_as_failed_iterations(self, tmp_path):
        wl = workloads.Eval256(3, str(tmp_path))

        def broken(i):
            raise FloatingPointError("forced")
        wl.iterate = broken
        phase = wl.run(0.05)
        assert phase.attempted >= 1 and phase.failed == phase.attempted
        assert phase.images == 0 and "forced" in phase.errors[0]
