"""CLI surface: flags, outputs, determinism, exit codes."""

import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

import muvit
from muvit import accounting
from muvit.cli import _config_from_flags, _latency_tail, make_parser, run_cli
from muvit.data import config_doc_dumps
from muvit.model import ModelConfig


def tree_digest(root):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


class TestSynthCommand:
    def test_deterministic_directory_contents(self, tmp_path, capsys):
        d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert run_cli(["synth", "--seed", "7", "--n", "4", "--size", "64",
                        "--out", d1]) == 0
        assert run_cli(["synth", "--seed", "7", "--n", "4", "--size", "64",
                        "--out", d2]) == 0
        assert tree_digest(d1) == tree_digest(d2)

    def test_nan_difficulty_exits_1_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "ds"
        assert run_cli(["synth", "--seed", "1", "--n", "2", "--size", "32",
                        "--difficulty", "nan", "--out", str(out)]) == 1
        assert "difficulty nan" in capsys.readouterr().err
        assert not out.exists()

    def test_layout(self, tmp_path):
        out = str(tmp_path / "ds")
        run_cli(["synth", "--seed", "1", "--n", "2", "--size", "64", "--out", out])
        assert sorted(os.listdir(os.path.join(out, "images"))) == ["0000.ppm", "0001.ppm"]
        assert sorted(os.listdir(os.path.join(out, "masks"))) == ["0000.pgm", "0001.pgm"]


class TestBuildAndEval:
    def test_build_eval_cycle(self, tmp_path, capsys):
        ckpt = str(tmp_path / "m.ckpt")
        data = str(tmp_path / "ds")
        assert run_cli(["build", "--variant", "base", "--size", "64", "--out", ckpt]) == 0
        assert run_cli(["synth", "--seed", "3", "--n", "2", "--size", "64",
                        "--out", data]) == 0
        report = str(tmp_path / "eval.json")
        assert run_cli(["eval", "--ckpt", ckpt, "--data", data, "--json", report]) == 0
        with open(report) as f:
            rec = json.load(f)
        assert "mean_iou" in rec and len(rec["samples"]) == 2

    def test_eval_missing_checkpoint_fails(self, tmp_path, capsys):
        assert run_cli(["eval", "--ckpt", str(tmp_path / "nope.ckpt"),
                        "--data", str(tmp_path)]) == 1


class TestCountCommand:
    def test_totals_printed_and_in_band(self, capsys):
        assert run_cli(["count", "--variant", "base", "--size", "256"]) == 0
        out = capsys.readouterr().out
        totals = {line.split()[0]: int(line.split()[1])
                  for line in out.splitlines()
                  if line.startswith(("TOTAL_PARAMS", "TOTAL_MACS", "TOTAL_FLOPS"))}
        assert 1_100_000 <= totals["TOTAL_PARAMS"] <= 1_700_000
        assert totals["TOTAL_FLOPS"] == 2 * totals["TOTAL_MACS"]

    def test_json_report(self, tmp_path, capsys):
        path = str(tmp_path / "count.json")
        assert run_cli(["count", "--variant", "base", "--size", "64",
                        "--json", path]) == 0
        with open(path) as f:
            rec = json.load(f)
        assert rec["total_flops"] == 2 * rec["total_macs"]
        assert any(r["name"] == "enc1.proj" for r in rec["flops"])

    def test_ablation_flags(self, capsys):
        assert run_cli(["count", "--variant", "base", "--size", "64",
                        "--skip-mode", "none", "--downsample-mode", "conv",
                        "--kernels", "3,3,3", "--literal-eq2"]) == 0

    def test_no_model_flags_is_the_default_config(self):
        cfg = _config_from_flags(make_parser().parse_args(["count"]))
        assert dataclasses.asdict(cfg) == dataclasses.asdict(ModelConfig())

    def test_both_sections_print_the_closed_form_params(self, capsys):
        assert run_cli(["count", "--size", "64"]) == 0
        params, macs = capsys.readouterr().out.split("multiply-accumulates:")
        assert "total params (trainable): 1419793\n" in params
        assert "total params (trainable): 1419793\n" in macs

    def test_closed_form_mismatch_is_runtime_error(self, monkeypatch, capsys):
        real = accounting.count_flops

        def off_by_one(cfg, input_size=None):
            rep = real(cfg, input_size)
            return dataclasses.replace(rep, total_params=rep.total_params + 1)

        monkeypatch.setattr(accounting, "count_flops", off_by_one)
        assert run_cli(["count", "--size", "64"]) == 1
        assert "error: parameter accounting mismatch" in capsys.readouterr().err


class TestTrainCommand:
    def test_train_from_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(config_doc_dumps({
            "variant": "base", "input_size": 64, "seed": 5, "epochs": 1,
            "batch": 4, "lr0": 0.05}))
        ckpt = str(tmp_path / "t.ckpt")
        log = str(tmp_path / "t.log")
        assert run_cli(["train", "--config", str(cfg_path), "--synth", "9,8",
                        "--out", ckpt, "--log", log]) == 0
        assert os.path.exists(ckpt)
        with open(log) as f:
            lines = [json.loads(line) for line in f]
        assert any("val_iou" in r for r in lines)

    def test_val_data_with_synth_keeps_every_synth_sample_for_training(self, tmp_path, capsys):
        val = str(tmp_path / "val")
        assert run_cli(["synth", "--seed", "2", "--n", "2", "--size", "32", "--out", val]) == 0
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(config_doc_dumps({"input_size": 32, "epochs": 1, "batch": 5}))
        assert run_cli(["train", "--config", str(cfg_path), "--synth", "1,10",
                        "--val-data", val, "--out", str(tmp_path / "t.ckpt")]) == 0
        assert "trained 1 epochs on 10 samples" in capsys.readouterr().out

    def test_val_data_of_another_size_exits_1_before_the_first_step(self, tmp_path, capsys):
        val = str(tmp_path / "val")
        assert run_cli(["synth", "--seed", "2", "--n", "2", "--size", "32", "--out", val]) == 0
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(config_doc_dumps({"input_size": 64, "epochs": 1, "batch": 8}))
        log = tmp_path / "t.log"
        assert run_cli(["train", "--config", str(cfg_path), "--synth", "3,40", "--val-data", val,
                        "--out", str(tmp_path / "t.ckpt"), "--log", str(log)]) == 1
        assert "error: validation sample '0000' is 32x32" in capsys.readouterr().err
        assert not log.exists()

    def test_diverging_run_is_runtime_error(self, tmp_path, capsys):
        # the overflow on the way raises no warning, so the layer is named
        # under -W error too; nine training samples give five steps in the
        # first epoch, and the loss turns non-finite within them
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(config_doc_dumps({"input_size": 32, "epochs": 2, "batch": 2,
                                              "lr0": 1e6}))
        assert run_cli(["train", "--config", str(cfg_path), "--synth", "1,11",
                        "--out", str(tmp_path / "t.ckpt")]) == 1
        assert "error: non-finite loss at step" in capsys.readouterr().err

    def test_nonfinite_state_after_an_epoch_is_runtime_error(self, tmp_path, capsys):
        # the loss stays finite through the epoch's three steps, but the last
        # update overflows BatchNorm running variances; nothing is saved
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(config_doc_dumps({"input_size": 32, "epochs": 1, "batch": 2,
                                              "lr0": 1e6}))
        out = tmp_path / "t.ckpt"
        assert run_cli(["train", "--config", str(cfg_path), "--synth", "1,6",
                        "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "proj5_bn.running_var" in err and "epoch 0" in err
        assert not out.exists()

    def test_diverging_run_names_its_layer(self, tmp_path, capsys):
        # at 64x64 GELU runs over several chunks; the layer is still named,
        # and no warning raised under -W error
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(config_doc_dumps({"input_size": 64, "epochs": 2, "batch": 2,
                                              "lr0": 1e6}))
        assert run_cli(["train", "--config", str(cfg_path), "--synth", "1,11",
                        "--out", str(tmp_path / "t.ckpt")]) == 1
        assert re.search(r"; first non-finite layer: (enc[1-5]|adapt[1-3]|dec[1-5]|head)\n",
                         capsys.readouterr().err)


class TestGradcheckCommand:
    def test_ops_scope_passes(self, capsys):
        assert run_cli(["gradcheck", "--scope", "ops"]) == 0
        assert "all checks within threshold" in capsys.readouterr().out

    def test_absurd_threshold_fails_with_exit_1(self, capsys):
        assert run_cli(["gradcheck", "--scope", "ops", "--threshold", "1e-30"]) == 1


class TestWithoutScipy:
    SCRIPT = """
import sys
sys.modules["scipy"] = None   # any import of scipy or its submodules now fails
import muvit
from muvit.cli import run_cli
from muvit.data import config_doc_dumps
out = sys.argv[1]
with open(out + "/run.cfg", "w") as f:
    f.write(config_doc_dumps({"input_size": 32, "epochs": 1, "batch": 2}))
codes = [run_cli(argv) for argv in (
    ["synth", "--seed", "1", "--n", "2", "--size", "32", "--out", out + "/s"],
    ["count", "--size", "64"],
    ["train", "--config", out + "/run.cfg", "--synth", "1,6", "--out", out + "/t.ckpt"],
    ["gradcheck", "--scope", "ops"],
)]
print(codes)
"""

    def test_commands_run_with_scipy_blocked(self, tmp_path):
        # numpy is muvit's only run-time dependency
        src = os.path.dirname(os.path.dirname(os.path.abspath(muvit.__file__)))
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        r = subprocess.run([sys.executable, "-c", self.SCRIPT, str(tmp_path)], env=env,
                           capture_output=True, text=True, timeout=600)
        assert r.returncode == 0, r.stderr
        assert r.stdout.splitlines()[-1] == "[0, 0, 0, 0]", r.stdout + r.stderr


class TestBenchCommand:
    def test_bench_reports_latency(self, tmp_path, capsys):
        ckpt = str(tmp_path / "m.ckpt")
        run_cli(["build", "--variant", "base", "--size", "64", "--out", ckpt])
        capsys.readouterr()
        assert run_cli(["bench", "--ckpt", ckpt, "--iters", "3"]) == 0
        out = capsys.readouterr().out
        # three runs have no p95 of their own: the slowest is printed as max
        assert " max " in out and "p95" not in out and "not comparable" in out

    @pytest.mark.parametrize("n,label,value", [
        (1, "max", 0), (10, "max", 9), (200, "max", 199),  # at most 9 runs above index 0.95n
        (201, "p95", 190), (1000, "p95", 950),
    ])
    def test_bench_tail_is_p95_only_with_ten_runs_above_it(self, n, label, value):
        assert _latency_tail(list(range(n))) == (label, value)


class TestUsageErrors:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["build", "--variant", "base"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv,flag", [
        (["bench", "--ckpt", "m.ckpt", "--iters", "0"], "--iters"),
        (["bench", "--ckpt", "m.ckpt", "--iters", "-1"], "--iters"),
        (["bench", "--ckpt", "m.ckpt", "--batch", "0"], "--batch"),
        (["bench", "--ckpt", "m.ckpt", "--batch", "two"], "--batch"),
        (["eval", "--ckpt", "m.ckpt", "--data", "ds", "--batch", "0"], "--batch"),
    ])
    def test_nonpositive_counts_exit_2_naming_the_flag(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}" in err and "positive integer" in err

    @pytest.mark.parametrize("value", ["abc", "1", "1,2,3", "1,x"])
    def test_malformed_synth_exits_2_naming_the_flag(self, tmp_path, capsys, value):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(config_doc_dumps({"input_size": 64, "epochs": 1, "batch": 4}))
        with pytest.raises(SystemExit) as exc:
            run_cli(["train", "--config", str(cfg_path), "--synth", value,
                     "--out", str(tmp_path / "m.ckpt")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --synth" in err and "SEED,N" in err

    @pytest.mark.parametrize("argv,flag,expected", [
        (["synth", "--seed", "-1", "--n", "1", "--size", "32", "--out", "x"], "--seed",
         "non-negative integer"),
        (["synth", "--seed", "1", "--n", "-2", "--size", "32", "--out", "x"], "--n",
         "positive integer"),
        (["synth", "--seed", "1", "--n", "0", "--size", "32", "--out", "x"], "--n",
         "positive integer"),
        (["build", "--seed", "-1", "--out", "x"], "--seed", "non-negative integer"),
        (["gradcheck", "--seed", "-1"], "--seed", "non-negative integer"),
        (["train", "--config", "c", "--synth=-1,5", "--out", "x"], "--synth",
         "non-negative integers SEED,N"),
    ])
    def test_negative_seeds_and_counts_exit_2_naming_the_flag(self, capsys, argv, flag,
                                                              expected):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}" in err and expected in err

    def test_bad_size_is_runtime_error(self, capsys):
        assert run_cli(["count", "--variant", "base", "--size", "100"]) == 1
