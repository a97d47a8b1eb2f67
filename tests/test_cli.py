"""CLI surface: flags, outputs, determinism, exit codes."""

import dataclasses
import hashlib
import json
import os

import pytest

from muvit import accounting, tensor as T
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow on the way
    def test_diverging_run_is_runtime_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(config_doc_dumps({"input_size": 32, "epochs": 2, "batch": 2,
                                              "lr0": 1e6}))
        assert run_cli(["train", "--config", str(cfg_path), "--synth", "1,6",
                        "--out", str(tmp_path / "t.ckpt")]) == 1
        assert "error: non-finite loss at step" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_ops_scope_passes(self, capsys):
        assert run_cli(["gradcheck", "--scope", "ops"]) == 0
        assert "all checks within threshold" in capsys.readouterr().out

    def test_absurd_threshold_fails_with_exit_1(self, capsys):
        assert run_cli(["gradcheck", "--scope", "ops", "--threshold", "1e-30"]) == 1


class TestBenchCommand:
    def test_bench_reports_latency(self, tmp_path, capsys):
        ckpt = str(tmp_path / "m.ckpt")
        run_cli(["build", "--variant", "base", "--size", "64", "--out", ckpt])
        capsys.readouterr()
        assert run_cli(["bench", "--ckpt", ckpt, "--iters", "3"]) == 0
        out = capsys.readouterr().out
        # three runs have no p95 of their own: the slowest is printed as max
        assert " max " in out and "p95" not in out and "not comparable" in out
        workers, source = T.workers()
        blas = f"BLAS threads from {source}" if source else "no BLAS thread variable set"
        assert f"workers {workers} ({blas})" in out

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
