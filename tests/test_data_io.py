"""PNM files, synthetic data generation, checkpoints, config documents."""

import dataclasses
import hashlib
import struct

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from muvit.data import (CONFIG_KEYS, SCHEDULES, ParseError, Sample, _gaussian_blur,
                        config_doc_dumps, config_doc_loads, doc_from_model_config,
                        load_checkpoint, load_dataset, load_model_state, load_pnm,
                        model_config_from_doc, read_image, read_mask,
                        save_checkpoint, save_dataset, synth_dataset, synth_sample,
                        write_image, write_mask)
from muvit.accounting import count_params
from muvit.model import ModelConfig, build_model
from muvit.tensor import ConfigError
from muvit.training import lr_schedule


class TestPNM:
    def test_image_roundtrip_bitwise(self, rng, tmp_path):
        img = (rng.integers(0, 256, (3, 32, 32)) / 255.0).astype(np.float32)
        p = tmp_path / "img.ppm"
        write_image(str(p), img)
        first = p.read_bytes()
        back = read_image(str(p))
        write_image(str(p), back)
        assert p.read_bytes() == first
        np.testing.assert_allclose(back, img, atol=1e-7)

    def test_mask_roundtrip(self, rng, tmp_path):
        mask = (rng.random((1, 32, 32)) > 0.5).astype(np.float32)
        p = tmp_path / "m.pgm"
        write_mask(str(p), mask)
        np.testing.assert_array_equal(read_mask(str(p)), mask)

    def test_header_arithmetic(self, tmp_path):
        p = tmp_path / "tiny.pgm"
        p.write_bytes(b"P5 4 4 255\n" + bytes(range(16)))
        mask = read_mask(str(p))
        assert mask.shape == (1, 4, 4)
        kind, arr = load_pnm(str(p))
        assert kind == "P5" and arr.shape == (4, 4, 1)

    def test_mask_binarized_at_128(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5 2 1 255\n" + bytes([127, 128]))
        np.testing.assert_array_equal(read_mask(str(p))[0, 0], [0.0, 1.0])

    def test_grayscale_replicated_to_rgb(self, tmp_path):
        p = tmp_path / "g.pgm"
        p.write_bytes(b"P5 2 2 255\n" + bytes([0, 85, 170, 255]))
        img = read_image(str(p))
        assert img.shape == (3, 2, 2)
        np.testing.assert_array_equal(img[0], img[1])

    def test_maxval_65535_rejected(self, tmp_path):
        p = tmp_path / "bad.pgm"
        p.write_bytes(b"P5 2 2 65535\n" + bytes(8))
        with pytest.raises(ParseError, match="maxval"):
            load_pnm(str(p))

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.pnm"
        p.write_bytes(b"P3 2 2 255\n0 0 0 0")
        with pytest.raises(ParseError, match="magic"):
            load_pnm(str(p))

    def test_truncated_payload_reports_offset(self, tmp_path):
        p = tmp_path / "trunc.pgm"
        p.write_bytes(b"P5 4 4 255\n" + bytes(7))
        with pytest.raises(ParseError, match="byte offset") as exc:
            load_pnm(str(p))
        assert exc.value.offset == 11 + 7

    def test_overlong_header_field_rejected_with_offset(self, tmp_path):
        # int() refuses more than 4300 digits with a bare ValueError
        p = tmp_path / "long.pgm"
        p.write_bytes(b"P5 " + b"1" * 5000 + b" 1 255\n")
        with pytest.raises(ParseError, match="out of range") as exc:
            load_pnm(str(p))
        assert exc.value.offset == 3

    def test_comments_skipped(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5\n# a comment\n2 2 255\n" + bytes(4))
        _, arr = load_pnm(str(p))
        assert arr.shape == (2, 2, 1)


class TestSynthDataset:
    def test_deterministic_bytes(self):
        a = synth_dataset(seed=7, n=4, size=64)
        b = synth_dataset(seed=7, n=4, size=64)
        for sa, sb in zip(a, b):
            assert sa.image.tobytes() == sb.image.tobytes()
            assert sa.mask.tobytes() == sb.mask.tobytes()

    def test_sample_independent_of_batch(self):
        alone = synth_sample(seed=7, index=3, size=64)
        batch = synth_dataset(seed=7, n=5, size=64)[3]
        assert alone.image.tobytes() == batch.image.tobytes()

    def test_foreground_fraction_bounds(self):
        for s in synth_dataset(seed=11, n=24, size=64):
            assert 0.02 <= s.mask.mean() <= 0.5

    def test_difficulty_zero_intensity_gap(self):
        for s in synth_dataset(seed=13, n=12, size=64, difficulty=0.0):
            fg = s.image[0][s.mask[0] > 0].mean()
            bg = s.image[0][s.mask[0] == 0].mean()
            assert fg - bg >= 0.4

    def test_difficulty_shrinks_gap(self):
        easy = synth_dataset(seed=17, n=8, size=64, difficulty=0.0)
        hard = synth_dataset(seed=17, n=8, size=64, difficulty=1.0)

        def gap(ds):
            gaps = []
            for s in ds:
                gaps.append(s.image[0][s.mask[0] > 0].mean()
                            - s.image[0][s.mask[0] == 0].mean())
            return np.mean(gaps)

        assert gap(hard) < gap(easy)

    def test_masks_binary(self):
        for s in synth_dataset(seed=19, n=4, size=64):
            assert set(np.unique(s.mask)) <= {0.0, 1.0}

    def test_blur_is_bitwise_scipy_gaussian_filter(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(16, 129))
            sigma = rng.uniform(0.8, 2.8)
            m = (rng.random((n, n)) < rng.uniform(0.05, 0.6)).astype(np.float64)
            out, ref = _gaussian_blur(m, sigma), gaussian_filter(m, sigma)
            assert out.shape == ref.shape and out.tobytes() == ref.tobytes(), (n, sigma)

    def test_size_divisibility_enforced(self):
        with pytest.raises(ConfigError):
            synth_dataset(seed=3, n=1, size=60)

    @pytest.mark.parametrize("size,difficulty,message", [
        (0, 0.0, "size 0 is not a positive multiple of 32"),
        (-32, 0.0, "size -32 is not a positive multiple of 32"),
        (32, float("nan"), r"difficulty nan is outside \[0, 1\]"),
        (32, -3.0, "difficulty -3.0 is outside"),
        (32, -1e-9, "difficulty -1e-09 is outside"),
        (32, 1.5, "difficulty 1.5 is outside"),
        (32, float("inf"), "difficulty inf is outside"),
        (32, float("-inf"), "difficulty -inf is outside"),
    ])
    def test_bad_size_or_difficulty_rejected_by_value(self, size, difficulty, message):
        with pytest.raises(ConfigError, match=message):
            synth_sample(seed=3, index=0, size=size, difficulty=difficulty)

    def test_save_load_directory(self, tmp_path):
        ds = synth_dataset(seed=23, n=3, size=64)
        save_dataset(ds, str(tmp_path / "d"))
        back = load_dataset(str(tmp_path / "d"))
        assert len(back) == 3
        np.testing.assert_array_equal(back[0].mask, ds[0].mask)
        np.testing.assert_allclose(back[0].image, ds[0].image, atol=1 / 255 + 1e-7)


class TestConfigDoc:
    def test_roundtrip(self):
        doc = doc_from_model_config(ModelConfig.for_variant("base"), seed=5)
        text = config_doc_dumps(doc)
        back = config_doc_loads(text)
        assert back["variant"] == "base"
        assert back["seed"] == 5
        assert back["kernels"] == (3, 3, 7)
        assert config_doc_dumps(back) == text

    def test_unknown_key_rejected(self):
        text = config_doc_dumps({}) + "dropout = 0.5\n"
        with pytest.raises(ConfigError, match="unknown config key"):
            config_doc_loads(text)

    def test_missing_key_rejected(self):
        text = "\n".join(config_doc_dumps({}).splitlines()[:-1])
        with pytest.raises(ConfigError, match="missing"):
            config_doc_loads(text)

    def test_duplicate_key_rejected(self):
        text = config_doc_dumps({}) + "variant = large\n"
        with pytest.raises(ConfigError, match="duplicate"):
            config_doc_loads(text)

    @pytest.mark.parametrize("key,value", [("input_size", "abc"), ("lr0", "x"),
                                           ("kernels", "3,,7"), ("literal_eq2", "yes")])
    def test_malformed_value_rejected_with_key_and_line(self, key, value):
        lines = config_doc_dumps({}).splitlines()
        lineno = next(i for i, ln in enumerate(lines, start=1) if ln.startswith(key + " "))
        lines[lineno - 1] = f"{key} = {value}"
        with pytest.raises(ConfigError, match=rf"'{key}'.*\(line {lineno}\)"):
            config_doc_loads("\n".join(lines))

    @pytest.mark.parametrize("key,value,expected", [
        ("seed", "-1", "non-negative"), ("epochs", "0", "positive"),
        ("epochs", "-1", "positive"), ("batch", "0", "positive"),
        ("lr0", "nan", "finite"), ("lr0", "inf", "finite"), ("lr0", "0.0", "above 0"),
        ("lr0", "-0.01", "above 0"), ("schedule", "foo", "SCHEDULES"),
    ])
    def test_out_of_range_value_rejected_with_key_and_line(self, key, value, expected):
        lines = config_doc_dumps({}).splitlines()
        lineno = next(i for i, ln in enumerate(lines, start=1) if ln.startswith(key + " "))
        lines[lineno - 1] = f"{key} = {value}"
        with pytest.raises(ConfigError, match=rf"'{key}' must be .*{expected}.*\(line {lineno}\)"):
            config_doc_loads("\n".join(lines))

    @pytest.mark.parametrize("key,value", [("seed", -1), ("batch", 0), ("lr0", float("nan")),
                                           ("schedule", "foo")])
    def test_out_of_range_value_not_written(self, tmp_path, key, value):
        path = tmp_path / "m.ckpt"
        with pytest.raises(ConfigError, match=f"'{key}' must be"):
            save_checkpoint(str(path), {key: value}, {"a": np.zeros(2, dtype=np.float32)})
        assert not path.exists()

    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_every_schedule_round_trips(self, schedule):
        assert config_doc_loads(config_doc_dumps({"schedule": schedule}))["schedule"] == schedule
        assert lr_schedule(schedule, 0, 10, 0.01, warmup=1) >= 0.0

    def test_default_document_text(self):
        # the defaults of the model keys are ModelConfig's; these bytes are
        # part of every checkpoint
        assert config_doc_dumps({}) == (
            "variant = base\ninput_size = 256\nnum_classes = 1\nskip_mode = skip3\n"
            "downsample_mode = maxpool\nseed = 0\nschedule = poly\nlr0 = 0.01\n"
            "epochs = 300\nbatch = 8\nkernels = 3,3,7\nliteral_eq2 = false\n")

    def test_doc_from_model_config_fills_and_rejects_training_keys(self):
        doc = doc_from_model_config(ModelConfig(), lr0=0.5)
        assert list(doc) == list(CONFIG_KEYS)
        assert (doc["lr0"], doc["epochs"], doc["seed"]) == (0.5, 300, 0)
        with pytest.raises(ConfigError, match="unknown training keys"):
            doc_from_model_config(ModelConfig(), kernels=(3, 3, 3))

    def test_every_config_field_survives_the_document(self):
        cfg = ModelConfig(variant="large", convutr_kernels=(5, 3, 9), num_classes=3,
                          input_size=128, skip_mode="horizontal", downsample_mode="conv",
                          literal_eq2=True)
        assert model_config_from_doc(doc_from_model_config(cfg)) == cfg
        text = config_doc_dumps(doc_from_model_config(cfg))
        assert model_config_from_doc(config_doc_loads(text)) == cfg
        # the document leaves out only the dtype, which the tensors of a
        # checkpoint carry themselves; any other field would be lost on reload
        assert {f.name for f in dataclasses.fields(ModelConfig)} == {
            "variant", "convutr_kernels", "num_classes", "input_size", "skip_mode",
            "downsample_mode", "literal_eq2", "dtype"}

    def test_to_model_config(self):
        doc = config_doc_loads(config_doc_dumps({"variant": "large", "input_size": 64}))
        cfg = model_config_from_doc(doc)
        assert cfg.variant == "large"
        assert cfg.input_size == 64


class TestCheckpoint:
    def _doc(self, cfg, seed=0):
        return doc_from_model_config(cfg, seed=seed)

    def test_save_load_save_bitwise(self, tmp_path):
        cfg = ModelConfig.for_variant("base", input_size=64)
        model = build_model(cfg, seed=0)
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(str(p1), self._doc(cfg), model.named_state())
        doc, tensors, optim = load_checkpoint(str(p1))
        save_checkpoint(str(p2), doc, tensors, optim)
        assert p1.read_bytes() == p2.read_bytes()

    def test_roundtrip_values_exact(self, tmp_path):
        cfg = ModelConfig.for_variant("base", input_size=64)
        model = build_model(cfg, seed=1)
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, self._doc(cfg, seed=1), model.named_state())
        _, tensors, _ = load_checkpoint(path)
        model2 = build_model(cfg, seed=2)
        load_model_state(model2, tensors)
        for (n1, p1), (n2, p2) in zip(model.named_parameters(), model2.named_parameters()):
            assert p1.data.tobytes() == p2.data.tobytes(), n1

    def test_seed0_base64_checkpoint_bytes(self, tmp_path):
        # initialization draws from seeded streams only, so these bytes hold
        # at any BLAS thread count
        cfg = ModelConfig.for_variant("base", input_size=64)
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), self._doc(cfg), build_model(cfg, seed=0).named_state())
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            "38e44fe496daefcaf10ed6751e0ed01a3503dceca523810a450fde2506f0d7ee"

    def test_tensor_count_matches_param_report_rows(self, tmp_path):
        cfg = ModelConfig.for_variant("base", input_size=64)
        model = build_model(cfg, seed=0)
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, self._doc(cfg), model.named_state())
        _, tensors, optim = load_checkpoint(path)
        assert len(tensors) + len(optim) == len(count_params(model).rows)

    def test_mismatched_config_rejected_with_tensor_name(self, tmp_path):
        cfg = ModelConfig.for_variant("base", input_size=64)
        model = build_model(cfg, seed=0)
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, self._doc(cfg), model.named_state())
        _, tensors, _ = load_checkpoint(path)
        other = build_model(ModelConfig.for_variant("large", input_size=64), seed=0)
        # pos_embed is the first tensor in the model's state order
        with pytest.raises(ConfigError, match=r"pos_embed.*shape"):
            load_model_state(other, tensors)

    def test_optimizer_state_split(self, tmp_path):
        cfg = ModelConfig.for_variant("base", input_size=64)
        model = build_model(cfg, seed=0)
        opt_state = {"optim.velocity.head.bias": np.zeros(1, dtype=np.float32),
                     "optim.step": np.array([12.0])}
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, self._doc(cfg), model.named_state(), opt_state)
        _, tensors, optim = load_checkpoint(path)
        assert "optim.step" in optim
        assert not any(k.startswith("optim.") for k in tensors)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.ckpt"
        p.write_bytes(b"XXXX" + bytes(64))
        with pytest.raises(ParseError, match="magic"):
            load_checkpoint(str(p))

    def test_unknown_version_rejected(self, tmp_path):
        cfg = ModelConfig.for_variant("base", input_size=64)
        model = build_model(cfg, seed=0)
        p = tmp_path / "m.ckpt"
        save_checkpoint(str(p), self._doc(cfg), model.named_state())
        raw = bytearray(p.read_bytes())
        raw[4] = 99
        p.write_bytes(bytes(raw))
        with pytest.raises(ParseError, match="version"):
            load_checkpoint(str(p))

    def test_truncated_tensor_rejected(self, tmp_path):
        cfg = ModelConfig.for_variant("base", input_size=64)
        model = build_model(cfg, seed=0)
        p = tmp_path / "m.ckpt"
        save_checkpoint(str(p), self._doc(cfg), model.named_state())
        raw = p.read_bytes()
        p.write_bytes(raw[:-10])
        with pytest.raises(ParseError, match="truncated"):
            load_checkpoint(str(p))

    def _one_tensor_checkpoint(self, tmp_path, shape=(1, 1)):
        """Checkpoint holding the single f32 tensor 'a'; returns (path, raw
        bytes, offset of the name byte)."""
        p = tmp_path / "one.ckpt"
        save_checkpoint(str(p), self._doc(ModelConfig()), {"a": np.zeros(shape, dtype=np.float32)})
        raw = bytearray(p.read_bytes())
        clen = struct.unpack("<Q", raw[8:16])[0]
        name_at = 16 + clen + 8 + 2
        assert raw[name_at:name_at + 1] == b"a"
        return p, raw, name_at

    def test_overflowing_dims_rejected_with_offset(self, tmp_path):
        p, raw, name_at = self._one_tensor_checkpoint(tmp_path)
        dims_at = name_at + 1 + 2
        raw[dims_at:dims_at + 16] = struct.pack("<QQ", 2 ** 32, 2 ** 32)
        p.write_bytes(bytes(raw))
        with pytest.raises(ParseError, match="overflow") as exc:
            load_checkpoint(str(p))
        assert exc.value.offset == dims_at

    @pytest.mark.parametrize("code,dims", [(0, (0, 2 ** 62)), (1, (0, 2 ** 61)),
                                           (0, (2 ** 62, 0))])
    def test_empty_dims_overflowing_with_itemsize_rejected(self, tmp_path, code, dims):
        # zero elements, but the other dim times the itemsize overflows intp
        p, raw, name_at = self._one_tensor_checkpoint(tmp_path)
        raw[name_at + 1] = code
        dims_at = name_at + 1 + 2
        raw[dims_at:dims_at + 16] = struct.pack("<QQ", *dims)
        p.write_bytes(bytes(raw))
        with pytest.raises(ParseError, match="overflow") as exc:
            load_checkpoint(str(p))
        assert exc.value.offset == dims_at

    def test_non_utf8_tensor_name_rejected_with_offset(self, tmp_path):
        p, raw, name_at = self._one_tensor_checkpoint(tmp_path)
        raw[name_at] = 0xFF
        p.write_bytes(bytes(raw))
        with pytest.raises(ParseError, match="UTF-8") as exc:
            load_checkpoint(str(p))
        assert exc.value.offset == name_at

    def test_non_utf8_config_rejected_with_offset(self, tmp_path):
        p, raw, _ = self._one_tensor_checkpoint(tmp_path)
        raw[19] = 0xFF
        p.write_bytes(bytes(raw))
        with pytest.raises(ParseError, match="UTF-8") as exc:
            load_checkpoint(str(p))
        assert exc.value.offset == 19

    def test_malformed_config_value_rejected(self, tmp_path):
        p, raw, _ = self._one_tensor_checkpoint(tmp_path)
        clen = struct.unpack("<Q", raw[8:16])[0]
        doc = bytes(raw[16:16 + clen]).replace(b"input_size = 256", b"input_size = abc")
        assert b"input_size = abc" in doc and len(doc) == clen
        p.write_bytes(bytes(raw[:16]) + doc + bytes(raw[16 + clen:]))
        with pytest.raises(ConfigError, match="'input_size'.*line 2"):
            load_checkpoint(str(p))

    def test_duplicate_names_rejected_on_save(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate"):
            save_checkpoint(str(tmp_path / "d.ckpt"), self._doc(ModelConfig()),
                            {"a": np.zeros(2, dtype=np.float32)},
                            {"a": np.zeros(2, dtype=np.float32)})


    def test_failed_write_keeps_old_checkpoint_and_leaves_no_temp(self, tmp_path, monkeypatch):
        import muvit.data as data
        cfg = ModelConfig.for_variant("base", input_size=64)
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), self._doc(cfg), build_model(cfg, seed=0).named_state())
        before = path.read_bytes()
        real_open = open

        class HalfWriter:
            """File object whose write stops halfway with a full disk."""

            def __init__(self, f):
                self.f = f

            def write(self, payload):
                payload = memoryview(payload).cast("B")
                self.f.write(payload[:len(payload) // 2])
                raise OSError(28, "No space left on device")

            def __getattr__(self, name):
                return getattr(self.f, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self.f.__exit__(*exc)

        def failing_open(file, mode="r", *args, **kwargs):
            f = real_open(file, mode, *args, **kwargs)
            return HalfWriter(f) if "w" in mode else f

        monkeypatch.setattr(data, "open", failing_open, raising=False)
        with pytest.raises(OSError, match="No space"):
            save_checkpoint(str(path), self._doc(cfg, seed=1),
                            build_model(cfg, seed=1).named_state())
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


class TestSample:
    def test_rejects_bad_spatial(self):
        with pytest.raises(ConfigError):
            Sample(image=np.zeros((3, 60, 60), dtype=np.float32),
                   mask=np.zeros((1, 60, 60), dtype=np.float32))

    def test_rejects_empty_image(self):
        with pytest.raises(ConfigError, match="positive multiple of 32"):
            Sample(image=np.zeros((3, 0, 0), dtype=np.float32),
                   mask=np.zeros((1, 0, 0), dtype=np.float32))

    def test_load_dataset_names_the_files_of_an_empty_sample(self, tmp_path):
        for sub, name, magic in (("images", "0000.ppm", b"P6"), ("masks", "0000.pgm", b"P5")):
            (tmp_path / sub).mkdir()
            (tmp_path / sub / name).write_bytes(magic + b"\n0 0\n255\n")
        with pytest.raises(ConfigError,
                           match=r"0000\.ppm, .*0000\.pgm: sample spatial dims \(0, 0\)"):
            load_dataset(str(tmp_path))

    @pytest.mark.parametrize("shape", [(1, 64, 64), (1, 32, 64), (3, 32, 32), (32, 32)])
    def test_rejects_mask_that_does_not_fit_its_image(self, shape):
        with pytest.raises(ConfigError, match="mask shape"):
            Sample(image=np.zeros((3, 32, 32), dtype=np.float32),
                   mask=np.zeros(shape, dtype=np.float32))

    def test_load_dataset_names_the_sample_whose_mask_does_not_fit(self, tmp_path):
        save_dataset(synth_dataset(seed=1, n=3, size=32), str(tmp_path))
        write_mask(str(tmp_path / "masks" / "0001.pgm"), np.zeros((1, 64, 64), np.float32))
        with pytest.raises(ConfigError, match=r"0001\.pgm.*mask shape \(1, 64, 64\)"):
            load_dataset(str(tmp_path))

    def test_load_dataset_names_the_sample_of_another_size(self, tmp_path):
        save_dataset(synth_dataset(seed=1, n=2, size=32), str(tmp_path))
        big = synth_dataset(seed=1, n=1, size=64)[0]
        write_image(str(tmp_path / "images" / "0002.ppm"), big.image)
        write_mask(str(tmp_path / "masks" / "0002.pgm"), big.mask)
        with pytest.raises(ConfigError, match=r"0002\.ppm.*differs from \(3, 32, 32\)"):
            load_dataset(str(tmp_path))
