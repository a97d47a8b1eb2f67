"""Samples, synthetic dataset generation, PNM image files, the config
document, checkpoints.

Everything here is bit-exact: PNM round-trips reproduce bytes, checkpoints
reproduce tensors, and dataset generation is a pure function of
(seed, index). The config document's model keys are ModelConfig's fields,
with ModelConfig's defaults; each value has the type of its default.
"""

import contextlib
import io
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .model import ModelConfig
from .tensor import ConfigError

CHECKPOINT_MAGIC = b"MUVT"
CHECKPOINT_VERSION = 1

_DTYPE_CODES = {0: "<f4", 1: "<f8"}
_DTYPE_TO_CODE = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


class ParseError(ValueError):
    """Malformed file; carries the byte offset where parsing stopped."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


@dataclass
class Sample:
    image: np.ndarray          # [3, S, S] float32 in [0, 1]
    mask: np.ndarray           # [1, S, S] float32 in {0, 1}
    id: str = ""
    seed: int | None = None

    def __post_init__(self):
        size = self.image.shape[1]
        if self.image.shape[2] != size or size <= 0 or size % 32:
            raise ConfigError(f"sample spatial dims {self.image.shape[1:]} must be "
                              "square and a positive multiple of 32")
        if self.mask.shape != (1, size, size):
            raise ConfigError(f"mask shape {self.mask.shape} does not fit image shape "
                              f"{self.image.shape}; expected (1, {size}, {size})")


def standardize(image):
    """Per-channel standardization of a [C,H,W] image already in [0,1]."""
    mean = image.mean(axis=(1, 2), keepdims=True)
    std = image.std(axis=(1, 2), keepdims=True)
    return ((image - mean) / (std + 1e-6)).astype(image.dtype)


# ---------------------------------------------------------------------------
# PNM (P5/P6, binary, maxval 255)


def _parse_pnm(raw):
    if len(raw) < 2 or raw[:1] != b"P":
        raise ParseError("not a PNM file (bad magic)", 0)
    magic = raw[:2].decode("ascii", errors="replace")
    if magic not in ("P5", "P6"):
        raise ParseError(f"unsupported PNM magic '{magic}'", 0)
    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        if pos < len(raw) and raw[pos:pos + 1] == b"#":
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        if pos == start:
            raise ParseError("truncated PNM header", pos)
        tok = raw[start:pos]
        if not tok.isdigit():
            raise ParseError(f"non-numeric header field {tok!r}", start)
        # no payload can hold 10^18 bytes, and int() refuses over 4300 digits
        if len(tok) > 18:
            raise ParseError(f"header field of {len(tok)} digits is out of range", start)
        fields.append(int(tok))
    if pos >= len(raw):
        raise ParseError("missing whitespace after maxval", pos)
    pos += 1  # single whitespace byte separating header from payload
    width, height, maxval = fields
    if maxval != 255:
        raise ParseError(f"unsupported maxval {maxval} (must be 255)", pos)
    channels = 1 if magic == "P5" else 3
    need = width * height * channels
    payload = raw[pos:pos + need]
    if len(payload) < need:
        raise ParseError(f"truncated payload: need {need} bytes, have {len(payload)}",
                         pos + len(payload))
    arr = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, channels)
    return magic, arr


def load_pnm(path):
    """Returns ('P5'|'P6', uint8 array [H,W,C])."""
    with open(path, "rb") as f:
        return _parse_pnm(f.read())


def save_pnm(path, arr):
    """Writes a P5 (1-channel) or P6 (3-channel) binary file, maxval 255."""
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.dtype != np.uint8 or arr.shape[2] not in (1, 3):
        raise ConfigError("save_pnm needs a uint8 [H,W,1|3] array")
    magic = b"P5" if arr.shape[2] == 1 else b"P6"
    header = magic + b"\n%d %d\n255\n" % (arr.shape[1], arr.shape[0])
    with open(path, "wb") as f:
        f.write(header)
        f.write(arr.tobytes())


def read_image(path):
    """PNM file -> [3,S,S] float image in [0,1]; grayscale replicated."""
    _, arr = load_pnm(path)
    img = arr.astype(np.float32) / 255.0
    if img.shape[2] == 1:
        img = np.repeat(img, 3, axis=2)
    return np.ascontiguousarray(img.transpose(2, 0, 1))


def read_mask(path):
    """PNM file -> [1,S,S] float mask in {0,1}, binarized at 128."""
    _, arr = load_pnm(path)
    if arr.shape[2] != 1:
        arr = arr[:, :, :1]
    return (arr.transpose(2, 0, 1) >= 128).astype(np.float32)


def write_image(path, image):
    """[3,S,S] float in [0,1] -> P6 file (exact for 8-bit representable values)."""
    arr = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    save_pnm(path, arr.transpose(1, 2, 0))


def write_mask(path, mask):
    """[1,S,S] float {0,1} -> P5 file with values {0,255}."""
    arr = (mask[0] >= 0.5).astype(np.uint8) * 255
    save_pnm(path, arr)


def save_dataset(samples, out_dir):
    """images/NNNN.ppm + masks/NNNN.pgm, index-ordered."""
    img_dir = os.path.join(out_dir, "images")
    msk_dir = os.path.join(out_dir, "masks")
    os.makedirs(img_dir, exist_ok=True)
    os.makedirs(msk_dir, exist_ok=True)
    for i, s in enumerate(samples):
        write_image(os.path.join(img_dir, f"{i:04d}.ppm"), s.image)
        write_mask(os.path.join(msk_dir, f"{i:04d}.pgm"), s.mask)


def load_dataset(data_dir):
    img_dir = os.path.join(data_dir, "images")
    msk_dir = os.path.join(data_dir, "masks")
    if not os.path.isdir(img_dir) or not os.path.isdir(msk_dir):
        raise ConfigError(f"dataset dir {data_dir} needs images/ and masks/ subdirs")
    samples = []
    for name in sorted(os.listdir(img_dir)):
        stem = os.path.splitext(name)[0]
        img_path, mask_path = os.path.join(img_dir, name), os.path.join(msk_dir, stem + ".pgm")
        if not os.path.exists(mask_path):
            raise ConfigError(f"no mask for image '{name}'")
        try:
            sample = Sample(image=read_image(img_path), mask=read_mask(mask_path), id=stem)
        except ConfigError as e:
            raise ConfigError(f"{img_path}, {mask_path}: {e}") from None
        if samples and sample.image.shape != samples[0].image.shape:
            raise ConfigError(f"{img_path}: image shape {sample.image.shape} differs from "
                              f"{samples[0].image.shape} of the first sample '{samples[0].id}'")
        samples.append(sample)
    if not samples:
        raise ConfigError(f"no samples found under {data_dir}")
    return samples


# ---------------------------------------------------------------------------
# synthetic low-contrast blob dataset


def _gaussian_blur(a, sigma):
    """Separable Gaussian blur of a 2-D float64 array, edges mirrored
    (d c b a | a b c d | d c b a): bitwise scipy.ndimage.gaussian_filter(a,
    sigma). As there, the kernel exp(-x^2 / 2 sigma^2) / sum has radius
    int(4 sigma + 0.5), axis 0 is blurred first, and each output sums
    p[c] w[0] and then (p[c+j] + p[c-j]) w[j] for j from the radius down to 1;
    another order changes the last bits of the synthetic images."""
    r = int(4.0 * sigma + 0.5)
    x = np.arange(-r, r + 1)
    w = np.exp(-0.5 / (sigma * sigma) * x ** 2)
    w = w[r:] / w.sum()
    for _ in range(2):          # axis 0, then axis 1 as axis 0 of the transpose
        p = np.pad(a, ((r, r), (0, 0)), mode="symmetric")
        n = a.shape[0]
        out = p[r:r + n] * w[0]
        for j in range(r, 0, -1):
            out += (p[r + j:r + j + n] + p[r - j:r - j + n]) * w[j]
        a = out.T
    return a


def _ellipse_mask(size, cy, cx, ry, rx, angle, yy, xx):
    ys = yy - cy
    xs = xx - cx
    ca, sa = np.cos(angle), np.sin(angle)
    u = (ca * xs + sa * ys) / rx
    v = (-sa * xs + ca * ys) / ry
    return (u * u + v * v) <= 1.0


def synth_sample(seed, index, size, difficulty=0.0):
    """One deterministic sample: 1-3 low-contrast elliptical blobs on a noisy
    background, blurred boundaries, speckle, and additive artifacts. The mask
    is the exact blob union; foreground fraction is kept within [0.02, 0.5].
    Raises ConfigError for a size that is not a positive multiple of 32 or a
    difficulty outside [0, 1], NaN included."""
    if size <= 0 or size % 32:
        raise ConfigError(f"size {size} is not a positive multiple of 32")
    difficulty = float(difficulty)
    if not 0.0 <= difficulty <= 1.0:
        raise ConfigError(f"difficulty {difficulty} is outside [0, 1]")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), int(index)])))
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    mask = None
    for _ in range(64):
        m = np.zeros((size, size), dtype=bool)
        for _ in range(int(rng.integers(1, 4))):
            cy, cx = rng.uniform(0.2 * size, 0.8 * size, 2)
            ry, rx = rng.uniform(0.08 * size, 0.26 * size, 2)
            angle = rng.uniform(0.0, np.pi)
            m |= _ellipse_mask(size, cy, cx, ry, rx, angle, yy, xx)
        frac = m.mean()
        if 0.02 <= frac <= 0.5:
            mask = m
            break
    if mask is None:
        raise ConfigError("synthetic generator failed to satisfy the foreground bound")

    gap = rng.uniform(0.48, 0.62) * (1.0 - 0.7 * difficulty)
    bg = rng.uniform(0.15, 0.30)
    soft = _gaussian_blur(mask.astype(np.float64), 0.8 + 2.0 * difficulty)
    img = bg + gap * soft

    speckle = rng.standard_normal((size, size)) * (0.05 + 0.10 * difficulty)
    img = img * (1.0 + speckle)
    for _ in range(int(rng.integers(1, 4))):       # faint off-target artifacts
        ay, ax = rng.uniform(0, size, 2)
        sig = rng.uniform(2.0, 6.0)
        amp = rng.uniform(-1.0, 1.0) * (0.05 + 0.10 * difficulty)
        r2 = (yy - ay) ** 2 + (xx - ax) ** 2
        img = img + amp * np.exp(-r2 / (2.0 * sig * sig))
    img = np.clip(img, 0.0, 1.0).astype(np.float32)

    image = np.repeat(img[None], 3, axis=0)
    return Sample(image=image, mask=mask[None].astype(np.float32),
                  id=f"synth-{seed}-{index:04d}", seed=int(seed))


def synth_dataset(seed, n, size, difficulty=0.0):
    return [synth_sample(seed, i, size, difficulty) for i in range(n)]


# ---------------------------------------------------------------------------
# config document (fixed key set, canonical order)

CONFIG_KEYS = ("variant", "input_size", "num_classes", "skip_mode", "downsample_mode",
               "seed", "schedule", "lr0", "epochs", "batch", "kernels", "literal_eq2")

# Five keys configure training. The others name ModelConfig fields, which
# hold their defaults; only `kernels` is spelled differently.
_TRAINING_DEFAULTS = {"seed": 0, "schedule": "poly", "lr0": 0.01, "epochs": 300, "batch": 8}
_MODEL_FIELDS = {key: "convutr_kernels" if key == "kernels" else key
                 for key in CONFIG_KEYS if key not in _TRAINING_DEFAULTS}
_DEFAULTS = {**_TRAINING_DEFAULTS,
             **{key: getattr(ModelConfig, field) for key, field in _MODEL_FIELDS.items()}}


def _parse_bool(text):
    if text not in ("true", "false"):
        raise ValueError(f"expected true/false, got {text!r}")
    return text == "true"


# A value has the type of its key's default: (text form, parse) per type.
_FORMS = {
    bool: (lambda v: "true" if v else "false", _parse_bool),
    tuple: (lambda v: ",".join(str(int(x)) for x in v),
            lambda text: tuple(int(x) for x in text.split(","))),
    float: (lambda v: repr(float(v)), float),
    int: (str, int),
    str: (str, str),
}


# The learning-rate schedules of training.lr_schedule.
SCHEDULES = ("poly", "warmup_cosine", "constant")

# Accepted ranges of the training values; ModelConfig checks the model's.
_RANGES = {
    "schedule": (lambda v: v in SCHEDULES, "a name in SCHEDULES"),
    "seed": (lambda v: v >= 0, "a non-negative integer"),
    "epochs": (lambda v: v >= 1, "a positive integer"),
    "batch": (lambda v: v >= 1, "a positive integer"),
    "lr0": (lambda v: math.isfinite(v) and v > 0, "a finite number above 0"),
}


def config_doc_dumps(doc):
    """Canonical text form: one `key = value` line per fixed key; values out
    of range are rejected."""
    unknown = set(doc) - set(CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    merged = {**_DEFAULTS, **doc}
    # what is written must load again
    for key, (in_range, expected) in _RANGES.items():
        if not in_range(merged[key]):
            raise ConfigError(f"config key '{key}' must be {expected}, got {merged[key]!r}")
    return "".join(f"{key} = {_FORMS[type(_DEFAULTS[key])][0](merged[key])}\n"
                   for key in CONFIG_KEYS)


def config_doc_loads(text):
    """Strict parse of the config document; unknown keys and values out of
    range are rejected."""
    doc = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno} is not 'key = value': {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key '{key}' (line {lineno})")
        if key in doc:
            raise ConfigError(f"duplicate config key '{key}' (line {lineno})")
        try:
            doc[key] = _FORMS[type(_DEFAULTS[key])][1](value)
        except ValueError:
            raise ConfigError(f"config key '{key}' has a malformed value {value!r} "
                              f"(line {lineno})") from None
        if key in _RANGES and not _RANGES[key][0](doc[key]):
            raise ConfigError(f"config key '{key}' must be {_RANGES[key][1]}, got {value!r} "
                              f"(line {lineno})")
    missing = set(CONFIG_KEYS) - set(doc)
    if missing:
        raise ConfigError(f"config document missing keys: {sorted(missing)}")
    return doc


def model_config_from_doc(doc):
    return ModelConfig(**{field: doc[key] for key, field in _MODEL_FIELDS.items()})


def doc_from_model_config(cfg, **training):
    """cfg's document; training values that are not given take their defaults."""
    unknown = set(training) - set(_TRAINING_DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown training keys: {sorted(unknown)}")
    values = {**_TRAINING_DEFAULTS, **training,
              **{key: getattr(cfg, field) for key, field in _MODEL_FIELDS.items()}}
    return {key: values[key] for key in CONFIG_KEYS}


# ---------------------------------------------------------------------------
# checkpoint format
#
# magic(4) | version u32 LE | config-length u64 LE | config document (utf-8)
# | tensor count u64 LE | per tensor: name-length u16 LE, name bytes,
# dtype u8 (0=f32, 1=f64), ndim u8, dims u64 LE each, raw little-endian data.


def save_checkpoint(path, doc, tensors, optimizer_state=None):
    """tensors: ordered {name: array}; optimizer_state: extra named arrays.

    path is replaced whole or not at all: a failed save leaves an existing
    file as it was and no temp file behind."""
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<I", CHECKPOINT_VERSION))
    conf = config_doc_dumps(doc).encode()
    buf.write(struct.pack("<Q", len(conf)))
    buf.write(conf)
    items = list(tensors.items())
    if optimizer_state:
        items += list(optimizer_state.items())
    names = [n for n, _ in items]
    if len(names) != len(set(names)):
        raise ConfigError("duplicate tensor names in checkpoint")
    buf.write(struct.pack("<Q", len(items)))
    for name, arr in items:
        arr = np.asarray(arr)
        code = _DTYPE_TO_CODE.get(arr.dtype)
        if code is None:
            raise ConfigError(f"checkpoint tensor '{name}' has unsupported dtype {arr.dtype}")
        nb = name.encode()
        buf.write(struct.pack("<H", len(nb)))
        buf.write(nb)
        buf.write(struct.pack("<BB", code, arr.ndim))
        for d in arr.shape:
            buf.write(struct.pack("<Q", d))
        buf.write(arr.astype(_DTYPE_CODES[code], copy=False).tobytes())
    # write a temp file next to path, sync it and rename it over path, so
    # that path holds either its old bytes or all of the new ones
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(buf.getbuffer())
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load_checkpoint(path):
    """Returns (config doc dict, model tensors, optimizer arrays)."""
    with open(path, "rb") as f:
        raw = f.read()

    def need(pos, n, what):
        if pos + n > len(raw):
            raise ParseError(f"truncated checkpoint while reading {what}", pos)
        return raw[pos:pos + n], pos + n

    def utf8(chunk, pos, what):
        try:
            return chunk.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ParseError(f"{what} is not valid UTF-8", pos + e.start) from None

    chunk, pos = need(0, 4, "magic")
    if chunk != CHECKPOINT_MAGIC:
        raise ParseError(f"bad checkpoint magic {chunk!r}", 0)
    chunk, pos = need(pos, 4, "version")
    version = struct.unpack("<I", chunk)[0]
    if version != CHECKPOINT_VERSION:
        raise ParseError(f"unsupported checkpoint version {version}", 4)
    chunk, pos = need(pos, 8, "config length")
    clen = struct.unpack("<Q", chunk)[0]
    chunk, pos = need(pos, clen, "config document")
    doc = config_doc_loads(utf8(chunk, pos - clen, "config document"))
    chunk, pos = need(pos, 8, "tensor count")
    count = struct.unpack("<Q", chunk)[0]
    tensors, optim = {}, {}
    for _ in range(count):
        chunk, pos = need(pos, 2, "name length")
        nlen = struct.unpack("<H", chunk)[0]
        chunk, pos = need(pos, nlen, "tensor name")
        name = utf8(chunk, pos - nlen, "tensor name")
        chunk, pos = need(pos, 2, "dtype/ndim")
        code, ndim = chunk[0], chunk[1]
        if code not in _DTYPE_CODES:
            raise ParseError(f"unknown dtype code {code} for tensor '{name}'", pos - 2)
        dims = []
        dims_pos = pos
        for _ in range(ndim):
            chunk, pos = need(pos, 8, f"dims of '{name}'")
            dims.append(struct.unpack("<Q", chunk)[0])
        # numpy refuses a shape whose nonzero dims times the itemsize overflow
        # intp, even when another dim is zero
        itemsize = np.dtype(_DTYPE_CODES[code]).itemsize
        if math.prod(max(d, 1) for d in dims) * itemsize > np.iinfo(np.intp).max:
            raise ParseError(f"dims {dims} of '{name}' overflow an array size", dims_pos)
        nbytes = math.prod(dims) * itemsize
        chunk, pos = need(pos, nbytes, f"data of '{name}'")
        arr = np.frombuffer(chunk, dtype=_DTYPE_CODES[code]).reshape(dims).copy()
        target = optim if name.startswith("optim.") else tensors
        if name in target:
            raise ParseError(f"duplicate tensor name '{name}'", pos)
        target[name] = arr
    return doc, tensors, optim


def load_model_state(model, tensors):
    """Copies named tensors into the model; rejects the first mismatch."""
    state = model.named_state()
    for name, target in state.items():
        if name not in tensors:
            raise ConfigError(f"checkpoint is missing tensor '{name}'")
        arr = tensors[name]
        if tuple(arr.shape) != tuple(target.shape):
            raise ConfigError(f"checkpoint tensor '{name}' has shape {tuple(arr.shape)}, "
                              f"model expects {tuple(target.shape)}")
        target[...] = arr.astype(target.dtype, copy=False)
    extra = set(tensors) - set(state)
    if extra:
        raise ConfigError(f"checkpoint has unexpected tensor '{sorted(extra)[0]}'")
