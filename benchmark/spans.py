"""Span recording around calls into muvit's layers, installed from outside.

Nothing in muvit knows about these spans: the tracer replaces module
attributes that callers look up at call time (``muvit.tensor.conv2d``,
``muvit.training.seg_loss``, ...), the ``forward`` of each top-level model
child, and the ``bwd`` closure of every tape node handed to
``muvit.tensor.backward``. Every patch is undone when the context exits.
"""

import time
from contextlib import ExitStack, contextmanager

from muvit import metrics, training
from muvit import tensor as T
from muvit.nn import Module, ModuleList

# Tensor ops wrapped for forward spans. Only the first group is reported as
# per-layer metrics; the rest are traced so that coverage counts them.
REPORTED_OPS = ("conv2d.dense", "conv2d.dw", "conv2d.pw", "conv_transpose2d", "gelu",
                "batchnorm2d", "layernorm", "linear", "matmul", "softmax", "pool2d",
                "bilinear_upsample", "concat")
MAC_OPS = ("conv2d.dense", "conv2d.dw", "conv2d.pw", "conv_transpose2d", "linear",
           "matmul", "bilinear_upsample")
OP_FUNCS = ("add", "sub", "mul", "scale", "div", "tsum", "tmean", "sum_axes", "log", "clip",
            "reshape", "transpose", "concat", "matmul", "relu", "sigmoid", "gelu", "softmax",
            "linear", "conv2d", "conv_transpose2d", "pool2d", "bilinear_upsample",
            "batchnorm2d", "layernorm")
# tape Node.op -> the function name that records it, where they differ
_NODE_OPS = {"sum": "tsum", "mean": "tmean", "avgpool": "pool2d", "maxpool": "pool2d",
             "bilinear": "bilinear_upsample"}

STAGES = ("enc1", "enc2", "enc3", "down4", "proj4", "enc4", "down5", "proj5", "enc5",
          "adapt1", "adapt2", "adapt3", "dec1", "dec2", "dec3", "dec4", "dec5", "head")


def conv_kind(x_shape, w_shape):
    """dense | dw | pw for a conv2d with input [N,Ci,H,W] and weight [Co,Ci/g,kh,kw]."""
    ci = x_shape[1]
    co, cig, kh, kw = w_shape
    if kh == 1 and kw == 1 and cig == ci:
        return "conv2d.pw"
    if cig == 1 and co == ci and ci > 1:
        return "conv2d.dw"
    return "conv2d.dense"


def unit_key(path):
    """Model unit path -> row key of the stage MAC check.

    Units are the model's top-level children, with ModuleList children
    listed one by one: ``enc4.0`` is the first LKLGL block (``enc4.block0``
    in ``count_flops``), ``dec.0`` is the first decoder block (``dec1``), and
    the projection norms ``proj4_bn``/``proj5_bn`` belong to ``proj4``/``proj5``.
    Raises KeyError for a unit this map does not know.
    """
    head, _, idx = path.partition(".")
    if head in ("enc4", "enc5") and idx:
        return f"{head}.block{int(idx)}"
    if head == "dec" and idx:
        return f"dec{int(idx) + 1}"
    if head in ("proj4_bn", "proj5_bn"):
        head = head[:-3]
    if idx or head not in STAGES:
        raise KeyError(f"no stage for model unit '{path}'")
    return head


def row_key(row_name):
    """count_flops row name -> the same key space as unit_key."""
    parts = row_name.split(".")
    if parts[0] in ("enc4", "enc5") and len(parts) > 1:
        return f"{parts[0]}.{parts[1]}"
    return parts[0]


def stage_of(key):
    return key.split(".")[0]


def model_units(model):
    """(path, module) for every top-level child, ModuleLists expanded."""
    for name, value in vars(model).items():
        if isinstance(value, ModuleList):
            for i, m in enumerate(value):
                yield f"{name}.{i}", m
        elif isinstance(value, Module):
            yield name, value


@contextmanager
def patched_attr(obj, name, value):
    old = getattr(obj, name)
    setattr(obj, name, value)
    try:
        yield old
    finally:
        setattr(obj, name, old)


@contextmanager
def wrapped_units(model, make_wrapper):
    """Replace each unit's forward by make_wrapper(path, key, forward)."""
    units = list(model_units(model))
    try:
        for path, m in units:
            object.__setattr__(m, "forward", make_wrapper(path, unit_key(path), m.forward))
        yield units
    finally:
        for _, m in units:
            if "forward" in vars(m):
                object.__delattr__(m, "forward")


def countable(counter):
    """Shadow MACs of the ops count_flops calls countable (bilinear excluded)."""
    return counter.total - counter.by_op.get("bilinear", 0)


def _nbytes(args, out):
    n = out.data.nbytes if isinstance(out, T.Tensor) else 0
    for a in args:
        if isinstance(a, T.Tensor):
            n += a.data.nbytes
        elif isinstance(a, (list, tuple)):
            n += sum(t.data.nbytes for t in a if isinstance(t, T.Tensor))
    return n


class Tracer:
    """In-memory spans: name, start, end, parent span and iteration id.

    Op spans also carry the shadow MACs they added and the bytes of their
    input and output arrays (computed from shapes, not measured).
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names, self.starts, self.ends, self.parents, self.iters = [], [], [], [], []
        self.op_macs = {}
        self.op_bytes = {}
        self.tape_nodes = []
        self.iteration = 0
        self.counter = None
        self._stack = []
        self._graphs = []

    def begin(self, name):
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.iters.append(self.iteration)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(self.clock())
        return i

    def end(self, i):
        self.ends[i] = self.clock()
        self._stack.pop()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            i = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(i)
        return traced

    def __len__(self):
        return len(self.names)

    # -- tensor ops ---------------------------------------------------------

    def _op(self, fname, fn):
        def traced(*args, **kwargs):
            name = conv_kind(args[0].shape, args[1].shape) if fname == "conv2d" else fname
            counter = self.counter
            m0 = counter.total if counter is not None else 0
            i = self.begin(f"tensor.{name}.fwd")
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(i)
            if counter is not None and counter.total != m0:
                self.op_macs[i] = counter.total - m0
            self.op_bytes[i] = _nbytes(args, out)
            return out
        return traced

    def _bwd(self, node):
        op = _NODE_OPS.get(node.op, node.op)
        if op == "conv2d":
            op = conv_kind(node.inputs[0].shape, node.inputs[1].shape)
        return self.wrap(f"tensor.{op}.bwd", node.bwd)

    def _record(self, record):
        @contextmanager
        def traced_record():
            with record() as g:
                self._graphs.append(g)
                try:
                    yield g
                finally:
                    self._graphs.pop()
        return traced_record

    def _backward(self, backward):
        def traced_backward(loss):
            nodes = list(self._graphs[-1].nodes) if self._graphs else []
            original = [n.bwd for n in nodes]
            for n in nodes:
                n.bwd = self._bwd(n)
            self.tape_nodes.append(len(nodes))
            i = self.begin("tensor.backward")
            try:
                return backward(loss)
            finally:
                self.end(i)
                for n, b in zip(nodes, original):
                    n.bwd = b
        return traced_backward

    @contextmanager
    def installed(self, model):
        """Trace tensor ops, backward nodes, model units and the training and
        metrics entry points, with the shadow MAC counter on."""
        with ExitStack() as stack:
            self.counter = stack.enter_context(T.count_macs())
            for fname in OP_FUNCS:
                if hasattr(T, fname):
                    stack.enter_context(patched_attr(T, fname, self._op(fname, getattr(T, fname))))
            stack.enter_context(patched_attr(T, "record", self._record(T.record)))
            stack.enter_context(patched_attr(T, "backward", self._backward(T.backward)))
            for mod, attr, name in ((training, "train_loop", "training.train_loop"),
                                    (training, "seg_loss", "training.seg_loss"),
                                    (training, "augment", "training.augment"),
                                    (training, "evaluate", "training.val_pass"),
                                    (metrics, "evaluate", "metrics.evaluate"),
                                    (metrics, "segmentation_metrics",
                                     "metrics.segmentation_metrics")):
                stack.enter_context(patched_attr(mod, attr, self.wrap(name, getattr(mod, attr))))
            stack.enter_context(patched_attr(
                training.SGD, "step", self.wrap("training.sgd_step", training.SGD.step)))
            stack.enter_context(wrapped_units(
                model, lambda path, key, fwd: self.wrap(f"model.{stage_of(key)}", fwd)))
            object.__setattr__(model, "forward", self.wrap("model.forward", model.forward))
            stack.callback(object.__delattr__, model, "forward")
            try:
                yield self
            finally:
                self.counter = None
