"""Per-layer metrics and the top-N layer table, computed from a Tracer."""

from collections import defaultdict

from stats import leaf_mask, median, self_times
from spans import MAC_OPS, REPORTED_OPS, STAGES
from reference import SPAN as REFERENCE_SPAN

TRAINING_SPANS = {"seg_loss_ms": "training.seg_loss", "sgd_step_ms": "training.sgd_step",
                  "augment_ms": "training.augment", "val_pass_ms": "training.val_pass"}
DATA_KEYS = ("synth_dataset", "save_dataset", "load_dataset", "save_checkpoint",
             "load_checkpoint")


class SpanTotals:
    """Per span name: inclusive and self seconds, calls, shadow MACs, computed bytes."""

    def __init__(self, tr):
        n = len(tr)
        self.dur = [e - s for s, e in zip(tr.starts, tr.ends)]
        own = self_times(tr.starts, tr.ends, tr.parents)
        leaf = leaf_mask(n, tr.parents)
        self.total, self.own = defaultdict(float), defaultdict(float)
        self.calls, self.macs, self.bytes = defaultdict(int), defaultdict(int), defaultdict(int)
        self.leaf_s = 0.0
        for i, name in enumerate(tr.names):
            self.total[name] += self.dur[i]
            self.own[name] += own[i]
            self.calls[name] += 1
            if leaf[i] and name != REFERENCE_SPAN:
                self.leaf_s += self.dur[i]
        for i, m in tr.op_macs.items():
            self.macs[tr.names[i]] += m
        for i, b in tr.op_bytes.items():
            self.bytes[tr.names[i]] += b
        # model forwards made by train_loop itself, not by its validation pass
        self.train_forward = sum(
            self.dur[i] for i, name in enumerate(tr.names)
            if name == "model.forward" and tr.parents[i] >= 0
            and tr.names[tr.parents[i]] == "training.train_loop")
        self.node_s = sum(v for k, v in self.total.items() if k.endswith(".bwd"))


def layer_metrics(tr, phase, untraced_p50, traced_p50, stage_macs, stage_peak_bytes,
                  data_ms, roof):
    """Every per-layer metric. *_ms values are span totals over the traced
    phase divided by its iterations, so a validation pass is spread over the
    steps of its epoch; data.* are set-up medians. The p50s are of iteration
    time over reference time, so host drift between the phases cancels."""
    t = SpanTotals(tr)
    n = max(len(phase.durations), 1)
    per = 1e3 / n
    m = {}
    for op in REPORTED_OPS:
        f, b = f"tensor.{op}.fwd", f"tensor.{op}.bwd"
        m[f"tensor.{op}.fwd_ms"] = t.total[f] * per
        m[f"tensor.{op}.bwd_ms"] = t.total[b] * per
        m[f"tensor.{op}.calls"] = t.calls[f] / n
        if op in MAC_OPS:
            m[f"tensor.{op}.gflop_s"] = 2 * t.macs[f] / t.total[f] / 1e9 if t.total[f] else 0.0
    m["tensor.backward.ms"] = t.total["tensor.backward"] * per
    m["tensor.backward.overhead_ms"] = (t.total["tensor.backward"] - t.node_s) * per
    m["tensor.tape.nodes"] = median(tr.tape_nodes) if tr.tape_nodes else 0
    for st in STAGES:
        m[f"model.{st}.fwd_ms"] = t.total[f"model.{st}"] * per
        m[f"model.{st}.macs"] = stage_macs.get(st, 0)
        m[f"model.{st}.peak_mb"] = stage_peak_bytes.get(st, 0) / 1e6

    trained = t.total["training.train_loop"] > 0
    m["training.forward_ms"] = t.train_forward * per
    for key, span in TRAINING_SPANS.items():
        m[f"training.{key}"] = t.total[span] * per
    m["training.backward_ms"] = t.total["tensor.backward"] * per if trained else 0.0
    compute = (t.train_forward + t.total["training.seg_loss"] + t.total["tensor.backward"]
               + t.total["training.sgd_step"])
    m["training.data_wait_ms"] = (sum(phase.durations) - compute) * per if trained else 0.0

    m["metrics.evaluate_ms"] = t.total["metrics.evaluate"] * per
    m["metrics.segmentation_metrics_ms"] = t.total["metrics.segmentation_metrics"] * per
    for key in DATA_KEYS:
        m[f"data.{key}_ms"] = data_ms.get(key, 0.0)
    m["data.checkpoint_mb"] = data_ms.get("checkpoint_mb", 0.0)

    m["trace.overhead"] = traced_p50 / untraced_p50 - 1.0
    m["trace.coverage"] = t.leaf_s / phase.program_s()
    m["roofline.sgemm_gflop_s"] = roof["sgemm_gflop_s"]
    m["roofline.copy_gb_s"] = roof["copy_gb_s"]
    return m, t


def top_table(t, n_iter, roof, top=15):
    """Rows ranked by self time per iteration. GFLOP/s uses shadow MACs; GB/s
    uses bytes computed from input and output shapes, not measured traffic."""
    rows = []
    names = [k for k in t.own if k != REFERENCE_SPAN]
    for name in sorted(names, key=t.own.get, reverse=True)[:top]:
        incl = t.total[name]
        gflops = 2 * t.macs[name] / incl / 1e9 if t.macs[name] and incl else None
        gbs = t.bytes[name] / incl / 1e9 if t.bytes[name] and incl else None
        rows.append({
            "name": name, "self_ms": t.own[name] * 1e3 / n_iter, "incl_ms": incl * 1e3 / n_iter,
            "calls": t.calls[name] / n_iter, "gflop_s": gflops,
            "of_sgemm": gflops / roof["sgemm_gflop_s"] if gflops else None,
            "computed_gb_s": gbs, "of_copy": gbs / roof["copy_gb_s"] if gbs else None})
    return rows


def format_table(rows, roof):
    def f(v, spec):
        return format(v, spec) if v is not None else "-"
    out = [f"top layers by self time per iteration (sgemm {roof['sgemm_gflop_s']:.1f} GFLOP/s "
           f"at n={roof['sgemm_n']}; copy {roof['copy_gb_s']:.1f} GB/s computed on "
           f"{roof['copy_array_bytes'] >> 20} MiB arrays, LLC "
           f"{(roof['llc_bytes'] or 0) >> 20} MiB)",
           f"{'layer':<34}{'self ms':>9}{'incl ms':>9}{'calls':>8}{'GFLOP/s':>9}"
           f"{'%sgemm':>8}{'GB/s*':>8}{'%copy':>7}"]
    for r in rows:
        out.append(f"{r['name']:<34}{r['self_ms']:>9.2f}{r['incl_ms']:>9.2f}{r['calls']:>8.1f}"
                   f"{f(r['gflop_s'], '9.2f'):>9}"
                   f"{f(r['of_sgemm'] and 100 * r['of_sgemm'], '8.1f'):>8}"
                   f"{f(r['computed_gb_s'], '8.2f'):>8}"
                   f"{f(r['of_copy'] and 100 * r['of_copy'], '7.1f'):>7}")
    out.append("* bytes computed from op input and output shapes, not measured")
    return "\n".join(out)
