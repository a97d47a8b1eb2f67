"""Benchmark for muvit: one workload per run, driven from outside the package.

    python3 benchmark/run.py --workload train64|eval256|evalset64 \
        --seed N --seconds S --trace 0|1

Run from the repository root. It imports muvit from ./src, pins the BLAS
thread count, sets the workload up and warms it up several times, then runs
a closed loop for S seconds, timing a fixed reference computation
(reference.py) after every iteration. With --trace 0 the last stdout line
carries the end-to-end metrics; with --trace 1 it carries the per-layer
metrics from a traced phase (S/2 untraced, then S/2 traced). Correctness
checks run after the timed phase in both modes. Results and spans go to
.bench_out/.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 5
# Fixed BLAS thread count, recorded in the header because gradients hash
# differently at 1 and 2 OpenBLAS threads. One thread: at two, OpenBLAS
# spin-waits on both cores, and any other load on the machine then slows an
# iteration several-fold instead of by its share of one core.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("train64", "eval256", "evalset64"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_muvit():
    """Import muvit from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "muvit", "__init__.py")):
        raise SystemExit(f"error: no muvit sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import muvit
    if os.path.dirname(os.path.dirname(os.path.abspath(muvit.__file__))) != SRC:
        raise SystemExit(f"error: imported muvit from {muvit.__file__}, not {SRC}")
    return muvit


def fmt_metric(name, value, unit, note=""):
    return f"  {name:<15}{value:>14.6g} {unit:<9}{note}"


def main(argv=None):
    args = parse_args(argv)
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    import_muvit()

    import machine
    import reference
    from report import format_table, layer_metrics, top_table
    from spans import Tracer
    from stats import median, tail
    from workloads import WORKLOADS, peak_bytes, stage_peaks, time_reference
    import_s = time.perf_counter() - T_START

    head = machine.header(ROOT, args.workload, args.seed, args.seconds, args.trace, threads)
    print("header " + json.dumps(head, sort_keys=True))

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        # Each set-up is followed by an untimed reference pass that gauges the
        # host's speed at that moment; set-up time is reported at the nominal
        # speed, as the host's speed drifts by more than setup_s's bound.
        reference.run(*reference.SETUP_SHAPE)
        setups, setup_refs, data_runs = [], [], []
        for rep in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            data_runs.append(wl.setup(rep))
            wl.warmup()
            setups.append(time.perf_counter() - t0)
            setup_refs.append(time_reference(*reference.SETUP_SHAPE))
        setup_wall_s = import_s + median(setups)
        setup_s = reference.at_nominal_speed(setup_wall_s, median(setup_refs))
        data_ms = {k: median([d[k] for d in data_runs]) for k in data_runs[0]}
        wl.warmup_reference()    # outside set-up time: the reference is not muvit's

        if args.trace:
            base = wl.run(args.seconds / 2)
            tracer = Tracer()
            with tracer.installed(wl.model):
                phase = wl.run(args.seconds / 2, tracer)
            phases = [base, phase]
        else:
            phase = wl.run(args.seconds)
            phases = [phase]

        check_list = wl.run_checks()
        details = {name: detail for name, _, detail in check_list}
        ref_err = details["ref_f64"]["max_abs_err"]
        attempted = sum(p.attempted for p in phases) + len(check_list)
        failed = sum(p.failed for p in phases) + sum(not ok for _, ok, _ in check_list)

        timed = phases[0]        # end-to-end numbers always come from an untraced phase
        ratios = timed.ratios()
        tail_rel, tail_pct, beyond = tail(ratios)
        tail_s = tail(timed.durations)[0]
        e2e = {
            "setup_s": (setup_s, "s"),
            "iter_rel_p50": (median(ratios), "ratio"),
            "iter_rel_tail": (tail_rel, "ratio"),
        }
        if not args.trace:
            e2e["peak_alloc_mb"] = (peak_bytes(wl.memory_iteration) / 1e6, "MB")
        extra = {
            "setup_wall_s": (setup_wall_s, "s"),
            "iter_s_p50": (median(timed.durations), "s"),
            "iter_s_tail": (tail_s, "s"),
            "samples_per_s": (timed.images / timed.program_s(), "images/s"),
            "ref_s_p50": (median(timed.ref_durations), "s"),
            "ref_err": (ref_err, "abs"),
            "error_rate": (failed / attempted, "ratio"),
        }

        layers = rows = roof = None
        if args.trace:
            roof = machine.roofline()
            stage_mem = stage_peaks(wl.model, wl.probe_forward(wl.model))
            layers, totals = layer_metrics(
                tracer, phase, median(base.ratios()), median(phase.ratios()),
                details["stage_macs"]["by_stage"], stage_mem, data_ms, roof)
            rows = top_table(totals, max(len(phase.durations), 1), roof)
            spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
            with open(spans_path, "w") as f:
                json.dump({"names": tracer.names, "start": tracer.starts, "end": tracer.ends,
                           "parent": tracer.parents, "iteration": tracer.iters}, f)

        print(f"workload {args.workload}  seed {args.seed}  "
              f"{len(timed.durations)} untraced iterations over {timed.wall:.2f} s")
        for name, (v, unit) in {**e2e, **extra}.items():
            note = ""
            if name in ("iter_rel_tail", "iter_s_tail"):
                note = f"p{tail_pct:.1f} of {len(timed.durations)} samples, {beyond} beyond"
            elif name == "iter_rel_p50":
                note = "iteration time over the reference time after it"
            elif name == "ref_s_p50":
                note = "reference computation, timed after every iteration"
            elif name == "setup_s":
                note = (f"{setup_wall_s:.3f} s measured x {reference.NOMINAL_S} s nominal / "
                        f"{median(setup_refs):.4f} s reference")
            elif name == "setup_wall_s":
                note = (f"import {import_s:.3f} + median of {SETUP_REPEATS} set-ups "
                        f"with warm-up {median(setups):.3f}")
            elif name == "ref_err":
                note = "max |f32 - f64| on the probe batch"
            elif name == "error_rate":
                note = f"{failed} of {attempted} failed"
            print(fmt_metric(name, v, unit, note))
        for name, ok, detail in check_list:
            print(f"  check {name:<22} {'ok' if ok else 'FAILED'}"
                  + ("" if ok else f"  {json.dumps(detail, default=str)}"))
        for p in phases:
            for err in p.errors:
                print(f"  iteration failure: {err}")
        if rows:
            print(format_table(rows, roof))

        result = {"header": head, "end_to_end": {k: v for k, (v, _) in {**e2e, **extra}.items()},
                  "tail": {"percentile": tail_pct, "samples": len(timed.durations),
                           "beyond": beyond},
                  "durations_s": [p.durations for p in phases],
                  "ref_durations_s": [p.ref_durations for p in phases],
                  "data_ms": data_ms, "checks": check_list, "per_layer": layers,
                  "roofline": roof, "top_layers": rows}
        name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
        with open(os.path.join(OUT_DIR, name), "w") as f:
            json.dump(result, f, indent=1, default=str)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def unit_of(name):
    """Unit of a per-layer metric, from its name."""
    suffix = name.rsplit(".", 1)[-1]
    if suffix.endswith("_ms") or suffix == "ms":
        return "ms"
    if suffix.endswith("_mb"):
        return "MB"
    return {"gflop_s": "GFLOP/s", "sgemm_gflop_s": "GFLOP/s", "copy_gb_s": "GB/s",
            "overhead": "ratio", "coverage": "ratio"}.get(suffix, "count")


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SystemExit:
        raise
    except Exception:
        traceback.print_exc()
        sys.exit(1)
