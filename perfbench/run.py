"""Run one nodulesynth benchmark workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload synth-tinyconv-64 --seed 1 \
        --seconds 30 --trace 0

The library is imported from ``src/`` of the checkout that holds this
file; without it the run exits with an error and prints no result.
``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` measures the same operations untraced and then traced,
and reports per-layer metrics from the spans.  Human-readable lines
come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run record
(machine, versions, output digests) and, when traced, the spans are
written under ``perfbench/out/``.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from tracing import Tracer, median, per_request

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3

# Metrics of the final JSON line: the names BENCHMARK.json declares.
END_TO_END = {"setup_s": "s", "volumes_per_s": "1/s", "call_s.p50": "s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "predictor.calls": "count", "predictor.s": "s",
    "predictor.ms_per_call": "ms", "predictor.voxels_per_call": "count",
    "predictor.gflop_per_volume": "GFLOP", "predictor.mb_per_call": "MB",
    "predictor.gflop_per_s": "GFLOP/s",
    "predictor.loss_and_grads_s": "s", "predictor.optimizer_s": "s",
    "solver.solve_s": "s", "solver.grid_s": "s", "solver.update_s": "s",
    "solver.self_s": "s", "solver.steps": "count",
    "forward.q_sample_s": "s", "forward.q_sample_calls": "count",
    "forward.splice_s": "s",
    "layout.crop_search_s": "s", "layout.place_s": "s",
    "layout.spec_draws": "count", "layout.place_success_ratio": "ratio",
    "volume.crop_s": "s", "volume.paste_s": "s",
    "eaas.request_s": "s", "eaas.self_s": "s", "eaas.batch_speedup": "ratio",
    "roi_frac.p50": "fraction", "roi_frac.max": "fraction",
    "nodule_frac.p50": "fraction",
    "trace.overhead_frac": "fraction", "trace.coverage": "fraction",
}
# Share of a traced run's --seconds given to each phase.
TRACE_PHASES = {"untraced": 1 / 3, "traced": 2 / 3}
BATCH_TRACE_PHASES = {"untraced": 0.25, "speedup": 0.25, "traced": 0.5}
DIGEST_OPS = 2  # the record's run digest covers this many operations
# Units of the metrics printed under each workload's own names.
NAMED_UNITS = {"setup_s": "s", "volumes_per_s": "1/s", "request_s.p50": "s",
               "train_steps_per_s": "1/s", "step_s.p50": "s",
               "step_s.p90": "s", "peak_rss_mb": "MB",
               "error_rate": "fraction"}


def import_library():
    """Import nodulesynth from this checkout's ``src/`` or exit."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import nodulesynth
    except ImportError as err:
        sys.exit(f"perfbench: cannot import nodulesynth from {src}: {err}")
    if Path(nodulesynth.__file__).resolve().parent.parent != src:
        sys.exit(f"perfbench: nodulesynth imported from {nodulesynth.__file__}, "
                 f"not from {src}")


def run_loop(state, k, seconds, tracer=None, **kw):
    """Run operations k, k+1, ... back to back (a closed loop with one
    client) until ``seconds`` have passed; at least one runs.  Returns
    the operations and the next index."""
    ops = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        ops.append(state.op(k, tracer, **kw))
        k += 1
    return ops, k


def units_of(ops):
    return [u for op in ops for u in op.units]


def volumes_per_s(ops, passed_only=True):
    """Outputs (by default only those that pass every check) per second
    of timed wall time."""
    units = units_of(ops)
    count = sum(u.ok for u in units) if passed_only else len(units)
    return count / sum(op.seconds for op in ops)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def end_to_end(wl, ops, setup_times):
    """(JSON metrics, metrics under the workload's own names)."""
    secs = [op.seconds for op in ops]
    common = {"setup_s": statistics.median(setup_times),
              "peak_rss_mb": peak_rss_mb()}
    json_metrics = dict(common, **{"volumes_per_s": volumes_per_s(ops),
                                   "call_s.p50": statistics.median(secs)})
    named = dict(common)
    if wl.root_span == "train.step":
        named["train_steps_per_s"] = json_metrics["volumes_per_s"]
        named["step_s.p50"] = statistics.median(secs)
        named["step_s.p90"] = statistics.quantiles(
            secs, n=10, method="inclusive")[-1] if len(secs) > 1 else secs[0]
    else:
        named["volumes_per_s"] = json_metrics["volumes_per_s"]
        if not wl.batch:
            named["request_s.p50"] = statistics.median(secs)
    return json_metrics, named


def per_layer(wl, tracer, phases, units):
    """Per-layer metrics from the traced phase's spans and the outputs."""
    from nodulesynth.bench import estimate_flops, tiny_conv_arch


    m = dict.fromkeys(PER_LAYER, 0.0)
    reqs = list(per_request(tracer.spans, wl.root_span).values())

    def med(f):
        return median(f(r) for r in reqs)

    m["trace.coverage"] = med(
        lambda r: r.children[r.root.id] / (r.root.end - r.root.start))
    m["trace.overhead_frac"] = (
        volumes_per_s(phases["untraced"], passed_only=False)
        / volumes_per_s(phases["traced"], passed_only=False) - 1.0)
    fracs = [u for u in units if u.roi_frac is not None]
    m["roi_frac.p50"] = median(u.roi_frac for u in fracs)
    m["roi_frac.max"] = max((u.roi_frac for u in fracs), default=0.0)
    m["nodule_frac.p50"] = median(u.nodule_frac for u in fracs)
    if wl.root_span == "train.step":
        m["predictor.loss_and_grads_s"] = med(
            lambda r: r.total("predictor.loss_and_grads"))
        m["predictor.optimizer_s"] = med(
            lambda r: r.total("predictor.optimizer"))
        return m

    m["eaas.request_s"] = med(lambda r: r.root.end - r.root.start)
    m["eaas.self_s"] = med(lambda r: r.self_time(wl.root_span))
    pred = "predictor.predict"
    m["predictor.calls"] = med(lambda r: r.count(pred))
    m["predictor.s"] = med(lambda r: r.total(pred))
    calls = sum(r.count(pred) for r in reqs)
    pred_s = sum(r.total(pred) for r in reqs)
    m["predictor.ms_per_call"] = 1000.0 * pred_s / calls if calls else 0.0
    traced_units = units_of(phases["traced"])
    voxels = sum(u.voxels for u in traced_units)
    nfe = sum(u.nfe for u in traced_units)
    m["predictor.voxels_per_call"] = voxels / nfe if nfe else 0.0
    if wl.predictor == "tinyconv":
        # Computed from the evaluated voxel counts, not measured: FLOPs
        # are linear in the voxel count, and each call holds the input
        # and every layer's output in float64.
        arch = tiny_conv_arch()
        m["predictor.gflop_per_volume"] = median(
            estimate_flops(arch, (u.voxels,)) / 1e9 for u in traced_units)
        channels = arch[0].in_ch + sum(layer.out_ch for layer in arch)
        m["predictor.mb_per_call"] = \
            8 * channels * m["predictor.voxels_per_call"] / 1e6
        m["predictor.gflop_per_s"] = (
            estimate_flops(arch, (voxels,)) / 1e9 / pred_s if pred_s else 0.0)
    m["solver.solve_s"] = med(lambda r: r.total("solver.pulmonary_solve"))
    m["solver.grid_s"] = med(lambda r: r.total("solver.make_time_grid"))
    m["solver.update_s"] = med(lambda r: r.total("solver.dpm_update"))
    m["solver.self_s"] = med(lambda r: r.self_time("solver.pulmonary_solve"))
    m["solver.steps"] = med(lambda r: r.count("solver.dpm_update"))
    m["forward.q_sample_s"] = med(lambda r: r.total("forward.q_sample"))
    m["forward.q_sample_calls"] = med(lambda r: r.count("forward.q_sample"))
    m["forward.splice_s"] = med(lambda r: r.total("forward.invert_reference")
                                + r.total("forward.masked_mix"))
    m["layout.crop_search_s"] = med(
        lambda r: r.total("layout.pick_healthy_crop"))
    m["layout.place_s"] = med(lambda r: r.total("layout.place_nodule"))
    m["layout.spec_draws"] = med(lambda r: r.count("layout.sample_nodule_spec"))
    places = sum(r.count("layout.place_nodule") for r in reqs)
    placed = sum(r.ok["layout.place_nodule"] for r in reqs)
    m["layout.place_success_ratio"] = placed / places if places else 0.0
    m["volume.crop_s"] = med(lambda r: r.total("volume.crop"))
    m["volume.paste_s"] = med(lambda r: r.total("volume.paste"))
    if "speedup" in phases:
        p1 = statistics.median(op.seconds for op in phases["speedup"][0])
        p2 = statistics.median(op.seconds for op in phases["speedup"][1])
        m["eaas.batch_speedup"] = p1 / p2
    return m


def traced_run(wl, state, seconds):
    """Untraced, then (batch only) parallelism 1 vs 2, then traced."""
    shares = BATCH_TRACE_PHASES if getattr(wl, "batch", 0) else TRACE_PHASES
    phases = {}
    phases["untraced"], k = run_loop(state, 0, seconds * shares["untraced"])
    if "speedup" in shares:
        serial, parallel = [], []
        start = time.perf_counter()
        # The same requests at parallelism 1 and 2, alternating.
        while not serial or \
                time.perf_counter() - start < seconds * shares["speedup"]:
            serial.append(state.op(k, parallelism=1))
            parallel.append(state.op(k, parallelism=wl.parallelism))
            k += 1
        phases["speedup"] = (serial, parallel)
    tracer = Tracer()
    with tracer.patched(state.trace_targets()):
        phases["traced"], k = run_loop(state, k, seconds * shares["traced"],
                                       tracer)
    ops = phases["untraced"] + phases["traced"]
    if "speedup" in phases:
        ops += phases["speedup"][0] + phases["speedup"][1]
    return ops, phases, tracer


def machine_record(seed):
    import numpy
    import scipy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads_env": {k: v for k, v in os.environ.items()
                        if k.endswith("_NUM_THREADS")},
    }


def measure(wl, seed, seconds, trace):
    """Set up ``wl`` SETUP_REPEATS times, run it for ``seconds`` and
    check every output.

    Returns the result object of the last output line, the run record
    (metrics under the workload's own names, machine, digests) and the
    tracer of a traced run (else None).
    """
    import workloads

    setup_times = []
    for _ in range(SETUP_REPEATS):
        state = None  # free the previous set-up before timing the next
        start = time.perf_counter()
        state = wl.setup(seed)
        setup_times.append(time.perf_counter() - start)

    tracer = None
    if trace:
        ops, phases, tracer = traced_run(wl, state, seconds)
    else:
        ops, _ = run_loop(state, 0, seconds)
    units = units_of(ops)
    if getattr(wl, "check_moments", False):
        failure = workloads.check_moments(units)
        if failure:
            for u in units:
                u.failures.append(failure)

    # Every phase's outputs count as attempted; end-to-end figures of a
    # traced run come from its untraced phase.
    attempted = len(units)
    failed = sum(not u.ok for u in units)
    timed = phases["untraced"] if trace else ops
    metrics, named = end_to_end(wl, timed, setup_times)
    named["error_rate"] = failed / attempted
    declared = END_TO_END
    if trace:
        metrics = per_layer(wl, tracer, phases, units)
        declared = PER_LAYER
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in declared.items()}}

    digests = [u.digest for op in ops[:DIGEST_OPS] for u in op.units]
    record = dict(machine_record(seed), workload=wl.name, seconds=seconds,
                  trace=trace, setup_s=setup_times, metrics=named,
                  ops=len(ops), samples=len(timed),
                  op_seconds=[op.seconds for op in timed],
                  attempted=attempted, failed=failed,
                  failures=[f for u in units for f in u.failures][:20],
                  digest=hashlib.sha256("".join(digests).encode()).hexdigest(),
                  digest_ops=min(DIGEST_OPS, len(ops)),
                  digests=[u.digest for u in units],
                  absent_spans=tracer.absent if tracer else [])
    return result, record, tracer


def main(argv=None):
    import_library()
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]

    result, record, tracer = measure(wl, args.seed, args.seconds, args.trace)

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(f"{stem}-spans.jsonl")
    with open(f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"ops {record['ops']}  outputs {record['attempted']}  "
          f"failed {record['failed']}")
    for name, value in record["metrics"].items():
        samples = f"(n={record['samples']})" if ".p" in name else ""
        print(f"  {name:<20} {value:<12.6g} {NAMED_UNITS[name]:<9} {samples}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
