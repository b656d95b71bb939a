"""Benchmark of the skyrme package: charged descent, spin7 relaxation and
flat-connection sector queries.

    python3 perfbench/run.py --workload descent-su2 --seed 1 --seconds 40 --trace 0

Run from the repository root.  `--trace 0` runs ops for `--seconds` and
reports the end-to-end metrics named in BENCHMARK.json; `--trace 1` runs a
fixed list of ops under per-layer spans and reports the per-layer metrics.
The last stdout line is the result object; the lines before it describe the
environment and every op.  A full record is written to
`.perfbench_out/<workload>-seed<seed>-trace<t>.json` for `compare.py`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import envinfo  # noqa: E402
import hostspeed  # noqa: E402
from spans import Patches, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, IterationProbe, Op  # noqa: E402

SETUP_REPEATS = 5
SWEEP_ALGEBRAS = ("su2", "su3", "spin7", "g2")
SWEEP_REPEATS = 3


def import_skyrme():
    sys.path.insert(0, str(ROOT / "src"))
    import skyrme.algebra
    import skyrme.errors
    import skyrme.fileio
    import skyrme.holonomy
    import skyrme.invariants
    import skyrme.lattice
    import skyrme.minimize
    return SimpleNamespace(algebra=skyrme.algebra, errors=skyrme.errors, fileio=skyrme.fileio,
                           holonomy=skyrme.holonomy, invariants=skyrme.invariants,
                           lattice=skyrme.lattice, minimize=skyrme.minimize)


def timing(samples: list) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, and the count."""
    s = sorted(samples)
    out = {"median": statistics.median(s), "n": len(s)}
    if len(s) >= 11:
        i = len(s) - 11
        out[f"p{100.0 * (i + 1) / len(s):.0f}"] = s[i]
    return out


def run_guarded(work, k: int) -> Op:
    """One op; an error the op does not classify makes the op failed and wrong."""
    try:
        return work.run_op(k)
    except Exception as exc:
        return Op(k, "error", termination=type(exc).__name__, failed=True,
                  wrong=f"unexpected {type(exc).__name__}: {exc}",
                  detail={"traceback": traceback.format_exc()})


def end_to_end(work, ops: list, setup: list) -> tuple[dict, dict]:
    """Every end-to-end metric in reference seconds (see hostspeed.py), with
    the timing summaries behind them; samples are (wall, reference) pairs."""
    per_op = [(op.wall_s, op.ref_s) for op in ops]
    per_iter = [p for op in ops for p in zip(op.iter_wall_s, op.iter_s)] or per_op
    queries = [p for op in ops for p in zip(op.query_wall_s, op.query_s)]
    # a workload without a relaxation (or without a descent) reports its own
    # per-unit time there, so every metric is present and moves only with
    # that workload's path: see README.md
    samples = {
        "setup_s": setup,
        "descent_iter_s": per_iter,
        "relax_s": per_op if work.relax_per_op else per_iter,
        "query_s": queries,
    }
    summary = {}
    for name, pairs in samples.items():
        summary[name] = timing([ref for _, ref in pairs])
        summary[name]["wall_median"] = statistics.median(wall for wall, _ in pairs)
    values = {name: s["median"] for name, s in summary.items()}
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return values, summary


def sweep(sk) -> dict:
    """group_exp / group_log ns per matrix and lattice_gradient seconds on one
    fixed 8^3 random field per algebra, timed directly (no spans)."""
    out = {}
    lat = sk.lattice.TorusLattice((8, 8, 8))
    for spec in SWEEP_ALGEBRAS:
        alg = sk.algebra.parse_algebra(spec)
        u = sk.lattice.make_random(lat, alg, 0, smoothness=1.0, amplitude=0.3)
        links = u.values.conj().swapaxes(-1, -2) @ np.roll(u.values, -1, axis=0)
        coords = sk.algebra.group_log(alg, links, threshold=1.8)[0]
        nmat = math.prod(coords.shape[:-1])
        cases = {
            "group_exp_ns_per_matrix": (lambda: sk.algebra.group_exp(alg, coords), 1e9 / nmat),
            "group_log_ns_per_matrix": (lambda: sk.algebra.group_log(alg, links, threshold=1.8),
                                        1e9 / nmat),
            "lattice_gradient_s": (lambda: sk.minimize.lattice_gradient(u), 1.0),
        }
        for metric, (fn, scale) in cases.items():
            times = [_timed_call(fn) for _ in range(SWEEP_REPEATS)]
            out[f"sweep.{spec}.{metric}"] = statistics.median(times) * scale
    return out


def _timed_call(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        sk = import_skyrme()
    except ImportError as exc:
        print(f"perfbench: cannot import the skyrme package from src/: {exc}", file=sys.stderr)
        return 2

    out_dir = Path.cwd() / ".perfbench_out"
    workdir = out_dir / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # traced runs report wall seconds; untraced ones calibrate against the host
    clock = hostspeed.WallClock() if args.trace else hostspeed.HostClock()
    probe = IterationProbe(clock)
    counting = Patches()
    counting.wrap(sk.minimize, "lattice_gradient", probe.wrapper)
    try:
        env = envinfo.environment()
        print("run " + json.dumps({"workload": args.workload, "seed": args.seed,
                                   "seconds": args.seconds, "trace": args.trace}), flush=True)
        print("env " + json.dumps(env), flush=True)
        work = WORKLOADS[args.workload](sk, args.seed, workdir, probe, clock)
        if args.trace:
            record = traced_run(work, sk, spec,
                                out_dir / f"{args.workload}-seed{args.seed}-spans.jsonl")
        else:
            record = untraced_run(work, sk, spec, args.seconds)
    finally:
        counting.restore()
        shutil.rmtree(workdir, ignore_errors=True)

    ops = record.pop("ops_list")
    for op in ops:
        print("op " + json.dumps(asdict(op)), flush=True)
    result = {
        "correct": all(not op.wrong for op in ops),
        "attempted": len(ops),
        "failed": sum(op.failed or bool(op.wrong) for op in ops),
        "metrics": record["metrics"],
    }
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=env, ops=[asdict(op) for op in ops], result=result)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    for name, summary in record.get("timings", {}).items():
        print(f"timing {name} " + json.dumps(summary))
    print(json.dumps(result), flush=True)
    return 0


def _named(values: dict, listed: list) -> dict:
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise RuntimeError(f"benchmark computed no value for {missing}")
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in listed}


def untraced_run(work, sk, spec, seconds: float) -> dict:
    clock = work.clock
    setup = []
    for _ in range(SETUP_REPEATS):
        t0 = clock.mark()
        work.setup()
        t1 = time.perf_counter()
        clock.mark()
        setup.append((t1 - t0, clock.ref_seconds(t0, t1)))
    ops = []
    t0 = time.perf_counter()
    while True:
        ops.append(run_guarded(work, len(ops)))
        elapsed = time.perf_counter() - t0
        # start another op only if one as long as the longest so far still fits
        if elapsed + max(elapsed / len(ops), max(op.wall_s for op in ops)) > seconds:
            break
    values, summary = end_to_end(work, ops, setup)
    return {"metrics": _named(values, spec["end_to_end"]), "timings": summary, "ops_list": ops}


def traced_run(work, sk, spec, spans_path: Path) -> dict:
    tracer = Tracer()
    patches = Patches()
    tracer.phase = "setup"
    tracer.install(patches, vars(sk))
    try:
        work.setup()
    finally:
        patches.restore()
    # reference: op 0 without spans, then the fixed op list with spans; the
    # two runs of op 0 are compared per host speed (hostspeed.py) around each
    cal = [hostspeed.point()]
    reference = run_guarded(work, 0)
    cal.append(hostspeed.point())
    tracer.phase = "ops"
    tracer.install(patches, vars(sk))
    try:
        ops = [run_guarded(work, 0)]
        cal.append(hostspeed.point())
        ops += [run_guarded(work, k) for k in range(1, work.traced_ops)]
    finally:
        patches.restore()
    tracer.write(spans_path)
    tracer.check_nesting()
    terminations = {}
    for op in ops:
        terminations[op.termination] = terminations.get(op.termination, 0) + 1
    values = layer_metrics(tracer, terminations)
    values["fail_share"] = sum(op.failed for op in ops) / len(ops)
    speed_ratio = (cal[0] + cal[1]) / (cal[1] + cal[2])
    values["trace.overhead"] = (ops[0].wall_s / reference.wall_s * speed_ratio
                                if reference.wall_s > 0 else 0.0)
    values.update(sweep(sk))
    return {"metrics": _named(values, spec["per_layer"]), "ops_list": [reference] + ops}


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
