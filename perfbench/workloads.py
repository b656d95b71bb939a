"""The three benchmark workloads: seeded inputs, one op, and its output check.

Each workload builds its inputs from the seed in `setup` and hands the
package only generated arrays and files.  `run_op(k)` performs op k and
returns an `Op` record; it never raises for an outcome the package is
documented to produce, so a failed descent is a failed op, not a crash.

Why these three (each planned optimisation works in one and not another):
- descent-su2: the paper's charged minimizer; per-call overhead, group_log
  and the B-series dominate.  At 12^3 every op stalls or drifts today.
- relax-spin7: dim 21, 8x8 matrices; the bracket einsum and the B(ad l)
  transpose dominate; a real time to grad_tol.
- sector-su3: no gradient at all; develop_cube and its flatness gate
  dominate, so minimizer changes must leave it unchanged.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# sector queries per op input, so the query time has enough samples per run
QUERY_REPEATS = 5
# descent iterations per timing block; matches the descent-su2 sector interval
BLOCK_ITERS = 10


@dataclass
class Op:
    """One op's outcome.  Times exclude calibration marks; `*_s` lists and
    `ref_s` are in reference seconds (hostspeed.py), `*wall_s` in wall seconds."""

    index: int
    kind: str                 # "descent", "query", "refusal" or "error"
    iterations: int = 0       # descent iterations; 1 for a query
    termination: str = ""
    failed: bool = False
    wrong: str = ""           # non-empty when an output check failed
    wall_s: float = 0.0       # the timed work: the descent, or the whole query
    ref_s: float = 0.0
    iter_s: list = field(default_factory=list)       # per iteration, one per block
    iter_wall_s: list = field(default_factory=list)
    query_s: list = field(default_factory=list)      # one per sector query
    query_wall_s: list = field(default_factory=list)
    detail: dict = field(default_factory=dict)


class IterationProbe:
    """Counts minimize.lattice_gradient calls, one per descent iteration, and
    takes a clock mark before every BLOCK_ITERS-th call so that a descent is
    timed in calibrated blocks.  The untraced run's only probe in the package."""

    def __init__(self, clock):
        self.clock = clock
        self.reset()

    def reset(self) -> None:
        self.calls = 0
        self.cuts = []        # (end of one block, start of the next) around each mark

    def wrapper(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.calls and self.calls % BLOCK_ITERS == 0:
                end = time.perf_counter()
                self.cuts.append((end, self.clock.mark()))
            self.calls += 1
            return fn(*args, **kwargs)
        return counted


class Workload:
    name = ""
    traced_ops = 0            # fixed op count of a traced run
    relax_per_op = True       # relax_s from whole ops; False: ops end before a solution

    def __init__(self, sk, seed: int, workdir: Path, probe: IterationProbe, clock):
        self.sk = sk          # namespace of skyrme modules, looked up at call time
        self.seed = seed
        self.workdir = workdir
        self.probe = probe
        self.clock = clock

    def setup(self) -> None:
        raise NotImplementedError

    def run_op(self, k: int) -> Op:
        raise NotImplementedError

    def _build_algebra(self, spec: str):
        # the algebra table is cached per process; clear it so setup pays the build
        cache_clear = getattr(self.sk.algebra._build_atomic, "cache_clear", None)
        if cache_clear is not None:
            cache_clear()
        return self.sk.algebra.parse_algebra(spec)

    def _query_sector(self, op: Op, u, alpha, charges, label: str) -> None:
        start = self.clock.mark()
        for _ in range(QUERY_REPEATS):
            sec = self.sk.invariants.sector_of(u)
            end = time.perf_counter()
            after = self.clock.mark()
            op.query_wall_s.append(end - start)
            op.query_s.append(self.clock.ref_seconds(start, end))
            start = after
        if sec.alpha != alpha or sec.charges != charges:
            op.wrong = f"{label} sector {sec.report_line()}, expected alpha={alpha} c={charges}"

    def _descend(self, op: Op, u0, opts, charges):
        """Run minimize_map, time it in blocks, classify its end and check its
        output; returns the descent trace, or None when the descent failed."""
        errors = self.sk.errors
        t0 = self.clock.mark()
        self.probe.reset()
        try:
            final, trace = self.sk.minimize.minimize_map(u0, opts)
        except errors.LineSearchError as exc:
            op.termination, op.failed, op.detail["error"] = "stalled", True, str(exc)
            final = None
        except errors.SectorError as exc:
            op.termination, op.failed, op.detail["error"] = "sector_drift", True, str(exc)
            final = None
        t1 = time.perf_counter()
        self.clock.mark()
        # block j runs between marks; the last one ends with the op, so it
        # carries the terminal line search
        cuts = self.probe.cuts
        starts = [t0] + [b for _, b in cuts]
        ends = [e for e, _ in cuts] + [t1]
        sizes = [BLOCK_ITERS] * len(cuts) + [max(self.probe.calls - BLOCK_ITERS * len(cuts), 1)]
        for a, b, n in zip(starts, ends, sizes):
            ref = self.clock.ref_seconds(a, b)
            op.wall_s += b - a
            op.ref_s += ref
            op.iter_wall_s.append((b - a) / n)
            op.iter_s.append(ref / n)
        op.iterations = self.probe.calls
        if final is None:
            return None
        op.termination = trace.termination.replace(" ", "_")
        energies = np.asarray(trace.energies)
        op.detail.update(energy_first=float(energies[0]), energy_last=float(energies[-1]),
                         grad_norm_last=float(trace.grad_norms[-1]))
        if np.any(np.diff(energies) > 1e-12 * max(1.0, abs(energies[0]))):
            op.wrong = "descent energies increased"
        self._query_sector(op, final, (0, 0, 0), charges, "final")
        return trace


class DescentSu2(Workload):
    """Charge-1 su2 hedgehog at 12^3 under minimize_map (sector check every 10)."""

    name = "descent-su2"
    traced_ops = 2
    relax_per_op = False      # every op stalls or drifts today; a fix would lengthen ops

    def setup(self) -> None:
        sk = self.sk
        alg = self._build_algebra("su2")
        lat = sk.lattice.TorusLattice((12, 12, 12))
        rng = np.random.default_rng(self.seed)
        # op 0 is the centred lump; later ops move the centre by up to one cell per axis
        offsets = [np.zeros(3)] + [rng.uniform(-1.0, 1.0, 3) * np.array(lat.spacings)
                                   for _ in range(7)]
        centre = np.array(lat.lengths) / 2
        self.inputs = [(off, sk.lattice.make_hedgehog(lat, alg, 0.45, center=tuple(centre + off)))
                       for off in offsets]
        self.opts = sk.minimize.MinimizeOptions(sector_interval=10, max_iters=200)

    def run_op(self, k: int) -> Op:
        off, u0 = self.inputs[k % len(self.inputs)]
        op = Op(k, "descent")
        op.detail["offset_cells"] = [float(v) for v in off * np.array(u0.lattice.dims)]
        self._query_sector(op, u0, (0, 0, 0), (1,), "input")
        self._descend(op, u0, self.opts, (1,))
        return op


class RelaxSpin7(Workload):
    """Trivial-sector relaxation of a smooth random spin7 field at 4^3 to grad_tol 1e-5."""

    name = "relax-spin7"
    traced_ops = 5

    def setup(self) -> None:
        sk = self.sk
        alg = self._build_algebra("spin7")
        lat = sk.lattice.TorusLattice((4, 4, 4))
        rng = np.random.default_rng(self.seed)
        seeds = rng.integers(0, 2 ** 31, 16)
        self.inputs = [(int(s), sk.lattice.make_random(lat, alg, int(s), smoothness=1.0,
                                                       amplitude=0.3)) for s in seeds]
        self.opts = sk.minimize.MinimizeOptions(grad_tol=1e-5)

    def run_op(self, k: int) -> Op:
        field_seed, u0 = self.inputs[k % len(self.inputs)]
        op = Op(k, "descent")
        op.detail["make_random_seed"] = field_seed
        self._query_sector(op, u0, (0, 0, 0), (0,), "input")
        trace = self._descend(op, u0, self.opts, (0,))
        if trace is not None and trace.termination != "converged":
            op.failed = True  # no solution to grad_tol within max_iters
        elif trace is not None:
            e0, e1 = trace.energies[0], trace.energies[-1]
            if not (trace.grad_norms[-1] <= self.opts.grad_tol and e1 <= 1e-6 * e0):
                op.wrong = f"not relaxed: E {e0:.3e} -> {e1:.3e}"
        return op


class SectorSu3(Workload):
    """Flat-connection sector queries at su3 12^3, cover spacing 4, forms read from SKYA."""

    name = "sector-su3"
    traced_ops = 10
    BLOCK = 5                 # one refusal op in every block of five

    def setup(self) -> None:
        sk = self.sk
        alg = self._build_algebra("su3")
        lat = sk.lattice.TorusLattice((12, 12, 12))
        rng = np.random.default_rng(self.seed)
        write = sk.fileio.write_one_form
        centre = np.array(lat.lengths) / 2
        self.hedgehogs = []
        for j in range(3):
            off = rng.uniform(-1.0, 1.0, 3) * np.array(lat.spacings)
            u = sk.lattice.make_hedgehog(lat, alg, 0.45, center=tuple(centre + off))
            path = self.workdir / f"hedgehog{j}.skya"
            write(path, sk.lattice.log_derivative(u))
            self.hedgehogs.append(path)
        self.zero = self.workdir / "zero.skya"
        write(self.zero, sk.lattice.zero_one_form(lat, alg, sampling="link"))
        # constant form along one circle direction: flat, holonomy exp(L_i t_i V)
        V = sk.algebra.primitive_su2(alg).image_of_v
        t = rng.uniform(0.5, 1.0, 3)
        coeffs = np.stack([np.broadcast_to(ti * V, lat.dims + (alg.dim,)) for ti in t])
        self.abelian = self.workdir / "abelian.skya"
        write(self.abelian, sk.lattice.AlgebraOneForm(lat, alg, coeffs, sampling="link"))
        self.abelian_holonomy = np.stack([sk.algebra.group_exp(alg, ti * li * V)
                                          for ti, li in zip(t, lat.lengths)])
        self.refusal_slot = rng.integers(0, self.BLOCK, 64)
        self.cover = sk.holonomy.CubicalCover(lat, 4)

    def run_op(self, k: int) -> Op:
        sk = self.sk
        refusal = k % self.BLOCK == self.refusal_slot[(k // self.BLOCK) % len(self.refusal_slot)]
        path = self.abelian if refusal else self.hedgehogs[k % len(self.hedgehogs)]
        op = Op(k, "refusal" if refusal else "query", iterations=1)
        op.detail["form"] = path.name
        t0 = self.clock.mark()
        a = sk.fileio.read_one_form(path, sampling="link")
        b = sk.fileio.read_one_form(self.zero, sampling="link")
        rep = sk.holonomy.holonomy_rep(a, cover=self.cover)
        try:
            sec = sk.invariants.invariant_of_connection(a, b, cover=self.cover)
            op.termination = "answered"
        except sk.errors.HolonomyMismatchError as exc:
            sec, op.termination = None, "refused"
            op.detail["error"] = str(exc)
        t1 = time.perf_counter()
        self.clock.mark()
        op.wall_s, op.ref_s = t1 - t0, self.clock.ref_seconds(t0, t1)
        op.query_wall_s.append(op.wall_s)
        op.query_s.append(op.ref_s)
        expected = self.abelian_holonomy if refusal else np.eye(a.algebra.rep_dim)[None]
        op.detail["holonomy_error"] = float(np.abs(rep.elements - expected).max())
        if op.detail["holonomy_error"] > 1e-8:
            op.wrong = f"holonomy off by {op.detail['holonomy_error']:.3e}"
        elif refusal and sec is not None:
            op.wrong = f"abelian form answered {sec.report_line()} instead of a refusal"
        elif not refusal and sec is None:
            op.wrong = f"hedgehog form refused: {op.detail['error']}"
        elif not refusal and (sec.alpha != (0, 0, 0) or sec.charges != (1,)):
            op.wrong = f"sector {sec.report_line()}, expected alpha=(0,0,0) c=(1)"
        return op


WORKLOADS = {w.name: w for w in (DescentSu2, RelaxSpin7, SectorSu3)}
