"""xfile benchmark: one seeded workload, timed end to end or traced per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fit-800x400 --seed 1 --seconds 20 --trace 0

The load is a closed loop with one client: passes of the workload run one
after another in this process, with BLAS pinned to one thread and the
``XFILE_THREADS`` pool off.  Passes start while the next one is expected to
finish within ``--seconds`` (at least one runs); each has its own seeded
inputs and its own timed set-up.  After each pass its outputs are checked.
The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, reports the per-layer metrics of the traced
ones, the tracing overhead, and fails the run if tracing changed a result.
Lines before the last carry the provenance and a readable report.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

WORKLOAD_NAMES = ("simulate-50", "fit-800x400", "trunc-heatmap", "prior-mc")
SETUP_REPEATS = 3
IMPORT_PROBE = "import numpy, xfile, xfile.io"
OUT_DIR = Path("perfbench") / "out"

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# spans whose self time is reported; together with the harness glue they
# account for the whole traced pass
SELF_TIME_SPANS = (
    "optimizer.fit", "optimizer.fit_contribution", "optimizer.run_inner",
    "optimizer.inner_logpost", "optimizer.predict_matrix",
    "optimizer.step.u", "optimizer.step.psi", "optimizer.step.beta",
    "optimizer.step.v", "optimizer.step.phi", "optimizer.step.gamma",
    "optimizer.step.eta", "optimizer.step.latent",
    "model.log_prior_contribution", "model.cell_marginal_loglik",
    "latent.update_latent",
    "shrinkage.simulate_prior_ranks",
    "simulate.run_experiment", "simulate.generate", "simulate.fit_baseline",
    "io.load_matrix", "io.load_side_info", "io.save_model",
    "io.write_fit_outputs", "io.export_analysis",
    "trace.callback",
)
CALL_COUNT_SPANS = (
    "optimizer.fit", "optimizer.fit_contribution", "optimizer.inner_logpost",
    "model.log_prior_contribution", "latent.update_latent",
)
PER_LAYER = {
    **{f"{s}.self_s": "s" for s in SELF_TIME_SPANS},
    **{f"{s}.calls": "count" for s in CALL_COUNT_SPANS},
    "optimizer.inner_logpost.per_iter": "calls/iter",
    "optimizer.run_inner.calls": "count",
    "optimizer.run_inner.iters": "count",
    "optimizer.run_inner.budget_hits": "count",
    "latent.objective_drops": "count",
    "shrinkage.variates": "count",
    "io.bytes_written": "bytes",
    "result.rmse": "data_units",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_pct": "%",
}


def pin_environment():
    """One BLAS thread and no replicate pool; must run before numpy loads."""
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    os.environ.pop("XFILE_THREADS", None)


def cache_sizes() -> dict:
    """Per-level CPU cache sizes as the kernel reports them for CPU 0."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                sizes[f"L{(index / 'level').read_text().strip()}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return sizes


def git_revision(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def provenance(root: Path, workload) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_revision": git_revision(root),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "caches": cache_sizes(),
        # computed, not measured: one n x p float64 temporary of each fit
        "cell_temporary_bytes": [n * p * 8 for n, p in workload.shapes()],
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs the same code paths on toy inputs (smoke test)")
    return ap.parse_args(argv)


class Runner:
    """Set-up, timed passes and checks of one workload in one process.

    Pass k gets its own inputs, drawn from (seed, k): a run then averages
    over several inputs instead of repeating one, and the same seed still
    gives the same inputs.
    """

    def __init__(self, workload, workdir: Path, seed: int, src: Path):
        self.wl = workload
        self.workdir = workdir
        self.seed = seed
        self.src = src
        self.setup_times: list[float] = []
        self.attempted = 0
        self.failed = 0

    def prepare(self):
        """Builds the next pass's inputs and times it: a fresh interpreter
        importing xfile, then data generation and input files."""
        k = len(self.setup_times)
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True,
                       env={**os.environ, "PYTHONPATH": str(self.src)})
        self.inputs = self.wl.setup(self.seed, k, self.workdir)
        self.setup_times.append(time.perf_counter() - t0)

    def one_pass(self, probe):
        """Runs and times a pass under ``probe``, then checks it untimed.

        A pass that raises counts all its operations as failed and yields
        no rmse or fingerprint.
        """
        outdir = self.workdir / "pass"
        operations = self.wl.operations(self.inputs)
        self.attempted += operations
        with probe:
            t0 = time.perf_counter()
            try:
                outcome = self.wl.run(self.inputs, outdir)
            except Exception:  # noqa: BLE001 - the run reports it and goes on
                traceback.print_exc()
                outcome = None
            wall = time.perf_counter() - t0
        if outcome is None:
            self.failed += operations
            shutil.rmtree(outdir, ignore_errors=True)
            return wall, None, None
        self.failed += self.wl.failures(self.inputs, outcome, outdir)
        rmse = self.wl.rmse(self.inputs, outcome)
        fingerprint = self.wl.fingerprint(outcome)
        shutil.rmtree(outdir, ignore_errors=True)
        return wall, rmse, fingerprint

    def work_units(self, probe) -> int:
        """Cell-iterations of the inner solver, or stick-breaking variates."""
        if hasattr(self.wl, "variates"):
            return self.wl.variates(self.inputs)
        return probe.stats.cell_iters


def measure(runner, seconds, tracer_mod):
    deadline = time.perf_counter() + seconds
    walls, rmses, work = [], [], 0
    while True:
        runner.prepare()
        probe = tracer_mod.IterationCounter()
        wall, rmse, _ = runner.one_pass(probe)
        walls.append(wall)
        rmses.append(rmse)
        work += runner.work_units(probe)
        if time.perf_counter() + max(runner.setup_times) + max(walls) > deadline:
            break
    while len(runner.setup_times) < SETUP_REPEATS:
        runner.prepare()
    return walls, rmses, work


def measure_traced(runner, seconds, tracer_mod):
    """Runs each input untraced, then traced; returns both sets of walls,
    the tracers and whether tracing left every result bit-identical."""
    deadline = time.perf_counter() + seconds
    plain, traced, tracers, rmses, identical = [], [], [], [], True
    while True:
        runner.prepare()
        wall, _, fp_plain = runner.one_pass(tracer_mod.IterationCounter())
        plain.append(wall)
        tracer = tracer_mod.Tracer()
        wall, rmse, fp_traced = runner.one_pass(tracer)
        traced.append(wall)
        tracers.append(tracer)
        rmses.append(rmse)
        identical &= fp_plain == fp_traced
        if time.perf_counter() + max(runner.setup_times) + max(plain) + max(traced) > deadline:
            return plain, traced, tracers, rmses, identical


def layer_metrics(tracer) -> dict:
    spans = tracer.self_times()
    out = {f"{s}.self_s": spans.get(s, (0, 0.0))[1] for s in SELF_TIME_SPANS}
    out.update({f"{s}.calls": spans.get(s, (0, 0.0))[0] for s in CALL_COUNT_SPANS})
    st = tracer.stats
    out["optimizer.run_inner.calls"] = st.calls
    out["optimizer.run_inner.iters"] = st.iters
    out["optimizer.run_inner.budget_hits"] = st.budget_hits
    out["optimizer.inner_logpost.per_iter"] = (
        out["optimizer.inner_logpost.calls"] / st.iters if st.iters else 0.0)
    out["latent.objective_drops"] = sum(tracer.objective_drops.values())
    out["shrinkage.variates"] = tracer.variates
    out["io.bytes_written"] = tracer.bytes_written
    return out


def median_or_none(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def emit(line_kind, payload):
    print(f"{line_kind}: {json.dumps(payload, sort_keys=True)}")


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_environment()
    root = Path.cwd()
    src = root / "src"
    if not (src / "xfile" / "__init__.py").is_file():
        print(f"perfbench: no xfile sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import xfile

    if Path(xfile.__file__).resolve().parent != (src / "xfile").resolve():
        print(f"perfbench: imported xfile from {xfile.__file__}, not {src}", file=sys.stderr)
        return 2
    import tracer as tracer_mod
    import workloads

    wl = workloads.WORKLOADS[args.workload](tiny=args.size == "tiny")
    workdir = root / OUT_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(wl, workdir, args.seed, src)
    try:
        emit("provenance", provenance(root, wl))
        if args.trace:
            plain, traced, tracers, rmses, identical = measure_traced(
                runner, args.seconds, tracer_mod)
            per_pass = [layer_metrics(t) for t in tracers]
            metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
            metrics["result.rmse"] = median_or_none(rmses)
            metrics["trace.wall_s"] = statistics.median(traced)
            metrics["trace.untraced_wall_s"] = statistics.median(plain)
            metrics["trace.overhead_pct"] = 100.0 * (
                metrics["trace.wall_s"] / metrics["trace.untraced_wall_s"] - 1.0)
            if not identical:
                runner.failed += 1
            tracers[-1].save(root / OUT_DIR / f"spans-{args.workload}.npz")
            drops = {f"{h},{r}": c for (h, r), c in sorted(tracers[-1].objective_drops.items())}
            emit("report", {"traced_passes": len(traced), "tracing_identical": identical,
                            "objective_drops_by_factor_restart": drops})
            units = PER_LAYER
        else:
            walls, rmses, work = measure(runner, args.seconds, tracer_mod)
            metrics = {
                "wall_s": statistics.median(walls),
                "setup_s": statistics.median(runner.setup_times),
                "work_per_s": work / sum(walls),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            per_s = "draws_per_s" if hasattr(wl, "variates") else "cell_iters_per_s"
            emit("report", {
                "workload": args.workload, "seed": args.seed, "passes": len(walls),
                "wall_s_samples": walls, "setup_s_samples": runner.setup_times,
                per_s: metrics["work_per_s"], "rmse": median_or_none(rmses),
                "error_rate": runner.failed / runner.attempted,
            })
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
