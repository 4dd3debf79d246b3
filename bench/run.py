"""nsfourier benchmark: time to a certified solution on three workloads.

    python3 bench/run.py --workload default --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  Every repetition is a fresh worker
process (`bench/worker.py`) running `nsfourier run` on a generated
config, so set-up includes the import users pay on every run.  The run
repeats rounds of workers for `--seconds` (at least two rounds).  With
`--trace 0` a round is one set-up-only worker and one solve, and the run
reports the end-to-end metrics; with `--trace 1` a round is one untraced
and one traced solve, and the run reports the per-layer metrics from
`bench/tracer.py`.  Every solve is checked: the diagnostics CSV against
the stored reference (canonical inputs) or the solver's invariants
(other seeds), and the certification verdicts.  The last line of
standard output is one JSON object; see `bench/NOTES.md`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
OUT_ROOT = ".bench_out"
RUN_LIMIT_S = 170.0
MIN_ROUNDS = 2
BLAS_THREADS = 1

# section -> key -> value overrides of RunConfig; seed 0 is exactly this
WORKLOADS = {
    "default": {
        "time": {"dt": 0.01, "t_final": 0.5},
        "initial": {"m0_amplitude": 1e-4, "rho_amp": 0.05,
                    "theta_amp": 1e-4},
    },
    # the first 20 of the canonical 50 steps (t_final 0.1): the same
    # CG-bound regime at a cost that fits four or more solves in a run
    "stressed": {
        "time": {"dt": 0.002, "t_final": 0.04},
        "initial": {"m0_amplitude": 1.0},
    },
    "fine": {
        "grid": {"nx": 128, "ny": 128},
        "basis": {"n_modes": 64},
        "time": {"dt": 0.01, "t_final": 0.03},
        "initial": {"m0_amplitude": 1e-4, "rho_amp": 0.05,
                    "theta_amp": 1e-4},
    },
}

# renormalized-inequality verdicts that fail at this commit and are not
# gated: on `stressed` every (h, phi) pair misses its tolerance by four to
# five orders of magnitude, a known defect (ROADMAP item 4); see NOTES.md
UNGATED_RENORM = {"stressed"}

# reference CSV comparison: |value - reference| <= RTOL * column scale
RTOL = 1e-8
ENERGY_COLUMNS = ("kinetic_energy", "thermal_energy", "cum_dissipation",
                  "cum_eps_dissipation", "cum_sink", "energy_slack")
ENERGY_SLACK_FACTOR = 1e-10  # the run-time guard in coupler.run_simulation


def workload_config(workload: str, seed: int) -> dict:
    """Config overrides for (workload, seed).

    Seed 0 is the canonical config.  On `default` and `fine` other seeds
    jitter the three initial amplitudes by up to 10%.  `stressed` ignores
    the seed: its Newton and CG counts change by up to 26% under
    round-off-sized changes of the initial data (NOTES.md), so jittered
    inputs would measure that sensitivity rather than the code.
    """
    cfg = {sec: dict(keys) for sec, keys in WORKLOADS[workload].items()}
    if seed == 0 or workload == "stressed":
        return cfg
    rng = random.Random(f"{workload}:{seed}")
    init = cfg["initial"]
    for key in ("m0_amplitude", "rho_amp", "theta_amp"):
        init[key] *= 1.0 + rng.uniform(-0.1, 0.1)
    return cfg


def config_text(cfg: dict) -> str:
    lines = []
    for section, keys in cfg.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value!r}" for key, value in keys.items()]
    return "\n".join(lines) + "\n"


def read_csv(path: str) -> tuple[list[str], list[list[float]]]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [[float(v) for v in line.split(",")] for line in fh if line.strip()]
    return header, rows


def check_invariants(header, rows, cfg: dict) -> list[str]:
    """The solver's own guarantees, read back from diagnostics.csv."""
    col = {name: i for i, name in enumerate(header)}
    problems = []
    if not all(math.isfinite(v) for row in rows for v in row):
        problems.append("non-finite value in diagnostics.csv")
    t_final = cfg["time"]["t_final"]
    if abs(rows[-1][col["time"]] - t_final) > 1e-9 * t_final:
        problems.append(f"run ended at t = {rows[-1][col['time']]!r}")
    e0 = rows[0][col["kinetic_energy"]] + rows[0][col["thermal_energy"]]
    worst = max(row[col["energy_slack"]] for row in rows)
    if worst > ENERGY_SLACK_FACTOR * e0:
        problems.append(f"energy slack {worst!r} above {ENERGY_SLACK_FACTOR}*E0")
    lo, hi = rows[0][col["rho_min"]], rows[0][col["rho_max"]]
    if any(r[col["rho_min"]] < lo - 1e-12 or r[col["rho_max"]] > hi + 1e-12
           for r in rows):
        problems.append("density left its initial bounds")
    if min(r[col["theta_min"]] for r in rows) < 0.0:
        problems.append("negative temperature")
    return problems


def check_reference(header, rows, ref_path: str) -> list[str]:
    """Whole-file comparison against the stored seed-0 diagnostics.

    Each column is compared at RTOL times its largest reference magnitude;
    the energy columns, including the signed slack, at RTOL times the
    largest total energy."""
    ref_header, ref = read_csv(ref_path)
    if header != ref_header or len(rows) != len(ref):
        return [f"diagnostics.csv has {len(rows)} rows and columns {header}; "
                f"the reference has {len(ref)} rows and {ref_header}"]
    col = {name: i for i, name in enumerate(header)}
    energy = max(r[col["kinetic_energy"]] + r[col["thermal_energy"]] for r in ref)
    problems = []
    for name, i in col.items():
        scale = energy if name in ENERGY_COLUMNS else max(abs(r[i]) for r in ref)
        worst = max(abs(a[i] - b[i]) for a, b in zip(rows, ref))
        if worst > RTOL * scale:
            problems.append(f"{name} differs from the reference by {worst:.3g} "
                            f"(bound {RTOL * scale:.3g})")
    return problems


def check_verdicts(verdicts: dict, workload: str) -> list[str]:
    problems = [name for name in ("ladder_decay_ok", "energy_passes",
                                  "apriori_finite") if not verdicts[name]]
    if workload not in UNGATED_RENORM:
        problems += [f"renorm l={r['l']:g} residual {r['residual']:.3g} > "
                     f"tol {r['tol']:.3g}" for r in verdicts["renorm"]
                     if not r["passes"]]
    return problems


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "NSFOURIER_OUTPUT_DIR"}
    env["PYTHONPATH"] = os.path.abspath("src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class Run:
    """The repetitions of one benchmark run and their checks."""

    def __init__(self, args):
        self.workload = args.workload
        self.seed = args.seed
        self.cfg = workload_config(args.workload, args.seed)
        self.dir = os.path.join(OUT_ROOT, f"{args.workload}-seed{args.seed}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.config_path = os.path.join(self.dir, "config.cfg")
        with open(self.config_path, "w") as fh:
            fh.write(config_text(self.cfg))
        self.env = worker_env()
        self.start = time.perf_counter()
        self.attempted = 0
        self.failed: set[int] = set()
        self.failures: list[str] = []
        self.timings: list[dict] = []
        self.versions: dict = {}

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def fail(self, rep: int, message: str) -> None:
        self.failed.add(rep)
        self.failures.append(f"rep {rep}: {message}")

    def rep(self, mode: str) -> dict | None:
        """One worker process; returns its result if it ran and passed."""
        self.attempted += 1
        rep = self.attempted
        out = os.path.join(self.dir, f"rep{rep}")
        os.makedirs(out)
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH, "worker.py"),
                 self.config_path, out, mode],
                env=self.env, capture_output=True, text=True,
                timeout=max(RUN_LIMIT_S - self.elapsed(), 1.0))
        except subprocess.TimeoutExpired:
            self.fail(rep, f"{mode} timed out")
            return None
        if proc.returncode != 0:
            err = proc.stderr.strip().splitlines() or ["no output"]
            self.fail(rep, f"{mode} raised: {err[-1]}")
            return None
        with open(os.path.join(out, "result.json")) as fh:
            result = json.load(fh)
        result["rep"] = rep
        self.versions = result["versions"]
        self.timings.append({"rep": rep, "mode": mode, **{
            k: result[k] for k in ("setup_s", "solve_s", "certify_s", "step_s")
            if k in result}})
        problems = [] if mode == "setup" else self.check(out, result)
        if os.path.exists(os.path.join(out, "spans.json")):
            os.replace(os.path.join(out, "spans.json"),
                       os.path.join(self.dir, "spans.json"))
        shutil.rmtree(out)
        for problem in problems:
            self.fail(rep, f"{mode}: {problem}")
        return None if problems else result

    def check(self, out: str, result: dict) -> list[str]:
        header, rows = read_csv(os.path.join(out, "diagnostics.csv"))
        problems = check_invariants(header, rows, self.cfg)
        if self.cfg == WORKLOADS[self.workload]:
            problems += check_reference(
                header, rows, os.path.join(BENCH, "reference",
                                           f"{self.workload}.csv"))
        return problems + check_verdicts(result["verdicts"], self.workload)

    def rounds(self, modes: tuple, minimum: int, seconds: float) -> list:
        """Rounds of one worker per mode: at least `minimum` rounds, more
        while another round fits in `seconds`.  Returns each mode's
        passing results."""
        results = [[] for _ in modes]
        durations = []
        while len(durations) < minimum or (
                self.elapsed() + statistics.median(durations) <= seconds):
            start = self.elapsed()
            # alternate which mode goes first, so drift favours neither
            order = list(zip(modes, results))[::(-1) ** len(durations)]
            for mode, kept in order:
                result = self.rep(mode)
                if result is not None:
                    kept.append(result)
            durations.append(self.elapsed() - start)
            if self.elapsed() > RUN_LIMIT_S / 2:  # a slow host: stop early
                break
        return results


def end_to_end(setups: list[dict], solves: list[dict]) -> dict:
    """Medians over the run; step percentiles over every step of every
    solve in the run."""
    steps_ms = [1e3 * t for r in solves for t in r["step_s"]]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in setups + solves),
        "solve_s": statistics.median(r["solve_s"] for r in solves),
        "step_ms_p50": statistics.median(steps_ms),
        "step_ms_p90": statistics.quantiles(steps_ms, n=10,
                                            method="inclusive")[8],
        "certify_s": statistics.median(t for r in solves
                                       for t in r["certify_s"]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in solves),
    }


def per_layer(run: Run, untraced: list[dict], traced: list[dict]) -> dict:
    """Medians of the traced layer times; counts must repeat exactly, and a
    repetition whose counts differ from the first one's has failed."""
    layers = {}
    for name, first in traced[0]["layers"].items():
        values = [r["layers"][name] for r in traced]
        if isinstance(first, int):
            for r in traced[1:]:
                if r["layers"][name] != first:
                    run.fail(r["rep"], f"count {name} = {r['layers'][name]} "
                                       f"differs from the first run's {first}")
            layers[name] = first
        else:
            layers[name] = statistics.median(values)
    traced_solve = statistics.median(r["solve_s"] for r in traced)
    layers["trace.solve_s"] = traced_solve
    layers["trace.overhead_s"] = traced_solve - statistics.median(
        r["solve_s"] for r in untraced)
    return layers


def machine_meta(versions: dict) -> dict:
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS, **versions}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "nsfourier", "__init__.py")):
        print("error: run from the root of an nsfourier checkout "
              "(src/nsfourier not found)", file=sys.stderr)
        return 2

    run = Run(args)
    metrics, notes = None, []
    if args.trace:
        untraced, traced = run.rounds(("solve", "trace"), MIN_ROUNDS,
                                      args.seconds)
        if untraced and traced:
            metrics = per_layer(run, untraced, traced)
            plain = statistics.median(sum(r["step_s"]) for r in untraced)
            notes.append(
                f"fixed_point_step: the traced layers' self times sum to "
                f"{metrics['coupler.step_s']:.4g} s per solve; the untraced "
                f"total is {plain:.4g} s")
    else:
        # set-up is short and its noise comes in bursts, so its extra
        # samples are spread over the run rather than taken back to back
        setups, solves = run.rounds(("setup", "solve"), MIN_ROUNDS,
                                    args.seconds)
        if solves:
            metrics = end_to_end(setups, solves)
            n_steps = sum(len(r["step_s"]) for r in solves)
            notes.append(f"step_ms_p50, step_ms_p90: {n_steps} steps from "
                         f"{len(solves)} solves")
            renorm = solves[0]["verdicts"]["renorm"]
            notes.append(f"renorm_report: {sum(r['passes'] for r in renorm)} of "
                         f"{len(renorm)} verdicts pass" + (
                             " (not gated on this workload)"
                             if args.workload in UNGATED_RENORM else ""))

    meta = machine_meta(run.versions)
    with open(os.path.join(run.dir, "meta.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "config": run.cfg, "machine": meta,
                   "attempted": run.attempted, "failures": run.failures,
                   "repetitions": run.timings,
                   "metrics": metrics}, fh, indent=1)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{run.attempted} worker runs in {run.elapsed():.1f} s")
    print("machine " + " ".join(f"{k}={v}" for k, v in meta.items()))
    for failure in run.failures:
        print(f"FAILED {failure}")
    print(f"failed_frac = {len(run.failed) / run.attempted:.3f} "
          f"({len(run.failed)} of {run.attempted} worker runs)")
    if metrics is None:
        print("error: no repetition completed", file=sys.stderr)
        return 1
    metrics = {name: {"value": value, "unit": unit(name)}
               for name, value in metrics.items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for note in notes:
        print(note)
    print(json.dumps({"correct": not run.failed, "attempted": run.attempted,
                      "failed": len(run.failed), "metrics": metrics}))
    return 0


UNITS = {"step_ms_p50": "ms", "step_ms_p90": "ms", "peak_rss_mb": "MB",
         "basis.assembly_gflop": "GFLOP", "basis.assembly_gbyte": "GB",
         "basis.assembly_gflop_per_s": "GFLOP/s", "grid.snapshot_bytes": "B"}


def unit(name: str) -> str:
    return UNITS.get(name, "s" if name.endswith("_s") else "count")


if __name__ == "__main__":
    sys.exit(main())
