"""One repetition of a benchmark workload, in a fresh Python process.

    python3 bench/worker.py CONFIG OUT_DIR MODE

MODE is `setup` (stop at the first time step), `solve` (`nsfourier run`
on CONFIG, then CERTIFY_PASSES certification passes) or `trace` (the
run and one pass, with every layer wrapped by `tracer.Tracer`).  The clock starts before `nsfourier` is
imported, because users pay the import on every `nsfourier run`.  The
result is written to OUT_DIR/result.json; the CLI's own outputs
(`diagnostics.csv`, snapshots) go to OUT_DIR as well.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


CERTIFY_PASSES = 5


class SetupDone(Exception):
    """Raised at the first time step of a `setup` repetition."""


def certify(traj, config, span) -> tuple[float, dict]:
    """The post-run verifiers, as acceptance criteria 5-7 and
    `nsfourier degiorgi` run them; returns (seconds, verdicts)."""
    from nsfourier.coefficients import RenormFunction
    from nsfourier.degiorgi import ladder_run
    from nsfourier.diagnostics import (SeparableTestFunction, apriori_monitor,
                                       check_energy_inequality, renorm_report)

    start = time.perf_counter()
    with span("degiorgi.ladder_run"):
        cert = ladder_run(traj, theta_floor=config.theta_floor, k_max=8,
                          omega=0.0, delta=config.delta, laws=traj.laws)
    with span("diagnostics.check_energy_inequality"):
        energy = check_energy_inequality(traj, config.delta, config.eps)
    with span("diagnostics.apriori_monitor"):
        monitor = apriori_monitor(traj)
    T = traj.final.t
    phis = [SeparableTestFunction(traj.grid, T),
            SeparableTestFunction(traj.grid, T, time_power=2.0, amp=0.5),
            SeparableTestFunction(traj.grid, T, amp=0.3, kx=2, ky=1)]
    renorm = []
    for power in (1.0, 0.5):
        for phi in phis:
            with span("diagnostics.renorm_report"):
                rep = renorm_report(traj, RenormFunction.power(power), phi,
                                    config.delta, traj.laws)
            renorm.append({"l": power, "passes": rep["passes"],
                           "residual": rep["residual"], "tol": rep["tol"]})
    elapsed = time.perf_counter() - start
    return elapsed, {
        "ladder_decay_ok": cert["decay_ok"],
        "energy_passes": energy["passes"],
        "apriori_finite": all(math.isfinite(v) for v in monitor.values()),
        "renorm": renorm,
    }


def run(config_path: str, out: str, mode: str) -> dict:
    from nsfourier import cli, coupler
    from nsfourier.config import parse_config

    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    first_step = []
    step_s = []
    step = coupler.fixed_point_step

    def timed_step(*args, **kwargs):
        start = time.perf_counter()
        if not first_step:
            first_step.append(start)
            if mode == "setup":
                raise SetupDone
        try:
            return step(*args, **kwargs)
        finally:
            step_s.append(time.perf_counter() - start)

    trajectories = []
    run_simulation = cli.run_simulation

    def keep_trajectory(config):
        trajectories.append(run_simulation(config))
        return trajectories[-1]

    coupler.fixed_point_step = timed_step
    cli.run_simulation = keep_trajectory
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(["run", config_path, "--output-dir", out])
        except SetupDone:
            return {"setup_s": first_step[0] - T0}
    end = time.perf_counter()
    if code != 0:
        raise RuntimeError(f"nsfourier run exited with code {code}")

    config = parse_config(config_path)
    if tracer:
        passes = [certify(trajectories[0], config, tracer.span)]
    else:
        # the pass is short and noisy, so an untraced solve times it
        # several times
        passes = [certify(trajectories[0], config,
                          lambda name: contextlib.nullcontext())
                  for _ in range(CERTIFY_PASSES)]
    verdicts = passes[0][1]
    result = {
        "setup_s": first_step[0] - T0,
        "solve_s": end - first_step[0],
        "step_s": step_s,
        "certify_s": [p[0] for p in passes],
        "verdicts": verdicts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        tracer.restore()
        tracer.write(os.path.join(out, "spans.json"))
        result["layers"] = tracer.layer_metrics()
    return result


def versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main() -> int:
    config_path, out, mode = sys.argv[1:4]
    result = run(config_path, out, mode)
    result["versions"] = versions()
    with open(os.path.join(out, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
