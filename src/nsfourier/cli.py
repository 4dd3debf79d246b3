"""Command line entry points.

Exit codes: 0 success, 2 configuration parse error, 3 run error,
4 certificate failure.  Every failure also prints one machine-parsable
line `error: <kind>: <message>` on stderr.  `main` decides the failure
codes for every subcommand: a ConfigError or ValueError exits 2 with
`error: parse:`, any other SolverError exits 3 with `error: run:`.  A
subcommand returns only 0 or 4 itself.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from .coefficients import RenormFunction, check_h_admissible
from .config import parse_config, read_text
from .coupler import continuation_sweep, run_simulation, schedule_config
from .degiorgi import (Lemma62Params, build_ladder, certificate_text,
                       ladder_run, lemma62_iterate, lemma62_threshold)
from .diagnostics import write_diagnostics_csv
from .errors import ConfigError, RunError, SolverError
from .grid import write_snapshot

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_RUN = 3
EXIT_CERTIFICATE = 4


def _fail(kind: str, message: str, code: int) -> int:
    print(f"error: {kind}: {message}", file=sys.stderr)
    return code


@contextlib.contextmanager
def _writing_output():
    """Turn an OSError from creating or writing the output into a
    ConfigError carrying the OS message, so it exits 2 like bad input."""
    try:
        yield
    except OSError as exc:
        raise ConfigError([str(exc)]) from exc


def _output_dir(args) -> str:
    with _writing_output():
        os.makedirs(args.output_dir, exist_ok=True)
    return args.output_dir


def cmd_run(args) -> int:
    config = parse_config(args.config)
    out = _output_dir(args)
    traj = run_simulation(config)
    with _writing_output():
        write_diagnostics_csv(traj.records, os.path.join(out, "diagnostics.csv"))
        for i, state in enumerate(traj.states):
            if i % config.output_every == 0 or i == len(traj.states) - 1:
                stem = os.path.join(out, f"snapshot_{i:05d}")
                write_snapshot(stem + "_rho.npz", state.rho, state.t, "rho")
                write_snapshot(stem + "_theta.npz", state.theta, state.t, "theta")
    rec = traj.records[-1]
    print("[summary]")
    print(f"steps = {len(traj.states) - 1}")
    print(f"final_time = {traj.final.t!r}")
    print(f"kinetic_energy = {rec.kinetic_energy!r}")
    print(f"thermal_energy = {rec.thermal_energy!r}")
    print(f"rho_range = [{rec.rho_min!r}, {rec.rho_max!r}]")
    print(f"theta_range = [{rec.theta_min!r}, {rec.theta_max!r}]")
    print(f"max_energy_slack = {max(r.energy_slack for r in traj.records)!r}")
    return EXIT_OK


def _parse_schedule(path: str, config):
    """The (n, eps, delta) entries of a schedule file; every entry must
    give a valid config when applied to `config`."""
    entries = []
    problems = []
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            problems.append(f"line {lineno}: expected 'n eps delta'")
            continue
        try:
            entry = (int(parts[0]), float(parts[1]), float(parts[2]))
        except ValueError:
            problems.append(f"line {lineno}: malformed numbers")
            continue
        entries.append(entry)
        problems += [f"line {lineno}: {p}"
                     for p in schedule_config(config, *entry).validate()]
    if problems:
        raise ConfigError(problems)
    if not entries:
        raise ConfigError(["schedule file is empty"])
    return entries


def cmd_sweep(args) -> int:
    config = parse_config(args.config)
    schedule = _parse_schedule(args.schedule, config)
    out = _output_dir(args)
    report = continuation_sweep(config, schedule)
    lines = ["[sweep-report]", f"completed = {report['completed']}"]
    for i, d in enumerate(report["differences"]):
        lines.append(f"difference_{i} = u {d['u']!r} theta {d['theta']!r}")
    for key, ratio in report["band_ratios"].items():
        lines.append(f"band {key} = {ratio!r}")
    lines.append(f"u_decreasing = {str(report['flags']['u_decreasing']).lower()}")
    lines.append(
        f"theta_decreasing = {str(report['flags']['theta_decreasing']).lower()}")
    if report["error"]:
        lines.append(f"aborted = {report['error']}")
    text = "\n".join(lines) + "\n"
    with _writing_output(), open(os.path.join(out, "sweep_report.txt"), "w") as fh:
        fh.write(text)
    print(text, end="")
    if report["error"]:
        raise RunError(report["error"])
    return EXIT_OK


def cmd_degiorgi(args) -> int:
    config = parse_config(args.config)
    # check the ladder arguments before the run
    build_ladder(config.theta_floor, args.kmax, args.omega, args.M)
    traj = run_simulation(config)
    cert = ladder_run(traj, theta_floor=config.theta_floor, k_max=args.kmax,
                      omega=args.omega, M=args.M)
    print(certificate_text(cert), end="")
    if not cert["decay_ok"]:
        return _fail("certificate", "level energies did not decay",
                     EXIT_CERTIFICATE)
    return EXIT_OK


def cmd_check_h(args) -> int:
    if args.form == "power":
        h = RenormFunction.power(args.l)
    else:
        h = RenormFunction.truncated_log(args.omega, args.cutoff)
    report = check_h_admissible(h, args.zmax, args.samples)
    print("[admissibility]")
    print(f"form = {args.form}")
    print(f"passes = {str(report['passes']).lower()}")
    print(f"worst_margin = {report['worst_margin']!r}")
    print(f"worst_z = {report['worst_z']!r}")
    return EXIT_OK if report["passes"] else EXIT_CERTIFICATE


def cmd_lemma62(args) -> int:
    if args.threshold:
        K0 = lemma62_threshold(args.C, args.A, args.beta1, args.beta2, args.U0)
        print("[lemma62-threshold]")
        print(f"K0 = {K0!r}")
        return EXIT_OK
    p = Lemma62Params(C=args.C, A=args.A, beta1=args.beta1,
                      beta2=args.beta2, K=args.K, U0=args.U0)
    result = lemma62_iterate(p, args.steps)
    print("[lemma62-iteration]")
    print("U = " + " ".join(repr(u) for u in result["sequence"]))
    print(f"converged = {str(result['converged']).lower()}")
    return EXIT_OK if result["converged"] else EXIT_CERTIFICATE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsfourier",
        description="Incompressible flow solver with temperature-dependent "
                    "transport coefficients and verification diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a simulation")
    p.add_argument("config")
    p.add_argument("--output-dir", default=".")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="continuation sweep over (n, eps, delta)")
    p.add_argument("config")
    p.add_argument("--schedule", required=True,
                   help="file with one 'n eps delta' triple per line")
    p.add_argument("--output-dir", default=".")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("degiorgi", help="run and emit the lower-bound certificate")
    p.add_argument("config")
    p.add_argument("--M", type=float, default=None)
    p.add_argument("--kmax", type=int, default=8)
    p.add_argument("--omega", type=float, default=0.0)
    p.set_defaults(func=cmd_degiorgi)

    p = sub.add_parser("check-h", help="admissibility report for a weight function")
    p.add_argument("--form", required=True, choices=["power", "truncated-log"])
    p.add_argument("--l", type=float, default=1.0)
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--cutoff", type=float, default=10.0)
    p.add_argument("--zmax", type=float, default=20.0)
    p.add_argument("--samples", type=int, default=400)
    p.set_defaults(func=cmd_check_h)

    p = sub.add_parser("lemma62", help="superlinear recursion iteration")
    p.add_argument("--C", type=float, required=True)
    p.add_argument("--A", type=float, required=True)
    p.add_argument("--beta1", type=float, required=True)
    p.add_argument("--beta2", type=float, required=True)
    p.add_argument("--K", type=float, default=1.0)
    p.add_argument("--U0", type=float, required=True)
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--threshold", action="store_true",
                   help="bisect for the convergence threshold K0 instead")
    p.set_defaults(func=cmd_lemma62)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        return _fail("parse", str(exc), EXIT_PARSE)
    except SolverError as exc:
        return _fail("run", str(exc), EXIT_RUN)


if __name__ == "__main__":
    sys.exit(main())
