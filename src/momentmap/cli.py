"""Batch command-line entry point.

Parses problem files, dispatches the solvers, and emits machine-readable
results, convergence histories, and run manifests.

Subcommands
-----------
``king solve <problem.json>``
    Solve the metric equation for the representation in the problem file.
    Exit 0 on convergence, 2 on divergence (with a destabilizer certificate
    in the result), 3 when the iteration budget runs out, 1 on input errors.
``king verify-universal <problem.json> --samples N``
    Cross-check the cyclic-functional Hamiltonian against the direct formula
    (evaluated in a Cholesky-unitarized frame) on random data over the
    problem's quiver.  Exit 0 iff the maximum deviation is below 1e-10.
``adhm solve --N --k --eta``
    Solve the deformed ADHM equations.  Exit 0 iff both residuals pass the
    tolerance and the stabilizer is trivial, 2 when a solution fails them,
    3 when no start converges within the iteration budget; ``--mirror``
    flips the sign convention of eta.
``nekrasov solve <problem.json>``
    Solve a truncated metric equation on a monomial module.  Exit 0 iff the
    residual over the solved (non-frozen) sites is within tolerance.
``fock check-state --n --degree --rho --hbar``
    Exhaustively check the two Gaussian-state exchange identities in exact
    rational arithmetic.  Exit 0 iff the deviation is exactly zero.

Every subcommand takes ``--out``; the two that draw random numbers,
``king verify-universal`` and ``adhm solve``, take ``--seed``; the three
``solve`` subcommands take ``--tol`` and ``--max-iters``; ``king solve``
alone takes ``--history``, and the two ``king`` subcommands
``--allow-nonzero-slope``.  Results are deterministic JSON (sorted keys, no
timestamps); each completed run also emits a manifest with the command line,
an SHA-256 digest of the input, the seed (``null`` for a subcommand that
reads none), the tool version, the wall-clock duration, and the final
status.  The manifest goes to ``<out>.manifest.json`` when ``--out`` is
given, otherwise to the error stream.  ``--history`` writes the convergence
history as CSV with columns ``iteration,functional,residual``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import __version__
from .adhm import adhm_residuals, adhm_to_json, solve_adhm, stabilizer_dimension
from .checks import check_int
from .cyclic import ConnectionData, universal_hamiltonian
from .errors import ConsistencyError, NumericError, SolverError, ValidationError
from .fock import verify_state_identities
from .moment import KahlerData, hamiltonian_trivial, king_residual
from .nekrasov import (
    commutator_diagnostics,
    nekrasov_residual,
    residual_profile,
    solve_nekrasov,
    truncation_from_json,
)
from .quiver import Representation, matrix_to_json, parse_quiver_spec
from .solver import SolveOptions, SolveStatus, solve_metric

__all__ = ["main"]

#: Fixed acceptance threshold for the dual-route Hamiltonian check.
UNIVERSAL_TOL = 1e-10

#: Largest total degree accepted by the state-identity sweep.
STATE_DEGREE_CAP = 10


@dataclass(frozen=True)
class RunManifest:
    """Provenance record for one CLI run."""

    command_line: str
    input_digest: str
    seed: Optional[int]
    version: str
    duration_seconds: float
    status: str

    def to_json(self) -> str:
        return json.dumps(
            {
                "command_line": self.command_line,
                "input_digest": self.input_digest,
                "seed": self.seed,
                "version": self.version,
                "duration_seconds": self.duration_seconds,
                "status": self.status,
            },
            sort_keys=True,
            indent=2,
        )


def _digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digest_args(parts: dict) -> str:
    return _digest_bytes(json.dumps(parts, sort_keys=True).encode("utf-8"))


def _read_input(path: str) -> tuple[str, str]:
    """The text of the UTF-8 input file at ``path`` and the digest of its bytes."""
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise ValidationError(f"cannot read input file {path!r}: {exc}") from exc
    try:
        return raw.decode("utf-8"), _digest_bytes(raw)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"input file {path!r} is not UTF-8: {exc}") from exc


def _solve_options(args) -> SolveOptions:
    return SolveOptions(tol=args.tol, max_iters=args.max_iters)


def _write_result(args, result: dict) -> None:
    text = json.dumps(result, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _write_history(path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["iteration", "functional", "residual"])
        for row in rows:
            writer.writerow([row[0], repr(float(row[1])), repr(float(row[2]))])


def _write_manifest(args, manifest: RunManifest) -> None:
    text = manifest.to_json() + "\n"
    if args.out:
        with open(args.out + ".manifest.json", "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stderr.write(text)


# --------------------------------------------------------------------------
# subcommand handlers: each returns (exit code, result dict, status string,
# input digest)
# --------------------------------------------------------------------------


def _cmd_king_solve(args):
    text, digest = _read_input(args.problem)
    quiver, dims, eta, rep = parse_quiver_spec(
        text, allow_nonzero_slope=args.allow_nonzero_slope
    )
    if rep is None:
        raise ValidationError("problem file provides no arrow matrices to solve for")
    outcome = solve_metric(rep, eta, opts=_solve_options(args))

    result = {
        "status": outcome.status.value,
        "metric": None,
        "certificate": None,
        "history": [
            {"iteration": h.iteration, "functional": h.functional, "residual": h.residual}
            for h in outcome.history
        ],
    }
    if outcome.metric is not None:
        result["metric"] = {v: matrix_to_json(m) for v, m in outcome.metric.items()}
    if outcome.certificate is not None:
        cert = outcome.certificate
        result["certificate"] = {
            "basis": {v: matrix_to_json(b) for v, b in cert.basis.items()},
            "subdims": dict(cert.subdims),
            "slope": cert.slope,
            "invariance_defect": cert.invariance_defect,
        }

    if outcome.status is SolveStatus.CONVERGED:
        # a returned solution must stand up to independent re-evaluation
        check = king_residual(rep, outcome.metric, eta)
        if check.sup > 10 * args.tol:
            raise ConsistencyError(
                f"re-evaluated residual {check.sup:.3e} contradicts convergence"
            )
        code = 0
    elif outcome.status is SolveStatus.DIVERGED:
        code = 2
    else:
        code = 3
    if args.history:
        _write_history(args.history, outcome.history)
    return code, result, outcome.status.value, digest


def _cmd_verify_universal(args):
    text, digest = _read_input(args.problem)
    quiver, dims, eta, _rep = parse_quiver_spec(
        text, allow_nonzero_slope=args.allow_nonzero_slope
    )
    samples = check_int("samples", args.samples, 1)
    rng = np.random.default_rng(check_int("seed", args.seed, 0))

    def rand_complex(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    worst = 0.0
    for _ in range(samples):
        mats = {
            a.name: rand_complex((dims[a.dst], dims[a.src])) for a in quiver.arrows
        }
        rep = Representation(quiver, dims, mats)
        metric = {}
        for v in quiver.vertices:
            m = rand_complex((dims[v], dims[v]))
            metric[v] = m @ m.conj().T + dims[v] * np.eye(dims[v])
        gauge = {}
        for v in quiver.vertices:
            m = rand_complex((dims[v], dims[v]))
            gauge[v] = np.linalg.solve(metric[v], (m - m.conj().T) / 2)
        kahler = KahlerData(
            {a.name: float(rng.uniform(0.5, 2.0)) for a in quiver.arrows}
        )

        via_cyclic = universal_hamiltonian(
            gauge, ConnectionData(rep, metric), eta, kahler
        )

        # direct route: unitarize the frame with the Cholesky factor
        # h = L^dagger L, then use the trivial-metric Hamiltonian
        chol = {v: np.linalg.cholesky(metric[v]).conj().T for v in quiver.vertices}
        mats_flat = {
            a.name: chol[a.dst]
            @ np.linalg.solve(chol[a.src].T, mats[a.name].T).T
            for a in quiver.arrows
        }
        gauge_flat = {
            v: chol[v] @ np.linalg.solve(chol[v].T, gauge[v].T).T
            for v in quiver.vertices
        }
        direct = hamiltonian_trivial(
            gauge_flat, Representation(quiver, dims, mats_flat), eta, kahler
        )
        worst = max(worst, abs(via_cyclic - direct))

    passed = worst < UNIVERSAL_TOL
    result = {
        "samples": samples,
        "max_deviation": worst,
        "threshold": UNIVERSAL_TOL,
    }
    status = "ok" if passed else "deviation-exceeded"
    return (0 if passed else 2), result, status, digest


def _cmd_adhm_solve(args):
    eta = -args.eta if args.mirror else args.eta
    data = solve_adhm(args.N, args.k, eta, seed=args.seed, opts=_solve_options(args))
    res = adhm_residuals(data, eta)
    stab = stabilizer_dimension(data)

    result = json.loads(adhm_to_json(data, eta))
    result["residuals"] = {
        "sup_complex": res.sup_c,
        "sup_real": res.sup_r,
        "trace_defect": res.trace_defect,
    }
    result["stabilizer_dimension"] = stab

    passed = res.sup_c <= args.tol and res.sup_r <= args.tol and stab == 0
    status = "ok" if passed else "conditions-unmet"
    digest = _digest_args({"N": args.N, "k": args.k, "eta": eta, "seed": args.seed})
    return (0 if passed else 2), result, status, digest


def _cmd_nekrasov_solve(args):
    text, digest = _read_input(args.problem)
    truncation, hbar, m, buffer = truncation_from_json(text)
    opts = _solve_options(args)
    metric = solve_nekrasov(truncation, hbar, m, opts=opts, buffer=buffer)

    residuals = nekrasov_residual(truncation, metric, hbar, m)
    free_cap = truncation.D - buffer - 1
    free_max = max(
        (abs(v) for k, v in residuals.items() if sum(k) <= free_cap), default=0.0
    )
    report = commutator_diagnostics(truncation, metric, hbar)

    result = {
        "weights": [
            {"monomial": list(mono), "c": c}
            for mono, c in zip(truncation.basis, metric.values.tolist())
        ],
        "residual_profile": residual_profile(residuals),
        "commutator_profile": [
            {"level": lev, "max_deviation": report.max_per_level[i]}
            for i, lev in enumerate(report.levels)
        ],
        "solved_degree_cap": free_cap,
        "solved_max_abs": free_max,
    }
    passed = free_max <= args.tol
    status = "ok" if passed else "residual-exceeded"
    return (0 if passed else 2), result, status, digest


def _cmd_fock_check(args):
    if args.degree > STATE_DEGREE_CAP:
        raise ValidationError(
            f"degree {args.degree} exceeds the cap {STATE_DEGREE_CAP}"
        )
    try:
        rho = Fraction(args.rho)
        hbar = Fraction(args.hbar)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"rho/hbar must be rational numbers: {exc}") from exc
    deviation = verify_state_identities(args.n, args.degree, rho, hbar)
    result = {
        "n": args.n,
        "degree": args.degree,
        "rho": str(rho),
        "hbar": str(hbar),
        "deviation": deviation,
    }
    passed = deviation == 0.0
    status = "ok" if passed else "nonzero-deviation"
    digest = _digest_args(
        {"n": args.n, "degree": args.degree, "rho": str(rho), "hbar": str(hbar)}
    )
    return (0 if passed else 2), result, status, digest


# --------------------------------------------------------------------------
# parser assembly and entry point
# --------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    # flag groups: every subcommand, the randomized ones, the solvers, and
    # the quiver parsers
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the result JSON to this path")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0, help="random seed")
    solve = argparse.ArgumentParser(add_help=False)
    solve.add_argument("--tol", type=float, default=1e-10, help="residual tolerance")
    solve.add_argument(
        "--max-iters", type=int, default=10000, help="iteration budget"
    )
    slope = argparse.ArgumentParser(add_help=False)
    slope.add_argument(
        "--allow-nonzero-slope",
        action="store_true",
        help="skip the zero-slope check when parsing quiver problems",
    )

    parser = argparse.ArgumentParser(
        prog="momentmap", description="moment-map equation solvers"
    )
    groups = parser.add_subparsers(dest="group", required=True)

    king = groups.add_parser("king", help="quiver metric equations")
    king_sub = king.add_subparsers(dest="command", required=True)
    p = king_sub.add_parser(
        "solve", parents=[common, solve, slope], help="solve for a metric"
    )
    p.add_argument("problem", help="problem JSON path")
    p.add_argument("--history", help="write the convergence history CSV here")
    p.set_defaults(handler=_cmd_king_solve)
    p = king_sub.add_parser(
        "verify-universal",
        parents=[common, seeded, slope],
        help="dual-route Hamiltonian cross-check on random data",
    )
    p.add_argument("problem", help="problem JSON path (quiver and dims)")
    p.add_argument("--samples", type=int, default=100, help="number of random samples")
    p.set_defaults(handler=_cmd_verify_universal)

    adhm = groups.add_parser("adhm", help="deformed ADHM equations")
    adhm_sub = adhm.add_subparsers(dest="command", required=True)
    p = adhm_sub.add_parser(
        "solve", parents=[common, seeded, solve], help="solve the deformed equations"
    )
    p.add_argument("--N", type=int, required=True, help="gauge rank")
    p.add_argument("--k", type=int, required=True, help="framing rank")
    p.add_argument("--eta", type=float, required=True, help="deformation parameter")
    p.add_argument(
        "--mirror",
        action="store_true",
        help="flip the sign convention of eta",
    )
    # no start converged within --max-iters: the exhausted-budget code of king solve
    p.set_defaults(handler=_cmd_adhm_solve, solver_failure_code=3)

    nek = groups.add_parser("nekrasov", help="truncated metric equations on modules")
    nek_sub = nek.add_subparsers(dest="command", required=True)
    p = nek_sub.add_parser("solve", parents=[common, solve], help="solve a truncation")
    p.add_argument("problem", help="problem JSON path")
    p.set_defaults(handler=_cmd_nekrasov_solve)

    fock = groups.add_parser("fock", help="exact normal-ordering layer")
    fock_sub = fock.add_subparsers(dest="command", required=True)
    p = fock_sub.add_parser(
        "check-state", parents=[common], help="exact state-identity sweep"
    )
    p.add_argument("--n", type=int, required=True, help="number of variables")
    p.add_argument("--degree", type=int, required=True, help="maximal total degree")
    p.add_argument("--rho", required=True, help="state parameter (rational, e.g. 3/2)")
    p.add_argument("--hbar", required=True, help="deformation parameter (rational)")
    p.set_defaults(handler=_cmd_fock_check)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1

    start = time.perf_counter()
    try:
        code, result, status, digest = args.handler(args)
        duration = time.perf_counter() - start
        _write_result(args, result)
        _write_manifest(
            args,
            RunManifest(
                command_line="momentmap " + " ".join(argv),
                input_digest=digest,
                seed=getattr(args, "seed", None),
                version=__version__,
                duration_seconds=duration,
                status=status,
            ),
        )
    except (ValidationError, ConsistencyError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return getattr(args, "solver_failure_code", 2)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
