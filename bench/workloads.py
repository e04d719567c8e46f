"""Seeded inputs, the three workloads, and the checks on their outputs.

The program only ever sees the INI files written here. Each workload is one
or more *check* invocations, run once per benchmark run, and an *operation*:
the invocations that are repeated and timed. Every invocation is an
``adiakit`` command in its own interpreter with ``--workers 1``.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass

# Default initial point (y.., x.., p.., q..) and domain box of each fixture.
# They are fixed here, not read from the program, so that a later change of
# the program's defaults cannot change the benchmark's inputs.
FIXTURES = {
    "elastic_pendulum": {"point": (0.5, 0.0, 0.1, 1.0),
                         "low": (-4.0, -4.0, -4.0, -4.0), "high": (4.0, 4.0, 4.0, 4.0)},
    "charged_particle": {"point": (0.1, 0.3, 0.2, 1.0),
                         "low": (-1.0, -1.0, -1.0, 0.5), "high": (1.0, 1.0, 1.0, 2.0)},
}
JITTER = 0.1  # seeded points lie within ±JITTER of the default point, per coordinate

DEFAULT_EPS = (0.2, 0.1, 0.05, 0.025, 0.0125)
LONG_EPS = (0.05, 0.025, 0.0125, 0.00625)  # horizons T = 1/ε up to 160

# The program's slope contract, copied so that a loosened window in the
# program does not loosen the benchmark's check.
SLOPE_WINDOWS = {0: (0.7, 1.3), 1: (1.7, 2.3), 2: (1.7, math.inf)}

# Largest accepted |printed − closed form| per (flow mode, term). See README.md
# for the errors measured when these were set.
TOLERANCES = {
    ("analytic", "F1"): 1e-11,
    ("analytic", "F2"): 1e-10,
    ("numeric", "F1"): 1e-10,
    ("numeric", "F2"): 1e-9,
}


@dataclass(frozen=True)
class Invocation:
    """One ``adiakit`` command: ``key`` names it within its workload."""

    key: str
    ini: str
    argv: tuple  # subcommand and its flags, without --config/--out/--workers
    flow_mode: str = "analytic"

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    checks: tuple   # invocations run once per benchmark run
    operation: tuple  # invocations repeated and timed, in this order


def seeded_point(rng: random.Random, fixture: str) -> tuple:
    spec = FIXTURES[fixture]
    point = []
    for x, lo, hi in zip(spec["point"], spec["low"], spec["high"]):
        point.append(round(min(max(x + rng.uniform(-JITTER, JITTER), lo), hi), 6))
    return tuple(point)


def _fmt(values) -> str:
    return ",".join(repr(v) for v in values)


def config_ini(fixture, point, *, eps=DEFAULT_EPS, orders=(0, 1, 2), samples=512,
               rtol=1e-11, nodes=64, flow_mode="analytic") -> str:
    """INI text using only keys that the config format keeps long term."""
    return (f"[fixture]\nname = {fixture}\n\n"
            f"[integrator]\nmethod = rk45\nrtol = {rtol!r}\natol = 1e-13\n\n"
            f"[quadrature]\nnodes = {nodes}\nflow_mode = {flow_mode}\n\n"
            f"[experiment]\ninitial = {_fmt(point)}\neps = {_fmt(eps)}\n"
            f"horizon_c = 1.0\nsamples = {samples}\norders = {_fmt(orders)}\n\n"
            f"[output]\nformat = both\n")


def _check_invocation(fixture, point, order):
    return Invocation(f"check-{fixture}", config_ini(fixture, point),
                      ("invariant", "--order", str(order)))


def build(name: str, seed: int) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    if name == "drift_order2":
        pend = seeded_point(rng, "elastic_pendulum")
        part = seeded_point(rng, "charged_particle")
        # 96 samples and rtol 1e-9 keep one operation near 9 s while the
        # order-2 series stays the larger part of it. Against rtol 1e-11 the
        # fitted slopes move by at most 0.0021 at the default points, and the
        # energy drift stays below 1 % of the measured drift (cells turn
        # invalid at 10 %).
        return Workload(name, checks=(
            _check_invocation("elastic_pendulum", pend, 2),
            _check_invocation("charged_particle", part, 1),
        ), operation=(
            Invocation("drift-elastic_pendulum",
                       config_ini("elastic_pendulum", pend, samples=96, rtol=1e-9), ("drift",)),
            Invocation("drift-charged_particle",
                       config_ini("charged_particle", part, samples=96, rtol=1e-9), ("drift",)),
        ))
    if name == "drift_long_horizon":
        part = seeded_point(rng, "charged_particle")
        # rtol 1e-10 keeps one operation near 7 s; the fitted slopes equal
        # those at rtol 1e-11 to four decimals at the default point.
        return Workload(name, checks=(
            _check_invocation("charged_particle", part, 1),
        ), operation=(
            Invocation("drift-charged_particle",
                       config_ini("charged_particle", part, eps=LONG_EPS, orders=(0, 1),
                                  rtol=1e-10), ("drift",)),
        ))
    if name == "numeric_flow":
        points = [seeded_point(rng, "elastic_pendulum") for _ in range(2)]
        return Workload(name, checks=(), operation=tuple(
            Invocation(f"invariant-numeric-{i}",
                       config_ini("elastic_pendulum", p, nodes=8, flow_mode="numeric"),
                       ("invariant", "--order", "2"), flow_mode="numeric")
            for i, p in enumerate(points)))
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("drift_order2", "drift_long_horizon", "numeric_flow")


# ---------------------------------------------------------------------------
# checks: each returns a list of problems (empty when the output is correct)
# ---------------------------------------------------------------------------

def check_drift(out_dir) -> list:
    """Slope windows, cell validity and drift ordering in ``drift.json``."""
    with open(out_dir / "drift.json", encoding="utf-8") as fh:
        report = json.load(fh)
    problems = []
    for cell in report["cells"]:
        if not cell["valid"]:
            problems.append(f"invalid cell eps={cell['eps']} order={cell['order']}")
    for order, fit in report["slopes"].items():
        lo, hi = SLOPE_WINDOWS[int(order)]
        if not lo <= fit["slope"] <= hi:
            problems.append(f"order {order} slope {fit['slope']:.4f} outside [{lo}, {hi}]")
    orders = set(report["orders"])
    if {0, 1, 2} <= orders:
        drift = {(c["eps"], c["order"]): c["drift"] for c in report["cells"]}
        for eps in sorted(report["eps_grid"])[:3]:
            d0, d1, d2 = (drift[(eps, o)] for o in (0, 1, 2))
            if not d2 < d1 < d0:
                problems.append(f"drift not ordered at eps={eps}: {d0:.3e} {d1:.3e} {d2:.3e}")
    return problems


_TERM = re.compile(r"^(F[12])\s*=\s*(\S+)", re.MULTILINE)


def check_invariant(stdout: str, closed: dict, order: int, flow_mode: str):
    """Printed F₁/F₂ against the fixture's closed forms: (problems, errors)."""
    printed = {term: float(value) for term, value in _TERM.findall(stdout)}
    problems, errors = [], {}
    for k, term in ((1, "F1"), (2, "F2")):
        reference = closed.get(term)
        if k > order or reference is None:
            continue
        if term not in printed:
            problems.append(f"{term} missing from the output")
            continue
        errors[term] = abs(printed[term] - reference)
        if not errors[term] <= TOLERANCES[(flow_mode, term)]:
            problems.append(f"{term} = {printed[term]!r} differs from closed form "
                            f"{reference!r} by {errors[term]:.2e}")
    return problems, errors
