"""Run configuration: flat-sectioned INI files, parsed and emitted losslessly.

Sections and keys::

    [fixture]     name, plus the fixture's own parameters
                  (elastic_pendulum: omega, gamma;
                   charged_particle: b, lambda)
    [integrator]  method (``rk45`` only), rtol, atol, max_steps
    [quadrature]  nodes, flow_mode
    [experiment]  initial, eps, horizon_c, samples, orders, order
    [output]      dir, format

``RunConfig`` is the one description of a run: the commands, the drift sweep
(``experiments.order_sweep(config, workers)``) and the F₂ check all take it.
Every key outside ``[fixture]`` is one row of ``_KEYS`` (section, key, field,
parser, formatter), and that table alone drives ``parse``, the keys each
section allows and ``serialize``: a new key is one field plus one row.

``method`` may only be ``rk45``, the one integrator (DOP853, see
``integrators``), so its row checks it and stores nothing. ``initial`` is the
flat coordinate vector in block order (y.., x.., p.., q..).
``nodes`` caps the per-period orbit node count (a power of two): each
evaluation takes the smallest N ≤ ``nodes`` that resolves its orbit profiles
(``CircleAction.resolve``).
Unknown sections or keys are rejected. Numbers are decimal literals; lists are
comma-separated.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from typing import Optional

from .circle import CircleAction
from .errors import ConfigError
from .fixtures import get_fixture, list_fixtures
from .integrators import IntegratorConfig

__all__ = ["RunConfig"]

# canonical builder-keyword spelling for config keys that differ
_PARAM_ALIASES = {"lambda": "lam"}


@dataclass(frozen=True)
class RunConfig:
    """Fully describes one run; picklable for worker processes."""

    fixture: str = "elastic_pendulum"
    params: dict = field(default_factory=dict)
    initial: Optional[tuple] = None  # flat (y.., x.., p.., q..); fixture default if None
    eps_grid: tuple = (0.2, 0.1, 0.05, 0.025, 0.0125)
    horizon_c: float = 1.0
    samples: int = 512
    orders: tuple = (0, 1, 2)
    order: int = 2
    rtol: float = 1e-11
    atol: float = 1e-13
    max_steps: int = 50_000_000
    nodes: int = 64
    flow_mode: str = "analytic"
    out_dir: str = "out"
    out_format: str = "both"

    # -- construction ------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "RunConfig":
        cp = configparser.ConfigParser(interpolation=None)
        try:
            cp.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"malformed config: {exc}") from exc

        unknown = set(cp.sections()) - {"fixture"} - {row[0] for row in _KEYS}
        if unknown:
            raise ConfigError(f"unknown config sections: {sorted(unknown)}")
        for section in cp.sections():
            unknown = set(cp[section]) - {row[1] for row in _KEYS if row[0] == section}
            if section != "fixture" and unknown:
                raise ConfigError(f"unknown keys in [{section}]: {sorted(unknown)}")

        fix = dict(cp["fixture"]) if cp.has_section("fixture") else {}
        name = fix.pop("name", cls.fixture)
        if name not in list_fixtures():
            raise ConfigError(f"unknown fixture {name!r}")
        params, names = {}, tuple(get_fixture(name).params)  # the builder's keywords
        for key, raw in fix.items():
            canonical = _PARAM_ALIASES.get(key, key)
            if canonical not in names:
                raise ConfigError(f"unknown key {key!r} in [fixture] for {name!r}")
            params[canonical] = _parse_float(key, raw)

        values = {"fixture": name, "params": params}
        for section, key, target, parse, _ in _KEYS:
            if cp.has_option(section, key):
                value = parse(key, cp.get(section, key))
                if target is not None:
                    values[target] = value
        return cls(**values)

    @classmethod
    def load(cls, path) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.parse(fh.read())

    # -- emission ------------------------------------------------------------

    def serialize(self, output: bool = True) -> str:
        """INI text that ``parse`` reads back to this config.

        With ``output`` false the ``[output]`` section is left out, so that
        the text describes the run alone, not where or in which formats its
        reports were written.
        """
        reverse_alias = {v: k for k, v in _PARAM_ALIASES.items()}
        lines = ["[fixture]", f"name = {self.fixture}"]
        lines += [f"{reverse_alias.get(key, key)} = {self.params[key]!r}"
                  for key in get_fixture(self.fixture).params if key in self.params]
        current = "fixture"
        for section, key, target, _, fmt in _KEYS:
            value = None if target is None else getattr(self, target)
            if value is None or (section == "output" and not output):
                continue
            if section != current:
                lines += ["", f"[{section}]"]
                current = section
            lines.append(f"{key} = {fmt(value)}")
        return "\n".join(lines) + "\n"

    # -- adapters ------------------------------------------------------------

    def integrator_config(self) -> IntegratorConfig:
        return IntegratorConfig(rtol=self.rtol, atol=self.atol, max_steps=self.max_steps)

    def drift_config(self) -> "RunConfig":
        return self  # the run itself; bench/child.py's trace mode still calls this

    def build(self):
        """(fixture, action, initial point) for this configuration, after
        checking the values no INI parser rejects: distinct ε in (0, 1), orders
        among 0, 1 and 2 (one or more of each), a positive finite ``horizon_c``,
        two or more samples, the integrator's tolerances and the domain box."""
        if len(set(self.eps_grid)) != len(self.eps_grid):
            raise ValueError("eps grid values must be distinct")
        if not self.eps_grid or any(not 0.0 < e < 1.0 for e in self.eps_grid):
            raise ValueError("need one or more eps grid values, all in (0, 1)")
        if not self.orders or not set(self.orders) <= {0, 1, 2}:
            raise ValueError(f"need one or more orders, all among 0, 1 and 2: {list(self.orders)}")
        if not 0.0 < self.horizon_c < float("inf"):
            raise ValueError(f"horizon_c {self.horizon_c!r} must be positive and finite")
        if self.samples < 2:
            raise ValueError("need at least two samples per trajectory")
        self.integrator_config()  # raises on a bad rtol, atol or max_steps
        fixture = get_fixture(self.fixture, **self.params)
        action = CircleAction(fixture.system, flow_mode=self.flow_mode, nodes=self.nodes)
        initial = (fixture.initial if self.initial is None
                   else fixture.system.point(self.initial))
        fixture.system.require_in_domain(initial)
        return fixture, action, initial


def _parse_float(key, raw):
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: {raw!r} is not a number") from exc


def _parse_int(key, raw):
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: {raw!r} is not an integer") from exc


def _parse_float_list(key, raw):
    return tuple(_parse_float(key, part.strip()) for part in raw.split(",") if part.strip())


def _parse_int_list(key, raw):
    return tuple(_parse_int(key, part.strip()) for part in raw.split(",") if part.strip())


def _parse_choice(*options):
    def conv(key, raw):
        if raw not in options:
            raise ConfigError(f"key {key!r}: {raw!r} not in {sorted(options)}")
        return raw

    return conv


def _fmt_list(values):
    return ",".join(repr(v) if isinstance(v, float) else str(v) for v in values)


# (section, key, RunConfig field or None to check and not store, parser, formatter),
# in the order ``serialize`` writes them
_KEYS = (
    ("integrator", "method", None, _parse_choice("rk45"), None),
    ("integrator", "rtol", "rtol", _parse_float, repr),
    ("integrator", "atol", "atol", _parse_float, repr),
    ("integrator", "max_steps", "max_steps", _parse_int, str),
    ("quadrature", "nodes", "nodes", _parse_int, str),
    ("quadrature", "flow_mode", "flow_mode", _parse_choice("analytic", "numeric"), str),
    ("experiment", "initial", "initial", _parse_float_list, _fmt_list),
    ("experiment", "eps", "eps_grid", _parse_float_list, _fmt_list),
    ("experiment", "horizon_c", "horizon_c", _parse_float, repr),
    ("experiment", "samples", "samples", _parse_int, str),
    ("experiment", "orders", "orders", _parse_int_list, _fmt_list),
    ("experiment", "order", "order", _parse_int, str),
    ("output", "dir", "out_dir", lambda _key, raw: raw, str),
    ("output", "format", "out_format", _parse_choice("csv", "json", "both"), str),
)
