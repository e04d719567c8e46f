"""Run configuration: flat-sectioned INI files, parsed and emitted losslessly.

Sections and keys::

    [fixture]     name, plus the fixture's own parameters
                  (elastic_pendulum: omega, gamma, omega_scale;
                   charged_particle: b, lambda)
    [integrator]  method (``rk45`` only), rtol, atol, max_steps
    [quadrature]  nodes, flow_mode
    [experiment]  initial, eps, horizon_c, samples, orders, order, strict
    [output]      dir, format

``method`` may only be ``rk45``, the one integrator (DOP853, see
``integrators``), so it is checked and not stored. ``initial`` is the flat coordinate vector in block order
(y.., x.., p.., q..).
``nodes`` caps the per-period orbit node count (a power of two): each
evaluation takes the smallest N ≤ ``nodes`` that resolves its orbit profiles
(``CircleAction.resolve``).
Unknown sections or keys are rejected. Numbers are decimal literals; lists are
comma-separated. Two removed keys are rejected with messages of their own:
``variant``, which chose between two readings of F₂ (F₂ now has a single
definition), and ``inner_nodes``, which sized the orbits behind the finite
differences that F₂ once took of F₁ (F₂ now takes the slow derivatives of F₁
from the one orbit per point).
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field
from typing import Optional

from .errors import ConfigError
from .fixtures import list_fixtures
from .integrators import IntegratorConfig

__all__ = ["RunConfig"]

# canonical builder-keyword spelling for config keys that differ
_PARAM_ALIASES = {"lambda": "lam"}
_PARAM_NAMES = {
    "elastic_pendulum": ("omega", "gamma", "omega_scale"),
    "charged_particle": ("b", "lam"),
}


@dataclass(frozen=True)
class RunConfig:
    fixture: str = "elastic_pendulum"
    params: dict = field(default_factory=dict)
    initial: Optional[tuple] = None
    eps_grid: tuple = (0.2, 0.1, 0.05, 0.025, 0.0125)
    horizon_c: float = 1.0
    samples: int = 512
    orders: tuple = (0, 1, 2)
    order: int = 2
    strict: bool = False
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

        known_sections = {"fixture", "integrator", "quadrature", "experiment", "output"}
        unknown = set(cp.sections()) - known_sections
        if unknown:
            raise ConfigError(f"unknown config sections: {sorted(unknown)}")

        values = {}

        fix = dict(cp["fixture"]) if cp.has_section("fixture") else {}
        name = fix.pop("name", cls.fixture)
        if name not in list_fixtures():
            raise ConfigError(f"unknown fixture {name!r}")
        params = {}
        allowed = _PARAM_NAMES[name]
        for key, raw in fix.items():
            canonical = _PARAM_ALIASES.get(key, key)
            if canonical not in allowed:
                raise ConfigError(f"unknown key {key!r} in [fixture] for {name!r}")
            params[canonical] = _parse_float(key, raw)
        values["fixture"] = name
        values["params"] = params

        def take(section, key, conv, target=None):
            if cp.has_option(section, key):
                values[target or key] = conv(key, cp.get(section, key))

        if cp.has_section("integrator"):
            _reject_unknown(cp, "integrator", {"method", "rtol", "atol", "max_steps"})
            if cp.has_option("integrator", "method"):
                _parse_choice({"rk45"})("method", cp.get("integrator", "method"))
            take("integrator", "rtol", _parse_float)
            take("integrator", "atol", _parse_float)
            take("integrator", "max_steps", _parse_int)

        if cp.has_section("quadrature"):
            if cp.has_option("quadrature", "inner_nodes"):
                raise ConfigError(
                    "key 'inner_nodes' was removed: F2 takes the slow derivatives of F1 "
                    "from one orbit of 'nodes' samples per point, so there are no "
                    "inner orbits to size")
            _reject_unknown(cp, "quadrature", {"nodes", "flow_mode"})
            take("quadrature", "nodes", _parse_int)
            take("quadrature", "flow_mode", _parse_choice({"analytic", "numeric"}))

        if cp.has_section("experiment"):
            if cp.has_option("experiment", "variant"):
                raise ConfigError(
                    "key 'variant' was removed: F2 now has a single definition, "
                    "-(2/omega) S({H, F1}_1), so there is no variant to choose")
            _reject_unknown(cp, "experiment",
                            {"initial", "eps", "horizon_c", "samples", "orders",
                             "order", "strict"})
            take("experiment", "initial", _parse_float_list, "initial")
            take("experiment", "eps", _parse_float_list, "eps_grid")
            take("experiment", "horizon_c", _parse_float)
            take("experiment", "samples", _parse_int)
            take("experiment", "orders", _parse_int_list, "orders")
            take("experiment", "order", _parse_int)
            take("experiment", "strict", _parse_bool)

        if cp.has_section("output"):
            _reject_unknown(cp, "output", {"dir", "format"})
            take("output", "dir", lambda _k, v: v, "out_dir")
            take("output", "format", _parse_choice({"csv", "json", "both"}), "out_format")

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
        out = io.StringIO()
        out.write("[fixture]\n")
        out.write(f"name = {self.fixture}\n")
        reverse_alias = {v: k for k, v in _PARAM_ALIASES.items()}
        for key in _PARAM_NAMES[self.fixture]:
            if key in self.params:
                out.write(f"{reverse_alias.get(key, key)} = {self.params[key]!r}\n")
        out.write("\n[integrator]\n")
        out.write(f"rtol = {self.rtol!r}\n")
        out.write(f"atol = {self.atol!r}\n")
        out.write(f"max_steps = {self.max_steps}\n")
        out.write("\n[quadrature]\n")
        out.write(f"nodes = {self.nodes}\n")
        out.write(f"flow_mode = {self.flow_mode}\n")
        out.write("\n[experiment]\n")
        if self.initial is not None:
            out.write(f"initial = {_fmt_list(self.initial)}\n")
        out.write(f"eps = {_fmt_list(self.eps_grid)}\n")
        out.write(f"horizon_c = {self.horizon_c!r}\n")
        out.write(f"samples = {self.samples}\n")
        out.write(f"orders = {_fmt_list(self.orders)}\n")
        out.write(f"order = {self.order}\n")
        out.write(f"strict = {'true' if self.strict else 'false'}\n")
        if output:
            out.write("\n[output]\n")
            out.write(f"dir = {self.out_dir}\n")
            out.write(f"format = {self.out_format}\n")
        return out.getvalue()

    # -- adapters ------------------------------------------------------------

    def integrator_config(self) -> IntegratorConfig:
        return IntegratorConfig(rtol=self.rtol, atol=self.atol, max_steps=self.max_steps)

    def drift_config(self, workers: int = 1):
        from .experiments import DriftConfig

        return DriftConfig(
            fixture=self.fixture,
            params=dict(self.params),
            initial=self.initial,
            eps_grid=self.eps_grid,
            horizon_c=self.horizon_c,
            samples=self.samples,
            integrator=self.integrator_config(),
            orders=self.orders,
            outer_nodes=self.nodes,
            flow_mode=self.flow_mode,
            workers=workers,
        )

    def build(self):
        """(fixture, action, initial point) for this configuration."""
        return self.drift_config().build()


def _reject_unknown(cp, section, allowed):
    unknown = set(cp[section]) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in [{section}]: {sorted(unknown)}")


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


def _parse_bool(key, raw):
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"key {key!r}: {raw!r} is not a boolean")


def _parse_float_list(key, raw):
    return tuple(_parse_float(key, part.strip()) for part in raw.split(",") if part.strip())


def _parse_int_list(key, raw):
    return tuple(_parse_int(key, part.strip()) for part in raw.split(",") if part.strip())


def _parse_choice(options):
    def conv(key, raw):
        if raw not in options:
            raise ConfigError(f"key {key!r}: {raw!r} not in {sorted(options)}")
        return raw

    return conv


def _fmt_list(values):
    return ",".join(repr(v) if isinstance(v, float) else str(v) for v in values)
