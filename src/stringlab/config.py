"""Flat key = value experiment configuration.

Grammar: one ``key = value`` per line, ``#`` starts a comment, blank lines
ignored.  Unknown keys are rejected with the offending line number.  An
empty file yields the all-defaults configuration.  serialize() emits the
canonical form; parse(serialize(parse(text))) is idempotent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .errors import ParseError, ValidationError
from .evolve import CFL_MAX
from .initialdata import DataFamily
from .profiles import ProfileSpec

MODES = ("run", "sweep", "converge", "blowup", "verify", "tracecheck")


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str = "run"
    x0: float = -40.0
    dx: float = 0.05
    n: int = 1601
    t_end: float = 20.0
    cfl: float = 0.4
    eps_ko: float = 0.01
    gamma: float = 0.5
    delta: float = 0.1
    deltas: tuple = (0.1, 0.05, 0.025)
    N: int = 4
    f_kind: str = "gaussian"
    f_amplitude: float = 1.0
    f_center: float = 0.0
    f_width: float = 2.0
    fb_kind: str = "gaussian"
    fb_amplitude: float = 1.0
    fb_center: float = 0.0
    fb_width: float = 2.0
    probes_u: tuple = (-3.0, -1.5, 0.0, 1.5, 3.0)
    probes_ub: tuple = (-3.0, -1.5, 0.0, 1.5, 3.0)
    report_every: int = 25
    gmin: float = 1e-6
    seed: int = 0
    out: str = "out"
    dump_fields: bool = False

    def family(self) -> DataFamily:
        return DataFamily(
            gamma=self.gamma, delta=self.delta,
            f=ProfileSpec(self.f_kind, self.f_amplitude, self.f_center, self.f_width),
            fb=ProfileSpec(self.fb_kind, self.fb_amplitude, self.fb_center, self.fb_width))

    def with_(self, **kw) -> "ExperimentConfig":
        return replace(self, **kw)


_KINDS = {f.name: type(f.default) for f in fields(ExperimentConfig)}


def parse_config(text: str) -> ExperimentConfig:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(lineno, f"expected 'key = value', got {raw.strip()!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        kind = _KINDS.get(key)
        if kind is None:
            raise ParseError(lineno, f"unknown key {key!r}")
        if key in values:
            raise ParseError(lineno, f"duplicate key {key!r}")
        try:
            if kind is bool:
                if val not in ("0", "1", "true", "false"):
                    raise ValueError(val)
                values[key] = val in ("1", "true")
            elif kind is tuple:
                values[key] = tuple(float(v) for v in val.split(",") if v.strip())
            else:
                values[key] = kind(val)
        except ValueError:
            raise ParseError(lineno, f"bad value {val!r} for key {key!r}") from None
    cfg = ExperimentConfig(**values)
    validate_config(cfg)
    return cfg


def validate_config(cfg: ExperimentConfig):
    if cfg.mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}, got {cfg.mode!r}")
    if not 0.0 < cfg.gamma < 1.0:
        raise ValidationError(f"gamma out of (0, 1): {cfg.gamma}")
    if not 0.0 < cfg.cfl <= CFL_MAX:
        raise ValidationError(f"cfl out of (0, {CFL_MAX}]: {cfg.cfl}")
    if not 1 <= cfg.N <= 6:
        raise ValidationError(f"N out of [1, 6]: {cfg.N}")
    if not cfg.dx > 0:
        raise ValidationError(f"dx must be positive: {cfg.dx}")
    if cfg.n < 16:
        raise ValidationError(f"n must be >= 16: {cfg.n}")
    if not cfg.t_end > 0:
        raise ValidationError(f"t_end must be positive: {cfg.t_end}")
    if cfg.eps_ko < 0:
        raise ValidationError(f"eps_ko must be >= 0: {cfg.eps_ko}")
    # with gmin >= 0 every state that step accepts is hyperbolic (evolve.run_evolution)
    if not 0.0 <= cfg.gmin < 1.0:
        raise ValidationError(f"gmin out of [0, 1): {cfg.gmin}")
    for key in ("f_width", "fb_width"):
        if not getattr(cfg, key) > 0:
            raise ValidationError(f"{key} must be positive: {getattr(cfg, key)}")
    if cfg.mode == "sweep" and len(cfg.deltas) < 3:
        raise ValidationError("sweep needs at least 3 delta values")
    # the hierarchy fit takes log delta over distinct deltas
    if cfg.mode == "sweep" and not (all(d > 0 for d in cfg.deltas)
                                    and len(set(cfg.deltas)) == len(cfg.deltas)):
        raise ValidationError(f"sweep deltas must be positive and distinct: {cfg.deltas}")
    if cfg.mode == "converge" and cfg.delta != 0.0:
        raise ValidationError("converge mode needs the travelling-wave oracle: set delta = 0")
    if cfg.mode == "tracecheck" and cfg.N < 2:
        raise ValidationError("tracecheck needs N >= 2")
    for key in sorted(k for k, kind in _KINDS.items() if kind in (float, tuple)):
        val = getattr(cfg, key)
        if not all(math.isfinite(v) for v in (val if _KINDS[key] is tuple else (val,))):
            raise ValidationError(f"{key} must be finite: {val}")
    if cfg.mode in ("run", "sweep", "blowup", "tracecheck"):
        fam = cfg.family()
        need = fam.support_radius(k_max=2) + cfg.t_end + 2.0
        x_end = cfg.x0 + cfg.dx * (cfg.n - 1)
        if cfg.x0 > -need or x_end < need:
            raise ValidationError(
                f"domain [{cfg.x0:g}, {x_end:g}] violates the causal-margin rule: "
                f"needs to cover [-{need:g}, {need:g}] (support + t_end + 2)")


def serialize_config(cfg: ExperimentConfig) -> str:
    lines = []
    for f in fields(cfg):
        val, kind = getattr(cfg, f.name), _KINDS[f.name]
        if kind is tuple:
            txt = ",".join(f"{v:.17g}" for v in val)
        elif kind is float:
            txt = f"{val:.17g}"
        elif kind is bool:
            txt = "1" if val else "0"
        else:
            txt = str(val)
        lines.append(f"{f.name} = {txt}")
    return "\n".join(lines) + "\n"
