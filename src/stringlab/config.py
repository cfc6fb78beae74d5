"""Flat key = value experiment configuration.

Grammar: one ``key = value`` per line, ``#`` starts a comment, blank lines
ignored.  Unknown keys are rejected with the offending line number.  A
list value is comma separated; an empty value is the empty list, and an
empty item (``0,,1``, ``1,``, ``,``) is rejected.  An empty file yields the
all-defaults configuration.  serialize() emits the canonical form;
parse(serialize(parse(text))) is idempotent.

validate_config calls the owner of each input rule (ProfileSpec, DataFamily's
gamma, Grid1D, evolve.check_run, EnergyTracker) and raises its message as a
ValidationError; it keeps only the file's rules: mode, seed, finite floats,
sweep deltas, converge's delta = 0, tracecheck's N >= 2, the causal margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .energy import N_DEFAULT, config_tracker
from .errors import ParseError, ValidationError
from .evolve import CFL_DEFAULT, EPS_KO_DEFAULT, Grid1D, check_run
from .initialdata import DataFamily
from .nullgeom import GMIN_DEFAULT
from .profiles import ProfileSpec

MODES = ("run", "sweep", "converge", "blowup", "verify", "tracecheck")


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str = "run"
    x0: float = -40.0
    dx: float = 0.05
    n: int = 1601
    t_end: float = 20.0
    cfl: float = CFL_DEFAULT
    eps_ko: float = EPS_KO_DEFAULT
    gamma: float = 0.5
    delta: float = 0.1
    deltas: tuple = (0.1, 0.05, 0.025)
    N: int = N_DEFAULT
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
    gmin: float = GMIN_DEFAULT
    seed: int = 0
    out: str = "out"
    dump_fields: bool = False

    def profile(self, key) -> ProfileSpec:
        """The profile of the keys key_kind, ..., key_width; its ValueError names the key."""
        try:
            return ProfileSpec(*(getattr(self, f"{key}_{name}")
                                 for name in ("kind", "amplitude", "center", "width")))
        except ValueError as exc:
            raise ValueError(f"{key}_{exc}") from None

    def family(self) -> DataFamily:
        return DataFamily(gamma=self.gamma, delta=self.delta,
                          f=self.profile("f"), fb=self.profile("fb"))

    def grid(self) -> Grid1D:
        return Grid1D(self.x0, self.dx, self.n)

    def with_(self, **kw) -> "ExperimentConfig":
        return replace(self, **kw)


_KINDS = {f.name: type(f.default) for f in fields(ExperimentConfig)}


def parse_config(text: str, **over) -> ExperimentConfig:
    """Validated config of text, with over's fields in place of the file's;
    the file's own mode must be one of MODES too."""
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
                # an empty value is the empty list; an empty item is an error
                items = val.split(",") if val else []
                if not all(v.strip() for v in items):
                    raise ParseError(lineno, f"empty item in {val!r} for key {key!r}")
                values[key] = tuple(float(v) for v in items)
            else:
                values[key] = kind(val)
        except ValueError:
            raise ParseError(lineno, f"bad value {val!r} for key {key!r}") from None
    _check_mode(values.get("mode", ExperimentConfig.mode))
    cfg = ExperimentConfig(**{**values, **over})
    validate_config(cfg)
    return cfg


def _check_mode(mode):
    if mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}, got {mode!r}")


def validate_config(cfg: ExperimentConfig):
    _check_mode(cfg.mode)
    try:
        fam, grid = cfg.family(), cfg.grid()
        check_run(0.0, cfg.t_end, cfg.cfl, cfg.eps_ko, cfg.gmin)
        config_tracker(cfg)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None
    if cfg.seed < 0:
        raise ValidationError(f"seed must be >= 0: {cfg.seed}")
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
        need = fam.support_radius() + cfg.t_end + 2.0
        if cfg.x0 > -need or grid.x_end < need:
            raise ValidationError(
                f"domain [{cfg.x0:g}, {grid.x_end:g}] violates the causal-margin rule: "
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
