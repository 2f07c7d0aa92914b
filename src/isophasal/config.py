"""Flat key-value run configuration with dotted section keys.

The format is deliberately trivial to parse in any language: one `key = value`
per line, `#` comments, no nesting.  Example:

    bracket.builtin = cross1
    cutoff.r1sq = 1.0
    cutoff.r2sq = 1.0
    quadrature.nodes = 100000

Unknown keys and type errors are reported with their line number so the CLI
can exit with a usable diagnostic.
"""

from __future__ import annotations

import dataclasses
import hashlib
from pathlib import Path

from .brackets import Bracket, bracket_from_text, builtin_bracket
from .heat import QuadratureSpec, _scale_list
from .metric import CutoffProfile

__all__ = ["ConfigError", "RunConfig", "parse_config", "load_config", "DEFAULT_CONFIG_TEXT"]


class ConfigError(ValueError):
    def __init__(self, message: str, line: int | None = None, field: str | None = None):
        self.line = line
        self.field = field
        where = []
        if line is not None:
            where.append(f"line {line}")
        if field is not None:
            where.append(f"field {field!r}")
        prefix = f"config error ({', '.join(where)}): " if where else "config error: "
        super().__init__(prefix + message)


_DEFAULTS: dict[str, str] = {
    "bracket.builtin": "cross1",
    "bracket.file": "",
    "bracket2.builtin": "",
    "bracket2.file": "",
    "cutoff.kind": "bump_product",
    "cutoff.r1sq": "1.0",
    "cutoff.r2sq": "1.0",
    "cutoff.amplitude": "1.0",
    "cutoff.s": "1.0",
    "quadrature.nodes": "100000",
    "quadrature.replicates": "8",
    "quadrature.seed": "0",
    "quadrature.preflight": "true",
    "sweep.s_list": "1,2,4,8,16",
    "intertwine.band_limit": "2",
    "intertwine.n_points": "40",
    "intertwine.n_functions": "8",
    "output.dir": "out",
}

DEFAULT_CONFIG_TEXT = "\n".join(f"{k} = {v}" for k, v in _DEFAULTS.items() if v) + "\n"


def _parse_lines(text: str) -> dict[str, tuple[str, int]]:
    out: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line=lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _DEFAULTS:
            raise ConfigError(f"unknown key {key!r}", line=lineno, field=key)
        out[key] = (value, lineno)
    return out


def _get_float(entries, key, positive=True) -> float:
    value, lineno = entries[key]
    try:
        v = float(value)
    except ValueError:
        raise ConfigError(f"not a number: {value!r}", line=lineno, field=key) from None
    if positive and v <= 0:
        raise ConfigError(f"must be positive, got {v}", line=lineno, field=key)
    return v


def _get_int(entries, key, minimum=1) -> int:
    value, lineno = entries[key]
    try:
        v = int(value)
    except ValueError:
        raise ConfigError(f"not an integer: {value!r}", line=lineno, field=key) from None
    if v < minimum:
        raise ConfigError(f"must be >= {minimum}, got {v}", line=lineno, field=key)
    return v


def _get_bool(entries, key) -> bool:
    value, lineno = entries[key]
    low = value.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {value!r}", line=lineno, field=key)


@dataclasses.dataclass(frozen=True)
class RunConfig:
    entries: dict[str, str]
    config_hash: str
    base_dir: Path

    def _bracket_from(self, section: str) -> Bracket | None:
        name = self.entries[f"{section}.builtin"]
        file = self.entries[f"{section}.file"]
        if file:
            path = (self.base_dir / file).resolve() if not Path(file).is_absolute() else Path(file)
            try:
                return bracket_from_text(path.read_text())
            except (OSError, ValueError) as exc:
                raise ConfigError(str(exc), field=f"{section}.file") from exc
        if name:
            try:
                return builtin_bracket(name)
            except ValueError as exc:
                raise ConfigError(str(exc), field=f"{section}.builtin") from exc
        return None

    def bracket(self) -> Bracket:
        b = self._bracket_from("bracket")
        if b is None:
            raise ConfigError("no bracket configured", field="bracket.builtin")
        return b

    def second_bracket(self) -> Bracket | None:
        b2 = self._bracket_from("bracket2")
        if b2 is not None:
            b1 = self.bracket()
            if (b1.m, b1.k) != (b2.m, b2.k):
                raise ConfigError(
                    f"dimension mismatch: bracket is ({b1.m},{b1.k}), bracket2 is ({b2.m},{b2.k})",
                    field="bracket2.builtin",
                )
        return b2

    def cutoff(self) -> CutoffProfile:
        return CutoffProfile(
            r1sq=float(self.entries["cutoff.r1sq"]),
            r2sq=float(self.entries["cutoff.r2sq"]),
            amplitude=float(self.entries["cutoff.amplitude"]),
            s=float(self.entries["cutoff.s"]),
            kind=self.entries["cutoff.kind"],
        )

    def quadrature(self) -> QuadratureSpec:
        return QuadratureSpec(
            n_nodes=int(self.entries["quadrature.nodes"]),
            n_replicates=int(self.entries["quadrature.replicates"]),
            seed=int(self.entries["quadrature.seed"]),
            preflight=self.entries["quadrature.preflight"] == "true",
        )

    def s_list(self) -> list[float]:
        return _scale_list(tok for tok in self.entries["sweep.s_list"].split(",") if tok.strip())

    @property
    def seed(self) -> int:
        return int(self.entries["quadrature.seed"])

    @property
    def out_dir(self) -> Path:
        p = Path(self.entries["output.dir"])
        return p if p.is_absolute() else self.base_dir / p

    def intertwine_params(self) -> tuple[int, int, int]:
        return (
            int(self.entries["intertwine.band_limit"]),
            int(self.entries["intertwine.n_points"]),
            int(self.entries["intertwine.n_functions"]),
        )


def parse_config(
    text: str,
    base_dir: Path | str = ".",
    overrides: dict[str, str] | None = None,
) -> RunConfig:
    entries_raw = _parse_lines(text)
    merged = dict(_DEFAULTS)
    for key, (value, _lineno) in entries_raw.items():
        merged[key] = value
    for key, value in (overrides or {}).items():
        if key not in _DEFAULTS:
            raise ConfigError(f"unknown key {key!r}", field=key)
        merged[key] = str(value)

    # type/range validation with line diagnostics where available
    ghost = {k: (v, entries_raw.get(k, (v, None))[1]) for k, v in merged.items()}
    for key in ("cutoff.r1sq", "cutoff.r2sq", "cutoff.s"):
        _get_float(ghost, key)
    if _get_float(ghost, "cutoff.amplitude", positive=False) < 0:
        raise ConfigError("must be nonnegative", line=ghost["cutoff.amplitude"][1], field="cutoff.amplitude")
    _get_int(ghost, "quadrature.nodes")
    _get_int(ghost, "quadrature.replicates", minimum=2)
    _get_int(ghost, "quadrature.seed", minimum=0)
    _get_int(ghost, "intertwine.band_limit", minimum=0)
    _get_int(ghost, "intertwine.n_points")
    _get_int(ghost, "intertwine.n_functions")
    _get_bool(ghost, "quadrature.preflight")
    merged["quadrature.preflight"] = "true" if _get_bool(ghost, "quadrature.preflight") else "false"

    # the output path is not part of the run semantics: identical runs written
    # to different directories must produce identical artifact bytes
    canonical = "\n".join(f"{k}={merged[k]}" for k in sorted(merged) if k != "output.dir")
    digest = hashlib.sha256(canonical.encode()).hexdigest()[:16]
    cfg = RunConfig(entries=merged, config_hash=digest, base_dir=Path(base_dir))
    # construction-time validation (raises ConfigError on inconsistency)
    cfg.bracket()
    cfg.second_bracket()
    try:
        cfg.s_list()
    except ValueError as exc:
        raise ConfigError(
            f"bad s_list {merged['sweep.s_list']!r}: {exc}",
            line=ghost["sweep.s_list"][1],
            field="sweep.s_list",
        ) from None
    try:
        cfg.cutoff()
    except ValueError as exc:
        raise ConfigError(str(exc), field="cutoff") from exc
    return cfg


def load_config(path: str | Path | None, overrides: dict[str, str] | None = None) -> RunConfig:
    if path is None:
        return parse_config(DEFAULT_CONFIG_TEXT, base_dir=".", overrides=overrides)
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    return parse_config(text, base_dir=p.parent, overrides=overrides)
