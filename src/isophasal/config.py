"""Flat key-value run configuration with dotted section keys.

The format is deliberately trivial to parse in any language: one `key = value`
per line, `#` comments, no nesting.  Example:

    bracket.builtin = cross1
    cutoff.r1sq = 1.0
    cutoff.r2sq = 1.0
    quadrature.nodes = 100000

parse_config converts each key once, into the objects the commands use: the
brackets (each file read once), the CutoffProfile, the QuadratureSpec, the
scale list and the intertwining sizes.  The objects' own constructors check
the values; whatever they or a conversion reject becomes a ConfigError that
names the key, and its line when the value came from the text.  RunConfig
holds only those typed values.
"""

from __future__ import annotations

import dataclasses
import hashlib
from pathlib import Path
from typing import Callable

from .brackets import Bracket, bracket_from_text, builtin_bracket
from .heat import QuadratureSpec, _scale_list
from .intertwine import TEST_BASKET
from .metric import CutoffProfile

__all__ = ["ConfigError", "RunConfig", "parse_config", "load_config"]


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
    "cutoff.r1sq": "1.0",
    "cutoff.r2sq": "1.0",
    "cutoff.amplitude": "1.0",
    "cutoff.s": "1.0",
    "quadrature.nodes": "100000",
    "quadrature.replicates": "8",
    "quadrature.seed": "0",
    "sweep.s_list": "1,2,4,8,16",
    "intertwine.n_points": "40",
    "intertwine.n_functions": "8",
    "output.dir": "out",
}


# (key, field, conversion) of the two dataclasses the config builds; their constructors check the values.
# QuadratureSpec.preflight has no key: a configured run always certifies the metrics it integrates.
_CUTOFF_FIELDS = (("cutoff.r1sq", "r1sq", float), ("cutoff.r2sq", "r2sq", float),
                  ("cutoff.amplitude", "amplitude", float), ("cutoff.s", "s", float))
_QUADRATURE_FIELDS = (("quadrature.nodes", "n_nodes", int), ("quadrature.replicates", "n_replicates", int),
                      ("quadrature.seed", "seed", int))


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


def _int_in(lo: int, hi: int | None = None) -> Callable[[str], int]:
    def convert(value: str) -> int:
        v = int(value)
        if v < lo or (hi is not None and v > hi):
            raise ValueError(f"must be >= {lo}{'' if hi is None else f' and <= {hi}'}, got {v}")
        return v

    return convert


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """A parsed run: typed values only, built once by parse_config."""

    config_hash: str
    out_dir: Path
    s_list: tuple[float, ...]
    n_points: int
    n_functions: int
    _brackets: tuple[Bracket, Bracket | None]
    _profile: CutoffProfile
    _spec: QuadratureSpec

    def bracket(self) -> Bracket:
        return self._brackets[0]

    def second_bracket(self) -> Bracket | None:
        return self._brackets[1]

    def cutoff(self) -> CutoffProfile:
        return self._profile

    def quadrature(self) -> QuadratureSpec:
        return self._spec


def parse_config(
    text: str,
    base_dir: Path | str = ".",
    overrides: dict[str, str] | None = None,
) -> RunConfig:
    values = dict(_DEFAULTS)
    line_of: dict[str, int] = {}
    for key, (value, lineno) in _parse_lines(text).items():
        values[key], line_of[key] = value, lineno
    overrides = overrides or {}
    for key, value in overrides.items():
        if key not in _DEFAULTS:
            raise ConfigError(f"unknown key {key!r}", field=key)
        values[key] = str(value)
        line_of.pop(key, None)  # the value no longer comes from that line
    base_dir = Path(base_dir)

    def read(key: str, convert: Callable[[str], object]):
        """convert(value of key); what it rejects becomes a ConfigError naming key and line."""
        try:
            return convert(values[key])
        except (OSError, ValueError) as exc:
            raise ConfigError(str(exc), line=line_of.get(key), field=key) from None

    def set_field(obj, key: str, name: str, convert: Callable[[str], object]):
        """obj with field name set from key: the constructor checks that one value."""
        return read(key, lambda v: dataclasses.replace(obj, **{name: convert(v)}))

    def path(key: str, value: str) -> Path:
        """A path typed as an override is relative to the working directory, any other to base_dir."""
        return Path(value) if key in overrides else base_dir / value  # an absolute value replaces base_dir

    def bracket_of(section: str) -> tuple[Bracket | None, str]:
        """The section's bracket (a file before a builtin) and the key that set it."""
        file_key = f"{section}.file"
        for key, build in ((file_key, lambda v: bracket_from_text(path(file_key, v).read_text())),
                           (f"{section}.builtin", builtin_bracket)):
            if values[key]:
                return read(key, build), key
        return None, f"{section}.builtin"

    b1, key1 = bracket_of("bracket")
    if b1 is None:
        raise ConfigError("no bracket configured", line=line_of.get(key1), field=key1)
    b2, key2 = bracket_of("bracket2")
    if b2 is not None and (b1.m, b1.k) != (b2.m, b2.k):
        raise ConfigError(
            f"dimension mismatch: bracket is ({b1.m},{b1.k}), bracket2 is ({b2.m},{b2.k})",
            line=line_of.get(key2), field=key2,
        )

    profile = CutoffProfile(r1sq=1.0, r2sq=1.0)  # a valid start: each field is then set from its key
    for key, name, convert in _CUTOFF_FIELDS:
        profile = set_field(profile, key, name, convert)
    spec = QuadratureSpec()
    for key, name, convert in _QUADRATURE_FIELDS:
        spec = set_field(spec, key, name, convert)

    # the output path is not part of the run semantics: identical runs written
    # to different directories must produce identical artifact bytes
    canonical = "\n".join(f"{k}={values[k]}" for k in sorted(values) if k != "output.dir")
    return RunConfig(
        config_hash=hashlib.sha256(canonical.encode()).hexdigest()[:16],
        out_dir=path("output.dir", values["output.dir"]),
        s_list=read("sweep.s_list", lambda v: tuple(_scale_list(t for t in v.split(",") if t.strip()))),
        n_points=read("intertwine.n_points", _int_in(1)),
        n_functions=read("intertwine.n_functions", _int_in(1, len(TEST_BASKET))),
        _brackets=(b1, b2),
        _profile=profile,
        _spec=spec,
    )


def load_config(path: str | Path | None, overrides: dict[str, str] | None = None) -> RunConfig:
    if path is None:
        return parse_config("", base_dir=".", overrides=overrides)
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    return parse_config(text, base_dir=p.parent, overrides=overrides)
