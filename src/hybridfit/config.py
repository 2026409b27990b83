"""Key-value config files: factor definitions, gauge constants, run defaults,
and :func:`load_case`, which loads a data table with the parsed spec
describing it.  Each command parses its spec once, with
:func:`read_keyvalues`, and passes the result on.

The format is one ``key = value`` pair per line, ``#`` comments, blank lines
ignored.  Factor keys look like ``factor.<name>.low``; factors keep the order
of their first appearance.  Example::

    factor.A.low = 0.251
    factor.A.high = 1.257
    factor.A.units = mm^2
    response.column = P_obs
    response.units = kPa
    gauge.gamma = 1.4

Gauge constants fall back to the defaults of
:class:`~hybridfit.gauge.GaugeConstants` (air, standard atmosphere, ideal
discharge) when absent; the defaults used are reported so every run record
is self-describing.  Run defaults (``run.model``, ``run.theory``,
``run.alpha``) are read as ``cfg.get("run.<name>")``; command-line flags take
precedence over them.
"""

from __future__ import annotations

from pathlib import Path
from typing import IO

from .dataset import Dataset, FactorSpec, TableSchema, load_table, read_text
from .errors import SchemaError
from .gauge import GaugeConstants

def read_keyvalues(path: str | Path) -> dict[str, str]:
    """Parse a key-value file, preserving first-appearance order of keys."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(read_text(path).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SchemaError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def as_float(cfg: dict[str, str], key: str) -> float:
    """The number at ``key``; a value that is not one raises
    :class:`SchemaError` naming the key."""
    try:
        return float(cfg[key])
    except ValueError:
        raise SchemaError(f"config key {key!r} is not a number: {cfg[key]!r}") from None


def factor_specs(cfg: dict[str, str]) -> tuple[FactorSpec, ...]:
    """Factor definitions, in the order the file first mentions each factor."""
    names: list[str] = []
    for key in cfg:
        if key.startswith("factor."):
            parts = key.split(".")
            if len(parts) != 3:
                raise SchemaError(f"malformed factor key {key!r}")
            if parts[1] not in names:
                names.append(parts[1])
    if not names:
        raise SchemaError("config declares no factors")
    specs = []
    for name in names:
        for required in ("low", "high"):
            if f"factor.{name}.{required}" not in cfg:
                raise SchemaError(f"factor {name!r} is missing {required!r}")
        center_key = f"factor.{name}.center"
        specs.append(
            FactorSpec(
                name=name,
                low=as_float(cfg, f"factor.{name}.low"),
                high=as_float(cfg, f"factor.{name}.high"),
                center=as_float(cfg, center_key) if center_key in cfg else None,
                units=cfg.get(f"factor.{name}.units", ""),
            )
        )
    return tuple(specs)


def response_column(cfg: dict[str, str]) -> tuple[str, str]:
    """Name and units of the response column."""
    if "response.column" not in cfg:
        raise SchemaError("config is missing 'response.column'")
    return cfg["response.column"], cfg.get("response.units", "")


def gauge_constants(cfg: dict[str, str]) -> tuple[GaugeConstants, tuple[str, ...]]:
    """Gauge constants from the config, with defaults for absent keys.

    Returns the constants and the names of the keys that fell back to their
    defaults, so reports can echo what was assumed.
    """
    kwargs = {}
    defaulted = []
    for name in GaugeConstants._fields:
        key = f"gauge.{name}"
        if key in cfg:
            kwargs[name] = as_float(cfg, key)
        else:
            defaulted.append(name)
    return GaugeConstants(**kwargs), tuple(defaulted)


def load_case(
    source: str | Path | IO[str] | IO[bytes], cfg: dict[str, str],
    extras: tuple[str, ...] = (),
) -> Dataset:
    """Read the data table, a file or a stream, that the parsed spec ``cfg``
    describes.

    The spec names the factor and response columns; ``extras`` names further
    columns to carry along (for example a recorded theory column).
    """
    response, units = response_column(cfg)
    schema = TableSchema(
        factors=factor_specs(cfg), response=response, extras=tuple(extras),
        response_units=units,
    )
    return load_table(source, schema)
