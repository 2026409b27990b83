"""Key-value spec files, which describe an experiment's data: its factor
definitions, its response column and the gauge constants; and
:func:`load_case`, which reads a spec and the data table it describes.
The spec says nothing about how to fit: that is chosen on the command line.

The format is one ``key = value`` pair per line, ``#`` comments, blank lines
ignored.  The keys are ``factor.<name>.{low,high,center,units}`` (factors
keep the order of their first appearance), ``response.{column,units}`` and
``gauge.{gamma,p_atm,c_orifice,c_sensor}`` (the fields of
:class:`~hybridfit.gauge.GaugeConstants`); any other key, or a key set
twice, is an error naming the file and the line.  Example::

    factor.A.low = 0.251
    factor.A.high = 1.257
    factor.A.units = mm^2
    response.column = P_obs
    response.units = kPa
    gauge.gamma = 1.4

Gauge constants fall back to the defaults of
:class:`~hybridfit.gauge.GaugeConstants` (air, standard atmosphere, ideal
discharge) when absent; the defaults used are reported so every run record
is self-describing.
"""

from __future__ import annotations

from pathlib import Path

from . import dataset
from .dataset import Dataset, FactorSpec, Table
from .errors import AnalysisError
from .gauge import GaugeConstants

# The fields of each key section: factor keys are factor.<name>.<field>,
# every other key is <section>.<field>.
KEY_FIELDS = {
    "factor": ("low", "high", "center", "units"),
    "response": ("column", "units"),
    "gauge": GaugeConstants._fields,
}


def read_keyvalues(path: str | Path) -> dict[str, str]:
    """Parse a key-value file, preserving first-appearance order of keys.

    A line that is not ``key = value``, a key no reader knows and a key set
    a second time raise :class:`AnalysisError` naming the file and the line.
    """
    values: dict[str, str] = {}
    first_set: dict[str, int] = {}
    for lineno, raw in enumerate(dataset.read_text(path).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise AnalysisError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        parts = key.split(".")
        depth = 3 if parts[0] == "factor" else 2
        if len(parts) != depth or parts[-1] not in KEY_FIELDS.get(parts[0], ()):
            raise AnalysisError(f"{path}:{lineno}: unknown key {key!r}")
        if key in first_set:
            raise AnalysisError(
                f"{path}:{lineno}: key {key!r} was already set on line {first_set[key]}"
            )
        first_set[key] = lineno
        values[key] = value.strip()
    return values


def as_float(cfg: dict[str, str], key: str) -> float:
    """The number at ``key``; a value that is not one raises
    :class:`AnalysisError` naming the key."""
    try:
        return float(cfg[key])
    except ValueError:
        raise AnalysisError(f"config key {key!r} is not a number: {cfg[key]!r}") from None


def factor_specs(cfg: dict[str, str]) -> tuple[FactorSpec, ...]:
    """Factor definitions, in the order the file first mentions each factor."""
    names: list[str] = []
    for key in cfg:
        if key.startswith("factor."):
            name = key.split(".")[1]
            if name not in names:
                names.append(name)
    if not names:
        raise AnalysisError("config declares no factors")
    specs = []
    for name in names:
        for required in ("low", "high"):
            if f"factor.{name}.{required}" not in cfg:
                raise AnalysisError(f"factor {name!r} is missing {required!r}")
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
        raise AnalysisError("config is missing 'response.column'")
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
    data: str | Path, spec: str | Path, extras: tuple[str, ...] = ()
) -> tuple[dict[str, str], Table, Dataset]:
    """Read the spec file ``spec``, then read the data file ``data``, split
    it once (:func:`~hybridfit.dataset.split_table`) and load it as the spec
    describes: its factor and response columns, and the ``extras`` named
    to carry along (for example a recorded theory column).

    Returns the parsed spec, the split table, whose rows the load has
    checked, and the loaded :class:`~hybridfit.dataset.Dataset`.  This is
    the one place that reads a case, so every command reads each file once,
    the spec first, and no command writes out a row the load refused.
    """
    cfg = read_keyvalues(spec)
    table = dataset.split_table(dataset.read_text(data))
    response, units = response_column(cfg)
    return cfg, table, dataset.load_table(table, factor_specs(cfg), response, extras, units)
