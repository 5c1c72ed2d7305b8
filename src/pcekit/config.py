"""Run configuration: one JSON document per run, validated before any work.

The schema (defaults in parentheses; unknown keys anywhere are rejected):

    {
      "model": {
        "kind": "builtin" | "external",
        "name": "...",                  # builtin only
        "parameters": {...},            # builtin only, optional ({})
        "command": ["...", ...],        # external only
        "working_dir": ".",             # external, optional; relative to the config
        "io_format": "argfile"|"stdin", # external, optional ("argfile")
        "timeout_seconds": 3600,        # external, optional, > 0
        "points_per_launch": k          # external, optional, >= 1 (see blackbox)
      },
      "inputs":  [{"name": "...", "min": ..., "max": ...}, ...],
      "outputs": ["...", ...],
      "method":  {"type": "full-grid", "order": p}
               | {"type": "sparse-grid", "level": l},
      "validation": {"lhs_strata": 10, "lhs_repeats": 300, "seed": 42},
      "report": {
        "percentiles": [10, 25, 50, 75, 90],
        "histogram_bins": 30,
        "sobol_max_subset_size": 2,
        "uq_samples": 3000
      },
      "paths": {
        "cache": null,                  # cache disabled when null
        "model_file": "model.json",
        "report_dir": "report"
      }
    }

Relative paths resolve against the directory containing the config file.
The sha256 of the file bytes is carried along as the run's config hash and
embedded into every artifact the CLI writes.
"""
from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .errors import ConfigurationError
from .multiindex import POINT_COUNT_CAP
from .surrogate import METHODS, FullGrid, InputVariable, SparseGrid

BUILTIN = "builtin"
EXTERNAL = "external"
IO_ARGFILE = "argfile"
IO_STDIN = "stdin"
DEFAULT_TIMEOUT_SECONDS = 3600.0
# The names of blackbox.BUILTIN_MODELS, checked without loading that module.
BUILTIN_NAMES = ("constant", "polynomial", "sobol-example-1", "sobol-example-2", "csg-proxy")


@dataclass(frozen=True)
class ModelSpec:
    """Binding of a black-box model: a builtin by name, or an external command."""

    kind: str
    input_names: tuple[str, ...]
    output_names: tuple[str, ...]
    name: str = ""
    parameters: Mapping = field(default_factory=dict)
    command: tuple[str, ...] = ()
    working_dir: str = "."
    io_format: str = IO_ARGFILE
    timeout_seconds: float = DEFAULT_TIMEOUT_SECONDS
    points_per_launch: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in (BUILTIN, EXTERNAL):
            raise ConfigurationError(f"model.kind must be builtin or external, got {self.kind!r}")
        if not self.input_names:
            raise ConfigurationError("model needs at least one input name")
        if not self.output_names:
            raise ConfigurationError("model needs at least one output name")
        if self.kind == BUILTIN and self.name not in BUILTIN_NAMES:
            raise ConfigurationError(
                f"unknown builtin model {self.name!r}; registered: {sorted(BUILTIN_NAMES)}"
            )
        if self.kind == EXTERNAL and not self.command:
            raise ConfigurationError("external model needs a non-empty command")
        if self.kind == EXTERNAL and self.io_format not in (IO_ARGFILE, IO_STDIN):
            raise ConfigurationError(
                f"io_format must be {IO_ARGFILE!r} or {IO_STDIN!r}, got {self.io_format!r}"
            )
        if self.kind == EXTERNAL and not self.timeout_seconds > 0:
            raise ConfigurationError(
                f"model.timeout_seconds must be > 0, got {self.timeout_seconds!r}"
            )
        if self.points_per_launch is not None and not (
            self.kind == EXTERNAL and type(self.points_per_launch) is int
            and self.points_per_launch >= 1
        ):
            raise ConfigurationError("model.points_per_launch must be an integer >= 1, "
                                     "on an external model only")

    def fingerprint(self) -> str:
        """Stable hash of everything that determines the model's outputs
        (not timeout_seconds or points_per_launch, so the cache outlives them)."""
        # json.dumps writes the tuples as lists
        fields = ("kind", "name", "parameters", "command", "input_names", "output_names")
        payload = {key: getattr(self, key) for key in fields}
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass(frozen=True)
class ValidationSettings:
    lhs_strata: int = 10
    lhs_repeats: int = 300
    seed: int = 42


@dataclass(frozen=True)
class ReportSettings:
    percentiles: tuple[float, ...] = (10.0, 25.0, 50.0, 75.0, 90.0)
    histogram_bins: int = 30
    sobol_max_subset_size: int = 2
    uq_samples: int = 3000


@dataclass(frozen=True)
class PathSettings:
    cache: Path | None
    model_file: Path
    report_dir: Path


@dataclass(frozen=True)
class RunConfig:
    model: ModelSpec
    inputs: tuple[InputVariable, ...]
    outputs: tuple[str, ...]
    method: FullGrid | SparseGrid
    validation: ValidationSettings
    report: ReportSettings
    paths: PathSettings
    config_hash: str


def _reject_unknown(mapping: dict, allowed: set[str], context: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigurationError(f"unknown key(s) {unknown} in {context}")


def _expect(mapping: dict, key: str, kind, context: str):
    if key not in mapping:
        raise ConfigurationError(f"missing required key {key!r} in {context}")
    value = mapping[key]
    if not isinstance(value, kind):
        raise ConfigurationError(
            f"key {key!r} in {context} must be {getattr(kind, '__name__', kind)}, "
            f"got {type(value).__name__}"
        )
    return value


def _optional_object(doc: dict, key: str) -> dict:
    value = doc.get(key, {})
    if not isinstance(value, dict):
        raise ConfigurationError(f"{key} must be an object, got {type(value).__name__}")
    return value


def _float(value, name: str) -> float:
    """A finite JSON number; booleans, strings and out-of-range integers are rejected."""
    if isinstance(value, int) and not isinstance(value, bool) and abs(value) <= sys.float_info.max:
        value = float(value)
    if not isinstance(value, float) or not math.isfinite(value):
        raise ConfigurationError(f"{name} must be a finite number, got {value!r}")
    return value


def _floats(values, name: str) -> list[float]:
    """A JSON list (or a tuple) of numbers, each checked as _float checks it."""
    if not isinstance(values, (list, tuple)):
        raise ConfigurationError(f"{name} must be a list of finite numbers, got {values!r}")
    return [_float(value, f"{name} entry") for value in values]


def _names(doc: dict, key: str, context: str) -> tuple[str, ...]:
    """The non-empty list of non-empty strings at doc[key]."""
    names = _expect(doc, key, list, context)
    if not names or not all(isinstance(name, str) and name for name in names):
        raise ConfigurationError(f"{key} must be a non-empty list of names")
    return tuple(names)


def _int(value, name: str, low: int | None = None, high: int | None = None) -> int:
    """A JSON integer (or integral float) in [low, high]; booleans and strings are rejected."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ConfigurationError(f"{name} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise ConfigurationError(f"{name} must be <= {high}, got {value}")
    return value


def _parse_inputs(raw: list, context: str) -> tuple[InputVariable, ...]:
    if not raw:
        raise ConfigurationError(f"{context} must list at least one input variable")
    out = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ConfigurationError(f"{context}[{i}] must be an object")
        _reject_unknown(entry, {"name", "min", "max"}, f"{context}[{i}]")
        name = _expect(entry, "name", str, f"{context}[{i}]")
        low, high = (
            _float(_expect(entry, key, object, f"{context}[{i}]"), f"{context}[{i}].{key}")
            for key in ("min", "max")
        )
        out.append(InputVariable(name, low, high))
    return tuple(out)


def _parse_model(raw: dict, inputs, outputs, base: Path) -> ModelSpec:
    kind = _expect(raw, "kind", str, "model")
    names = {"input_names": tuple(var.name for var in inputs), "output_names": tuple(outputs)}
    if kind == BUILTIN:
        _reject_unknown(raw, {"kind", "name", "parameters"}, "model")
        if not isinstance(raw.get("parameters", {}), dict):
            raise ConfigurationError("model.parameters must be an object")
        name = _expect(raw, "name", str, "model")
        return ModelSpec(kind, **names, name=name, parameters=raw.get("parameters", {}))
    if kind == EXTERNAL:
        _reject_unknown(raw, {"kind", "command", "working_dir", "io_format", "timeout_seconds",
                              "points_per_launch"}, "model")
        command = _expect(raw, "command", list, "model")
        if not all(isinstance(part, str) for part in command):
            raise ConfigurationError("model.command must be a list of strings")
        working_dir = raw.get("working_dir", ".")
        if not isinstance(working_dir, str):
            raise ConfigurationError(f"model.working_dir must be a string, got {working_dir!r}")
        return ModelSpec(
            kind, **names,
            command=tuple(command),
            working_dir=str(base / working_dir),
            io_format=str(raw.get("io_format", IO_ARGFILE)),
            timeout_seconds=_float(
                raw.get("timeout_seconds", DEFAULT_TIMEOUT_SECONDS), "model.timeout_seconds"
            ),
            points_per_launch=None if "points_per_launch" not in raw
            else _int(raw["points_per_launch"], "model.points_per_launch", 1),
        )
    return ModelSpec(kind, **names)  # neither kind: ModelSpec's own check rejects it


def _parse_method(raw: dict) -> FullGrid | SparseGrid:
    kind = _expect(raw, "type", str, "method")
    if kind not in METHODS:
        raise ConfigurationError(
            f"method.type must be {' or '.join(map(repr, METHODS))}, got {kind!r}"
        )
    method = METHODS[kind]
    _reject_unknown(raw, {"type", method.key}, "method")
    return method(_int(_expect(raw, method.key, object, "method"), f"method.{method.key}"))


def _parse_validation(raw: dict) -> ValidationSettings:
    _reject_unknown(raw, {"lhs_strata", "lhs_repeats", "seed"}, "validation")
    defaults = ValidationSettings()
    lows = {"lhs_strata": 1, "lhs_repeats": 1, "seed": 0}
    settings = ValidationSettings(
        **{
            key: _int(raw.get(key, getattr(defaults, key)), f"validation.{key}", low)
            for key, low in lows.items()
        }
    )
    points = settings.lhs_strata * settings.lhs_repeats
    _int(points, "validation.lhs_strata x lhs_repeats", high=POINT_COUNT_CAP)
    return settings


def _parse_report(raw: dict) -> ReportSettings:
    _reject_unknown(
        raw,
        {"percentiles", "histogram_bins", "sobol_max_subset_size", "uq_samples"},
        "report",
    )
    defaults = ReportSettings()
    percentiles = raw.get("percentiles", list(defaults.percentiles))
    percentiles = tuple(_floats(percentiles, "report.percentiles"))
    if not all(0 <= q <= 100 for q in percentiles):
        raise ConfigurationError("report.percentiles must be numbers in [0, 100]")
    # (low, high): the bin and sample counts size arrays
    bounds = {
        "histogram_bins": (1, POINT_COUNT_CAP),
        "sobol_max_subset_size": (1, None),
        "uq_samples": (2, POINT_COUNT_CAP),
    }
    return ReportSettings(
        percentiles=percentiles,
        **{
            key: _int(raw.get(key, getattr(defaults, key)), f"report.{key}", *bounds[key])
            for key in bounds
        },
    )


def _parse_paths(raw: dict, base: Path) -> PathSettings:
    _reject_unknown(raw, {"cache", "model_file", "report_dir"}, "paths")

    def resolve(key: str, value) -> Path:
        # An empty path would name the config's own directory.
        if not isinstance(value, str) or not value:
            allowed = "a non-empty string or null" if key == "cache" else "a non-empty string"
            raise ConfigurationError(f"paths.{key} must be {allowed}, got {value!r}")
        path = Path(value)
        return path if path.is_absolute() else base / path

    cache = raw.get("cache")
    return PathSettings(
        cache=None if cache is None else resolve("cache", cache),
        model_file=resolve("model_file", raw.get("model_file", "model.json")),
        report_dir=resolve("report_dir", raw.get("report_dir", "report")),
    )


def load_config(path: str | Path) -> RunConfig:
    """Load and fully validate a run configuration document."""
    path = Path(path)
    raw_bytes = path.read_bytes()
    config_hash = hashlib.sha256(raw_bytes).hexdigest()
    try:
        doc = json.loads(raw_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigurationError(f"config {path} must be a JSON object")
    _reject_unknown(
        doc,
        {"model", "inputs", "outputs", "method", "validation", "report", "paths"},
        "config",
    )

    inputs = _parse_inputs(_expect(doc, "inputs", list, "config"), "inputs")
    outputs = _names(doc, "outputs", "config")

    base = path.resolve().parent
    return RunConfig(
        model=_parse_model(_expect(doc, "model", dict, "config"), inputs, outputs, base),
        inputs=inputs,
        outputs=outputs,
        method=_parse_method(_expect(doc, "method", dict, "config")),
        validation=_parse_validation(_optional_object(doc, "validation")),
        report=_parse_report(_optional_object(doc, "report")),
        paths=_parse_paths(_optional_object(doc, "paths"), base),
        config_hash=config_hash,
    )
