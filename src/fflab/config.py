"""Experiment configuration parsing and run manifests.

Two equivalent config formats are accepted: a line-oriented ``key = value``
file with ``[run]`` and ``[params]`` sections, and a JSON document with the
same keys.  Parsing is strict: unknown experiments, unknown run keys and
unknown parameter keys are all rejected with a diagnostic.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from . import __version__
from .checks import CheckResult
from .experiments import check_params, run_experiment, write_tables

__all__ = ["ConfigError", "ExperimentConfig", "RunManifest", "run"]


class ConfigError(ValueError):
    """Malformed configuration; the message carries a line or key diagnostic."""


_RUN_KEYS = ("experiment", "seed", "output")


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    output: Optional[str] = None

    def __post_init__(self):
        try:
            check_params(self.experiment, self.params)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


def _parse_value(raw: str):
    raw = raw.strip()
    if "," in raw:
        return tuple(_parse_value(part) for part in raw.split(",") if part.strip())
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    return raw


def parse_config_text(text: str, source: str = "<config>") -> ExperimentConfig:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{source}: invalid JSON: {exc}") from exc
        unknown = set(doc) - {"experiment", "seed", "output", "params"}
        if unknown:
            raise ConfigError(f"{source}: unknown keys {sorted(unknown)}")
        if "experiment" not in doc:
            raise ConfigError(f"{source}: missing 'experiment'")
        return ExperimentConfig(
            doc["experiment"],
            dict(doc.get("params", {})),
            doc.get("seed", 0),
            doc.get("output"),
        )

    section = "run"
    run_kv: dict = {}
    params: dict = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in ("run", "params"):
                raise ConfigError(f"{source}:{lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if section == "run":
            if key not in _RUN_KEYS:
                raise ConfigError(f"{source}:{lineno}: unknown run key {key!r}; allowed: {_RUN_KEYS}")
            run_kv[key] = raw if key == "experiment" or key == "output" else _parse_value(raw)
        else:
            params[key] = _parse_value(raw)
    if "experiment" not in run_kv:
        raise ConfigError(f"{source}: missing 'experiment' in [run]")
    return ExperimentConfig(
        run_kv["experiment"], params, run_kv.get("seed", 0), run_kv.get("output")
    )


def load_config(path) -> ExperimentConfig:
    return parse_config_text(Path(path).read_text(), source=str(path))


@dataclass
class RunManifest:
    config: dict
    version: str
    wall_time: float
    checks: List[CheckResult]
    artifacts: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        doc = {
            "config": self.config,
            "version": self.version,
            "wall_time_seconds": round(self.wall_time, 3),
            "checks": [c.to_dict() for c in self.checks],
            "artifacts": self.artifacts,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def run(config: ExperimentConfig) -> RunManifest:
    """Execute one experiment, write artifacts and the manifest."""
    started = time.perf_counter()
    result = run_experiment(config.experiment, config.params, config.seed)
    artifacts = []
    outdir = config.output
    if outdir is not None:
        artifacts = write_tables(result, outdir)
    manifest = RunManifest(
        config={
            "experiment": config.experiment,
            "params": {k: list(v) if isinstance(v, tuple) else v for k, v in sorted(config.params.items())},
            "seed": config.seed,
            "output": config.output,
        },
        version=__version__,
        wall_time=time.perf_counter() - started,
        checks=list(result.checks),
        artifacts=artifacts,
    )
    if outdir is not None:
        Path(outdir).mkdir(parents=True, exist_ok=True)
        (Path(outdir) / "manifest.json").write_text(manifest.to_json())
    return manifest
