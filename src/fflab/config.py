"""Experiment configuration parsing and run manifests.

Two equivalent config formats are accepted: a line-oriented ``key = value``
file with ``[run]`` and ``[params]`` sections, and a JSON document with the
same keys.  Both end in one run document, ``{run keys..., "params": {...}}``,
which is checked once.  Parsing is strict: unknown experiments, unknown run
keys, unknown parameter keys and values of the wrong kind (an experiment
that is not a name, params that are not a table, an output that is not a
non-empty path) are all rejected with ConfigError.
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
        if not isinstance(self.experiment, str):
            raise ConfigError(f"experiment must be a name, got {self.experiment!r}")
        if not isinstance(self.params, dict):
            raise ConfigError(f"params must be a table, got {self.params!r}")
        if self.output is not None and not (isinstance(self.output, str) and self.output):
            raise ConfigError(f"output must be a non-empty path, got {self.output!r}")
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


def _parse_sections(text: str, source: str) -> dict:
    """The ``key = value`` format as a run document."""
    section = "run"
    doc: dict = {"params": {}}
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
        if section == "params":
            doc["params"][key] = _parse_value(raw)
        elif key not in _RUN_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown run key {key!r}; allowed: {_RUN_KEYS}")
        else:
            doc[key] = raw if key == "experiment" or key == "output" else _parse_value(raw)
    return doc


def parse_config_text(text: str, source: str = "<config>") -> ExperimentConfig:
    if text.lstrip().startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{source}: invalid JSON: {exc}") from exc
    else:
        doc = _parse_sections(text, source)
    unknown = set(doc) - {*_RUN_KEYS, "params"}
    if unknown:
        raise ConfigError(f"{source}: unknown keys {sorted(unknown)}")
    if "experiment" not in doc:
        raise ConfigError(f"{source}: missing 'experiment'")
    return ExperimentConfig(doc["experiment"], doc.get("params", {}), doc.get("seed", 0), doc.get("output"))


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
    """Make the output directory, execute one experiment, then write its
    artifacts and the manifest.  A value the experiment rejects is raised as
    ConfigError.  If the experiment raises, the directories that this call
    made are removed again; one that was there before is left alone."""
    outdir = None if config.output is None else Path(config.output)
    made = []
    if outdir is not None:
        made = [d for d in (outdir, *outdir.parents) if not d.exists()]  # deepest first
        outdir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    try:
        result = run_experiment(config.experiment, config.params, config.seed)
    except BaseException as exc:
        for d in made:
            d.rmdir()
        if isinstance(exc, ValueError):
            raise ConfigError(f"{config.experiment}: {exc}") from exc
        raise
    artifacts = [] if outdir is None else write_tables(result, outdir)
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
        (outdir / "manifest.json").write_text(manifest.to_json())
    return manifest
