"""Command-line front end: experiment runner, acceptance suite, construction
and spectrum utilities.

Exit codes: 0 all checks passed, 1 a hard assertion failed, 2 configuration
or I/O error, 3 resource limit hit.  The commands raise; ``Lab.invoke`` is
the one place that maps ResourceLimitError to 3 and ValueError or OSError to
2, each with one line on stderr.  A closed standard output (BrokenPipeError)
is left to click, which exits 1 without a message.  Any other exception is a
bug and keeps its traceback.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click

from .acceptance import summary_json, verify_all
from .capacity import ResourceLimitError
from .cantor import build_tree, realize_tree
from .config import load_config
from .config import run as run_config
from .lorentz import LorentzExponents
from .measures import CubeMeasure
from .presets import PRESET_NAMES, preset
from .spectral import FreqGrid, cube_measure_transform, lorentz_spectrum_norm, write_spectrum

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_CONFIG = 2
EXIT_RESOURCE = 3


class Lab(click.Group):
    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ResourceLimitError as exc:
            click.echo(f"resource limit: {exc}", err=True)
            sys.exit(EXIT_RESOURCE)
        except BrokenPipeError:
            raise  # a reader that has gone is not a config error: click exits 1, silently
        except (ValueError, OSError) as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(EXIT_CONFIG)


@click.group(cls=Lab)
def main():
    """Desk-scale lab for Lorentz quasi-norms, dyadic capacities and
    randomized nested-cube measures."""


@main.command("run")
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
def run_cmd(config_path):
    """Run one experiment described by a config file (key=value or JSON)."""
    config = load_config(config_path)
    manifest = run_config(config)
    for c in manifest.checks:
        click.echo(f"{'PASS' if c.passed else 'FAIL'} {c.name}")
    if config.output:
        click.echo(f"artifacts in {config.output}")
    sys.exit(EXIT_OK if manifest.passed else EXIT_ASSERTION)


@main.command("verify")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--json", "as_json", is_flag=True, help="emit the machine-readable summary (progress on stderr)")
def verify_cmd(seed, as_json):
    """Run the full twelve-point acceptance suite."""
    results = verify_all(seed)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        click.echo(f"{status} criterion {r.number:2d} {r.name} ({r.wall_time:.2f}s)", err=as_json)
        if not r.passed:
            click.echo(f"     {r.detail}", err=True)
    if as_json:
        click.echo(summary_json(results), nl=False)
    sys.exit(EXIT_OK if all(r.passed for r in results) else EXIT_ASSERTION)


@main.command("construct")
@click.option("--preset", "preset_name", type=click.Choice(PRESET_NAMES), required=True)
@click.option("--depth", type=int, default=0, help="construction depth (preset default when 0)")
@click.option("--seed", type=click.IntRange(min=0), default=7, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def construct_cmd(preset_name, depth, seed, out):
    """Realize a construction preset and write the deepest measure stage."""
    params = preset(preset_name, depth=depth, seed=seed)
    tree, measures = realize_tree(build_tree(params), params)
    Path(out).write_text(measures[-1].to_json())
    click.echo(f"wrote stage-{len(measures) - 1} measure ({len(measures[-1].atoms)} atoms) to {out}")
    sys.exit(EXIT_OK)


@main.command("spectrum")
@click.option("--measure", "measure_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--p", type=float, required=True)
@click.option("--q", type=float, required=True)
@click.option("--extent", type=float, required=True, help="half-extent of the frequency window")
@click.option("--samples", type=int, required=True, help="grid samples (even)")
@click.option("--out", type=click.Path(dir_okay=False), help="write the binary field here")
def spectrum_cmd(measure_path, p, q, extent, samples, out):
    """Transform a stored measure and report its grid Lorentz norm."""
    mu = CubeMeasure.from_json(Path(measure_path).read_text())
    grid = FreqGrid(mu.d, extent, samples)
    exponents = LorentzExponents(p, q)
    field = cube_measure_transform(mu, grid)
    norm = lorentz_spectrum_norm(field, exponents)
    click.echo(f"lorentz_norm p={p} q={q} extent={extent} samples={samples}: {norm!r}")
    if out:
        write_spectrum(field, out)
        click.echo(f"wrote field to {out}")
    sys.exit(EXIT_OK)


if __name__ == "__main__":
    main()
