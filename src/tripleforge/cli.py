"""Command-line surface: one subcommand per pipeline stage.

    tripleforge <preextract|distances|train|select|run|eval|cost> \
        --config <file> [--strategy S] [--budget B] [--seed N] \
        [--distance-source D] [--format F] [--provider P]

Flags override the corresponding config-file values.
"""
from __future__ import annotations

import argparse
import sys

from .config import CHOICES, ConfigError, apply_overrides, load_config
from .pipeline import STAGES, UpstreamMissingError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tripleforge",
        description="Budget-aware demonstration selection and tabular prompting "
                    "for LLM relational triple extraction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in STAGES.items():
        p = sub.add_parser(name, help=(fn.__doc__ or "").strip().splitlines()[0])
        p.add_argument("--config", required=True, help="path to the key-value config file")
        # every other flag overrides the config key it is named after
        for key in ("strategy", "distance_source", "provider", "format"):
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, choices=CHOICES[key])
        p.add_argument("--budget", type=int)
        p.add_argument("--seed", type=int)
    return parser


def main(argv: list[str] | None = None) -> int:
    overrides = vars(_build_parser().parse_args(argv))
    command, config = overrides.pop("command"), overrides.pop("config")
    try:
        cfg = apply_overrides(load_config(config), **overrides)
        outcome = STAGES[command](cfg)
    except (ConfigError, UpstreamMissingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # fail loudly but without a wall of traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    for artifact in outcome.artifacts.values():
        print(f"wrote {artifact.path}")
    for key, value in outcome.info.items():
        print(f"  {key}: {value}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
