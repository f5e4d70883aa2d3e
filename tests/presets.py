"""Framework configs resolved from presets the way runs resolve them."""

import dataclasses

from airl.config import parse_config


def preset(kind, **overrides):
    """The `FrameworkConfig` of a config that sets only `framework.kind`,
    with `overrides` replacing fields (and checked again)."""
    return dataclasses.replace(
        parse_config(f"framework.kind = {kind}\n").framework_config(),
        **overrides)
