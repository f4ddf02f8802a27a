"""Desk-scale model of measure-budgeted test families on Cantor space:
exact clopen algebra, stage-scheduled enumerations, stage-relative
deficiency, staged set constructions, and monotone stream realizers.
"""

from .core import Clopen  # noqa: F401  perfbench reads cantorlab.Clopen

__version__ = "0.1.0"


def bundled_scenario(name: str):
    """Path to a bundled scenario JSON (e.g. 'main', 'deep')."""
    from importlib import resources  # no command needs it at start-up
    return resources.files(__package__) / "scenarios" / f"{name}.json"
