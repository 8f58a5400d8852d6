"""Agent-based simulation toolchain: a small modeling language, a
deterministic discrete-time engine, and a NetLogo source emitter."""

from .dsl import format_model, parse, parse_model
from .engine import RunConfig, build_world, run, tick
from .metamodel import Model, ValidationReport, validate

__all__ = [
    "Model",
    "RunConfig",
    "ValidationReport",
    "build_world",
    "format_model",
    "parse",
    "parse_model",
    "run",
    "tick",
    "validate",
]

__version__ = "0.1.0"
