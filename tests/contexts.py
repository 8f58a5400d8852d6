"""Evaluation contexts for unit tests that need no world."""

from __future__ import annotations

from typing import Mapping

from abms import expr as ex
from abms.errors import EvalError


class MapContext(ex.Context):
    """Context backed by plain dicts."""

    def __init__(
        self,
        attrs: Mapping[str, object] | None = None,
        states: Mapping[str, str] | None = None,
        populations: Mapping[str, list[ex.Context]] | None = None,
        owner: str | None = None,
    ):
        self._attrs = dict(attrs or {})
        self._states = dict(states or {})
        self._pops = dict(populations or {})
        self._owner = owner

    def attribute(self, owner: str | None, name: str):
        if owner is not None and owner != self._owner:
            raise EvalError(f"unknown attribute '{owner}.{name}'")
        if name in self._attrs:
            return self._attrs[name]
        raise EvalError(f"unknown attribute '{name}'")

    def machine_state(self, name: str) -> str:
        if name in self._states:
            return self._states[name]
        raise EvalError(f"no state machine or disease named '{name}' in this context")

    def population(self, type_name: str) -> list[ex.Context]:
        if type_name in self._pops:
            return self._pops[type_name]
        raise EvalError(f"unknown population '{type_name}'")
