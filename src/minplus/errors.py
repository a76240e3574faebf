"""Exception types shared across the package."""

from __future__ import annotations


class ContractViolation(Exception):
    """An operation was invoked contrary to its stated precondition."""


class GenerationError(Exception):
    """A random topology could not be generated within the retry budget."""


class ScenarioError(Exception):
    """A scripted replay failed to reach its target configuration."""

    def __init__(self, phase: str, message: str):
        self.phase = phase
        super().__init__(f"[{phase}] {message}")


class AnalysisError(Exception):
    """A trace measurement could not be completed."""

    def __init__(self, message: str, step_index: int | None = None):
        self.step_index = step_index
        super().__init__(message)
