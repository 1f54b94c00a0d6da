"""Hyperparameter search space with reproducible counter-based sampling.

Every parameter draw is keyed by (seed, trial index, parameter index)
through a dedicated generator stream, so the i-th candidate configuration
depends only on the seed and i: runs that stop early, interleave trials
differently, or change concurrency all see the same candidate sequence.
:func:`unit_values` places a value back in [0, 1] from the table it was drawn with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Any

from .streams import Draws, grid_draws

__all__ = [
    "ParamKind",
    "ParamSpec",
    "SearchSpace",
    "Configuration",
    "sample",
    "unit_values",
]


class ParamKind(str, Enum):
    LOG_UNIFORM_REAL = "log_uniform_real"
    UNIFORM_REAL = "uniform_real"
    LOG_UNIFORM_INT = "log_uniform_int"
    CHOICE = "choice"


_RANGED = (ParamKind.LOG_UNIFORM_REAL, ParamKind.UNIFORM_REAL, ParamKind.LOG_UNIFORM_INT)
_LOG_KINDS = (ParamKind.LOG_UNIFORM_REAL, ParamKind.LOG_UNIFORM_INT)
# Calibration scans every iteration of its probes: about 5 s per seed at this top.
_MAX_ITERATIONS = 2**16


@dataclass(frozen=True)
class ParamSpec:
    name: str
    kind: ParamKind
    low: float | None = None
    high: float | None = None
    choices: tuple[Any, ...] = ()
    iteration_axis: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("parameter name must be nonempty")
        if self.kind in _RANGED:
            if self.low is None or self.high is None:
                raise ValueError(f"{self.name}: ranged parameter needs low and high")
            if not self.low < self.high:
                raise ValueError(f"{self.name}: low must be strictly below high")
            if not math.isfinite(self.high - self.low):
                raise ValueError(f"{self.name}: bounds must be finite, with a finite range")
            if self.kind in _LOG_KINDS and self.low <= 0:
                raise ValueError(f"{self.name}: log-scale bounds must be positive")
            if self.kind in _LOG_KINDS and not math.log(self.low) < math.log(self.high):
                raise ValueError(f"{self.name}: log-scale bounds must have distinct logs")
            if self.kind is ParamKind.LOG_UNIFORM_INT and (
                self.low != int(self.low) or self.high != int(self.high)
            ):
                raise ValueError(f"{self.name}: integer parameter needs integer bounds")
        elif self.kind is ParamKind.CHOICE:
            if not self.choices:
                raise ValueError(f"{self.name}: choice parameter needs at least one option")
            # A choice's position places it on the landscape, and index() finds
            # only the first of equal copies. Pairwise: choices may be unhashable.
            for i, choice in enumerate(self.choices):
                if self.choices.index(choice) != i:
                    raise ValueError(f"{self.name}: choices must be distinct; {choice!r} repeats")
        if self.iteration_axis and not self._is_integer_kind():
            raise ValueError(f"{self.name}: the iteration axis must be integer-valued")
        unused = ("choices",) if self.kind in _RANGED else ("low", "high")
        if any(getattr(self, key) not in (None, ()) for key in unused):
            raise ValueError(f"{self.name}: kind {self.kind.value} takes no {' or '.join(unused)}")

    def _is_integer_kind(self) -> bool:
        if self.kind is ParamKind.LOG_UNIFORM_INT:
            return True
        return self.kind is ParamKind.CHOICE and all(
            type(c) is int and c >= 1 for c in self.choices
        )


@dataclass(frozen=True)
class SearchSpace:
    params: tuple[ParamSpec, ...]

    def __post_init__(self) -> None:
        if not self.params:
            raise ValueError("search space must have at least one parameter")
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ValueError("parameter names must be unique")
        axes = [p for p in self.params if p.iteration_axis]
        if len(axes) != 1:
            raise ValueError(f"exactly one parameter must set iteration_axis, not {len(axes)}")
        if self.max_iterations > _MAX_ITERATIONS:
            raise ValueError(
                f"{axes[0].name}: the iteration axis tops out at {self.max_iterations},"
                f" above {_MAX_ITERATIONS}"
            )

    @cached_property
    def iteration_axis(self) -> ParamSpec:
        return next(p for p in self.params if p.iteration_axis)

    @cached_property
    def draw_table(self) -> tuple[tuple, ...]:
        """Each parameter's scale, as plain data: (name, kind code, bounds of the
        uniform draw, an integer's (low, high) clamp or a choice's options, then the
        origin and width by which :func:`unit_values` places a value)."""
        return tuple(_table_entry(p) for p in self.params)

    @property
    def max_iterations(self) -> int:
        """The largest iteration budget a candidate can draw."""
        axis = self.iteration_axis
        return int(max(axis.choices) if axis.kind is ParamKind.CHOICE else axis.high)


@dataclass(frozen=True)
class Configuration:
    """One sampled candidate: parameter values plus its own iteration budget, unchecked:
    :func:`sample` draws the budget from the iteration axis, whose rules keep it >= 1."""

    values: dict[str, Any]
    max_iterations: int


_UNIFORM, _LOG_UNIFORM, _LOG_INT, _CHOICE = range(4)


def _table_entry(spec: ParamSpec) -> tuple:
    """One row of :attr:`SearchSpace.draw_table`. A linear parameter is placed
    from its bounds as given: integer bounds subtract exactly where floats round."""
    if spec.kind is ParamKind.UNIFORM_REAL:
        bounds = float(spec.low), float(spec.high)
        return spec.name, _UNIFORM, *bounds, (), spec.low, spec.high - spec.low
    if spec.kind is ParamKind.CHOICE:  # index / (n - 1), or 0.5 for a single choice
        place = (0, len(spec.choices) - 1) if len(spec.choices) > 1 else (-0.5, 1)
        return spec.name, _CHOICE, 0.0, 0.0, spec.choices, *place
    low, high = math.log(spec.low), math.log(spec.high)
    if spec.kind is ParamKind.LOG_UNIFORM_REAL:
        return spec.name, _LOG_UNIFORM, low, high, (), low, high - low
    return spec.name, _LOG_INT, low, high, (int(spec.low), int(spec.high)), low, high - low


def _draw_values(table: tuple[tuple, ...], draws: Draws, first: int) -> dict[str, Any]:
    """numpy's draw for each table entry, entry j from stream ``first + j``: ``uniform``
    in (log) bounds, or ``integers`` over the choices."""
    values: dict[str, Any] = {}
    for i, (name, kind, low, high, options, _, _) in enumerate(table, first):
        if kind == _CHOICE:
            values[name] = options[draws.integers(i, len(options))]
            continue
        value = draws.uniform(i, low, high)
        if kind == _LOG_UNIFORM:
            value = math.exp(value)
        elif kind == _LOG_INT:  # uniform in log space, rounded down, clamped into the bounds
            value = min(max(math.floor(math.exp(value)), options[0]), options[1])
        values[name] = value
    return values


# sample's last block of _BLOCK trial indices, keyed by (seed, first index, parameter count).
_BLOCK = 512
_last_block: tuple = (None, None)


def sample(space: SearchSpace, seed: int, trial_index: int = 0) -> Configuration:
    """Draw the trial_index-th candidate for a seed, independent of any history: parameter
    j draws from ``PCG64(SeedSequence(seed, spawn_key=(trial_index, j)))``. An index
    outside [0, 2**32) raises the draw's own ValueError."""
    global _last_block
    table = space.draw_table
    offset, n = trial_index % _BLOCK, len(table)
    key = seed, trial_index - offset, n
    if _last_block[0] != key:
        _last_block = key, grid_draws(seed, key[1], _BLOCK, 0, n)
    values = _draw_values(table, _last_block[1], offset * n)
    return Configuration(values, int(values[space.iteration_axis.name]))


def unit_values(space: SearchSpace, config: Configuration) -> dict[str, float]:
    """Each parameter's position in [0, 1]: (its value, log or index - origin) / width."""
    out: dict[str, float] = {}
    for name, kind, _, _, choices, origin, width in space.draw_table:
        value = config.values[name]
        if kind == _CHOICE:
            value = choices.index(value)
        elif kind != _UNIFORM:
            value = math.log(value)
        out[name] = min(max((value - origin) / width, 0.0), 1.0)
    return out
