"""Node-count budgets and the Unknown outcome for exhaustive searches.

Every exact search in this package (trail search, witness search, backtracking
hamiltonicity) counts node expansions against a budget.  When the budget runs
out the search reports :class:`Unknown` instead of guessing; campaigns surface
those Unknowns, they are never silently dropped.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

ENV_BUDGET = "ITLINE_BUDGET"

#: Default node-expansion cap.  Tuned so that pruned exhaustive witness
#: searches over ~2^20 raw edge subsets finish comfortably.
DEFAULT_NODE_BUDGET = 30_000_000


def default_node_budget() -> int:
    """Node budget from the ITLINE_BUDGET env var, or the built-in default."""
    raw = os.environ.get(ENV_BUDGET)
    if raw is None:
        return DEFAULT_NODE_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{ENV_BUDGET} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise ValueError(f"{ENV_BUDGET} must be positive, got {value}")
    return value


@dataclass(frozen=True)
class Unknown:
    """A search gave up before exhausting its space.

    Not a stand-in for None/False: callers must branch on it explicitly, so
    instances refuse to be used in boolean context.
    """

    operation: str
    budget_spent: int
    detail: str = ""

    def __bool__(self) -> bool:
        raise TypeError(
            "Unknown has no truth value; check `isinstance(result, Unknown)` first"
        )

    def to_dict(self) -> dict:
        """The form reports and the CLI write it in."""
        return {"operation": self.operation, "budget_spent": self.budget_spent,
                "detail": self.detail}


class BudgetExhausted(Exception):
    """Internal control flow: unwinds a search when its budget runs out."""

    def __init__(self, spent: int):
        super().__init__(f"search budget exhausted after {spent} node expansions")
        self.spent = spent


class Budget:
    """Mutable countdown of node expansions with an optional wall-clock deadline."""

    __slots__ = ("spent", "remaining", "deadline")

    def __init__(self, node_cap: int | None = None, time_limit: float | None = None):
        cap = default_node_budget() if node_cap is None else int(node_cap)
        if cap <= 0:
            raise ValueError(f"node budget must be positive, got {cap}")
        self.spent = 0
        self.remaining = cap
        self.deadline = None if time_limit is None else time.monotonic() + time_limit

    def tick(self, n: int = 1) -> None:
        self.spent += n
        self.remaining -= n
        if self.remaining < 0:
            raise BudgetExhausted(self.spent)
        # The clock is only consulted every ~8k expansions to keep ticks cheap.
        if self.deadline is not None and self.spent % 8192 < n:
            if time.monotonic() > self.deadline:
                raise BudgetExhausted(self.spent)
