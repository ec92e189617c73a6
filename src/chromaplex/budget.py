"""Enumeration budget control.

Exhaustive enumerations (independent sets, truncation windows, hypergraph
scans) refuse to start when their estimated size exceeds 2**budget, where the
budget exponent is read from the ``CHROMAPLEX_BUDGET`` environment variable
(default 24) once per process, at the first charge.  The refusal carries the
estimate so the caller can decide whether to raise the budget.
"""

from __future__ import annotations

import os

from .errors import BudgetError

ENV_VAR = "CHROMAPLEX_BUDGET"
DEFAULT_EXPONENT = 24

_limit: int | None = None  # the cap, once read


def budget_limit() -> int:
    """The enumeration cap, as a plain count; read on the first call."""
    global _limit
    if _limit is None:
        raw = os.environ.get(ENV_VAR, str(DEFAULT_EXPONENT))
        try:
            exponent = int(raw)
        except ValueError as exc:
            raise ValueError(f"{ENV_VAR} must be an integer, got {raw!r}") from exc
        if exponent < 0 or exponent > 62:
            raise ValueError(f"{ENV_VAR} must be between 0 and 62, got {exponent}")
        _limit = 1 << exponent
    return _limit


def charge(estimate: int, what: str) -> None:
    """Refuse with a BudgetError if estimate exceeds the configured cap."""
    limit = budget_limit()
    if estimate > limit:
        raise BudgetError(
            f"refusing {what}: estimated enumeration size {estimate} exceeds "
            f"budget {limit} (raise {ENV_VAR} to allow)"
        )
