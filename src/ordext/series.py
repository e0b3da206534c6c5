"""Time-indexed ordered-pair data with scale metadata."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

SCALES = ("original", "exponential", "frechet")


@dataclass(frozen=True)
class BivariateSeries:
    """Observations (t_i, x_i, y_i) on one of the three margin scales."""

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    scale: str = "original"

    def __post_init__(self):
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float))
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        if not (len(self.t) == len(self.x) == len(self.y)):
            raise InputError("t, x and y must have equal length")
        if len(self.t) == 0:
            raise InputError("series must not be empty")
        if self.scale not in SCALES:
            raise InputError(f"scale must be one of {SCALES}")
        for name in ("t", "x", "y"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise InputError(f"{name} has a NaN or infinite value")

    def __len__(self):
        return len(self.t)

    def is_ordered(self):
        return bool(np.all(self.x < self.y))

    def sorted_by_time(self):
        """The same observations in stable time order (ties keep their
        row order)."""
        order = np.argsort(self.t, kind="stable")
        return BivariateSeries(self.t[order], self.x[order], self.y[order],
                               self.scale)
