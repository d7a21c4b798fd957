"""Common result type for experiment reproductions.

Every experiment module exposes ``run(...) -> ExperimentResult``; the
result carries the table rows it reproduces, a rendered text block, and
the paper's reference values so EXPERIMENTS.md can be generated from
the same source of truth.
"""

from __future__ import annotations

import argparse
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple


@dataclass
class ExperimentResult:
    """The output of one table/figure reproduction."""

    experiment_id: str  # e.g. "table1", "fig5"
    title: str
    headers: List[str] = field(default_factory=list)
    rows: List[Tuple] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    paper_reference: Dict[str, Any] = field(default_factory=dict)
    extra: Dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        """A fixed-width text table (what the benches print)."""
        lines = [f"== {self.experiment_id}: {self.title} =="]
        if self.headers:
            widths = [
                max(
                    len(str(self.headers[i])),
                    max((len(str(row[i])) for row in self.rows), default=0),
                )
                for i in range(len(self.headers))
            ]
            lines.append(
                "  ".join(
                    str(h).ljust(widths[i]) for i, h in enumerate(self.headers)
                )
            )
            lines.append("  ".join("-" * w for w in widths))
            for row in self.rows:
                lines.append(
                    "  ".join(
                        str(cell).ljust(widths[i]) for i, cell in enumerate(row)
                    )
                )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def row_dict(self, key_column: int = 0) -> Dict[Any, Tuple]:
        return {row[key_column]: row for row in self.rows}


def percent(part: int, whole: int) -> float:
    """Percentage helper tolerant of empty denominators."""
    return 100.0 * part / whole if whole else 0.0


def scale_arg(text: str) -> float:
    """argparse ``type`` of every ``--scale``: a finite number > 0.

    NaN or infinity cannot size a world; zero or less would quietly
    build the minimum-size one.
    """
    value = float(text)  # argparse reports a ValueError as a usage error
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"scale must be a finite number > 0, got {text!r}"
        )
    return value


def positive_int_arg(text: str) -> int:
    """argparse ``type`` of every count that must be at least one
    (``--repetitions``, ``--rounds``, ``--probes-per-round``).

    Zero or a negative count would run on no evidence and still report
    a clean result.
    """
    value = int(text)  # argparse reports a ValueError as a usage error
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 1, got {text!r}"
        )
    return value


def fraction_arg(text: str) -> float:
    """argparse ``type`` of a threshold on a fraction: a number in [0, 1].

    A threshold above one could never be met; NaN would never fail.
    """
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"must be a fraction in [0, 1], got {text!r}"
        )
    return value
