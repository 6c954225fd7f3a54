"""Common report structure shared by all experiment drivers.

Each driver in :mod:`repro.experiments` reproduces one quantitative claim of
the paper (see the E1–E11 table in README.md) and returns an :class:`ExperimentReport`:
the claim being tested, the measured rows, and free-form notes.  Benchmarks
print ``report.render()`` so that running the benchmark suite regenerates
every "table" of the reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence

from ..analysis.tables import render_table
from ..errors import ExperimentError

__all__ = ["ExperimentReport"]


@dataclass
class ExperimentReport:
    """The output of one experiment driver.

    Attributes
    ----------
    experiment_id:
        Identifier from the README.md experiment index (e.g. ``"E1"``).
    title:
        Human-readable one-line description.
    claim:
        The paper statement being reproduced (theorem / claim / section).
    rows:
        Measured table rows (list of dicts, one per configuration).
    notes:
        Free-form remarks (calibration caveats, fits, pass/fail summary).
    config:
        The driver configuration that produced the rows (trial counts, sizes).
    """

    experiment_id: str
    title: str
    claim: str
    rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    config: Dict[str, Any] = field(default_factory=dict)

    def add_row(self, **values: Any) -> None:
        """Append one table row."""
        self.rows.append(dict(values))

    def add_note(self, note: str) -> None:
        """Append a free-form note."""
        self.notes.append(note)

    def columns(self) -> Sequence[str]:
        """Column order inferred from the first row."""
        if not self.rows:
            raise ExperimentError(f"experiment {self.experiment_id} produced no rows")
        return list(self.rows[0].keys())

    def render(self, float_digits: int = 3) -> str:
        """Render the full report (title, claim, table, notes) as text."""
        if not self.rows:
            raise ExperimentError(f"experiment {self.experiment_id} produced no rows to render")
        lines = [
            f"{self.experiment_id}: {self.title}",
            f"paper claim: {self.claim}",
            "",
            render_table(self.rows, float_digits=float_digits),
        ]
        if self.notes:
            lines.append("")
            lines.extend(f"note: {note}" for note in self.notes)
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable representation (used by the run-artifact store)."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "claim": self.claim,
            "rows": [dict(row) for row in self.rows],
            "notes": list(self.notes),
            "config": dict(self.config),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExperimentReport":
        """Inverse of :meth:`to_dict`."""
        return cls(
            experiment_id=str(payload["experiment_id"]),
            title=str(payload["title"]),
            claim=str(payload["claim"]),
            rows=[dict(row) for row in payload.get("rows", [])],
            notes=[str(note) for note in payload.get("notes", [])],
            config=dict(payload.get("config", {})),
        )
