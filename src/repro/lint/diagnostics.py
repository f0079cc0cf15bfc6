"""Finding objects and their canonical renderings.

A :class:`Finding` is one diagnostic: a rule identifier, a position and a
message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True, order=True)
class Finding:
    """One lint diagnostic, ordered by position for stable output."""

    file: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        """The ``file:line:col: RXXX message`` diagnostic line."""
        return f"{self.file}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (the ``repro lint --format json`` schema)."""
        return {
            "file": self.file,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }
