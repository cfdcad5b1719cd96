"""Check reports: one failure line per witness, tallies per axiom family.

Every harness in the engine reports through this class so that the text
rendering (``PASS|FAIL name witness...`` lines plus a summary block) and the
structured rendering stay one-to-one.
"""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Report:
    title: str = ""
    violations: list[tuple[str, tuple[str, ...]]] = field(default_factory=list)
    checked_count: dict[str, int] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def tick(self, family: str, n: int = 1) -> None:
        """Count ``n`` checks of ``family``; with none, it gets no entry."""
        if n:
            self.checked_count[family] = self.checked_count.get(family, 0) + n

    def fail(self, family: str, *witness: str) -> None:
        """Record a violation; the check that found it ticks on its own."""
        self.violations.append((family, tuple(str(w) for w in witness)))

    def note(self, text: str) -> None:
        self.notes.append(text)

    def fail_unchecked(self, families: list[str], why: str) -> None:
        """Fail each of ``families`` that ran zero times, and note ``why`` once:
        a requested family that never ran must not read as a pass."""
        unchecked = [fam for fam in families if not self.checked_count.get(fam)]
        for fam in unchecked:
            self.fail(fam, "never checked")
        if unchecked:
            self.note(why)

    @property
    def ok(self) -> bool:
        return not self.violations

    def families(self) -> list[str]:
        seen = dict.fromkeys(self.checked_count)
        for fam, _ in self.violations:
            seen.setdefault(fam)
        return sorted(seen)

    def to_text(self) -> str:
        lines = []
        if self.title:
            lines.append(f"== {self.title}")
        failed = set()
        for fam, witness in self.violations:
            failed.add(fam)
            lines.append(" ".join(["FAIL", fam, *witness]))
        for fam in self.families():
            if fam not in failed:
                lines.append(f"PASS {fam} ({self.checked_count.get(fam, 0)} checked)")
        for note in self.notes:
            lines.append(f"note: {note}")
        lines.append(
            "summary: checked={} families={} failures={} ok={}".format(
                sum(self.checked_count.values()),
                len(self.families()),
                len(self.violations),
                "yes" if self.ok else "no",
            )
        )
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "title": self.title,
            "violations": [
                {"family": fam, "witness": list(w)} for fam, w in self.violations
            ],
            "checked_count": dict(sorted(self.checked_count.items())),
            "notes": list(self.notes),
            "ok": self.ok,
        }
