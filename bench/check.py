"""Checking the program's results against the inputs' known answers.

A failure is a result that disagrees with the known answer, or an item
that raised. Rejecting a malformed input is the expected answer for it, so
it is not a failure. Each failure is put down either to the known defect
its input was built to reach, or to nothing known; a run is correct only
when no failure is unexplained.
"""

from __future__ import annotations

import json
from fractions import Fraction

from gen import FLAG_NAMES


def matches(item, outcome) -> bool:
    """Whether a library item's outcome is its expected answer. The sum of
    two lengths is computed in floats, so it is held to nine digits."""
    expect = item.expect
    if item.op == "add_units" and expect[0] == "ok" and outcome[0] == "ok":
        text = outcome[2]
        if outcome[1] != expect[1] or not text.endswith(expect[1]):
            return False
        got = Fraction(text[:-len(expect[1])])
        return abs(got - expect[2]) <= Fraction(1, 10 ** 9) * max(1, abs(expect[2]))
    return outcome == expect


def record_ok(record: dict, expect: dict | None) -> bool:
    """Whether a CLI record carries the expected fields (None: a rejection)."""
    if expect is None:
        return record.get("ok") is False and "error" in record
    return record.get("ok") is True and all(record.get(k) == v for k, v in expect.items())


def parse_records(stdout: str) -> list[dict]:
    """The CLI's JSON records, one per "\\n"-terminated line."""
    return [json.loads(line) for line in stdout.split("\n") if line]


def check_lines(lines, records) -> list[bool]:
    """Per input line, whether the CLI wrote exactly its expected record.

    Records are matched to lines by their ``input``; a line the CLI split
    into several records fails, and matching resumes at the next line.
    """
    out = []
    p = 0
    for k, line in enumerate(lines):
        if p < len(records) and records[p].get("input") == line.text:
            out.append(record_ok(records[p], line.expect))
            p += 1
            continue
        out.append(False)
        following = lines[k + 1].text if k + 1 < len(lines) else None
        while p < len(records) and records[p].get("input") != following:
            p += 1
    return out


class Tally:
    """Items checked, failures by cause, and the shares of input properties.

    A run repeats the seed's items for as long as it measures, so an item
    may be checked many times. Counts are per distinct item, named by a
    key: an item counts once, and as failed if any of its checks failed.
    ``attempted`` and ``failed`` thus follow from the seed alone, not from
    how many passes fit into the time.
    """

    def __init__(self):
        self.items: dict = {}  # key -> (item, every check so far ok)
        self.checks = 0
        self.examples: list = []
        self.absorbed: list[dict] = []

    def __contains__(self, key) -> bool:
        return key in self.items

    def add(self, key, item, ok: bool, detail=None) -> None:
        """Note one check of the item named ``key``; ``item`` has ``flags``
        and ``defect``."""
        self.checks += 1
        seen = self.items.get(key)
        self.items[key] = (item, ok and (seen is None or seen[1]))
        if not ok and not item.defect and len(self.examples) < 5:
            self.examples.append(detail)

    def absorb(self, other: dict) -> None:
        """Add the counts of another tally's ``as_dict``, whose keys name
        other items than this tally's."""
        self.absorbed.append(other)
        self.examples += other["examples"][:5 - len(self.examples)]

    def as_dict(self) -> dict:
        out = {"attempted": len(self.items), "failed": 0, "checks": self.checks,
               "by_defect": {}, "unexplained": 0, "examples": self.examples,
               "flags": {name: 0 for name in FLAG_NAMES.values()}}
        for item, ok in self.items.values():
            for bit, name in FLAG_NAMES.items():
                if item.flags & bit:
                    out["flags"][name] += 1
            if ok:
                continue
            out["failed"] += 1
            if item.defect:
                out["by_defect"][item.defect] = out["by_defect"].get(item.defect, 0) + 1
            else:
                out["unexplained"] += 1
        for other in self.absorbed:
            for name in ("attempted", "failed", "checks", "unexplained"):
                out[name] += other[name]
            for name, count in other["by_defect"].items():
                out["by_defect"][name] = out["by_defect"].get(name, 0) + count
            for name, count in other["flags"].items():
                out["flags"][name] += count
        return out
