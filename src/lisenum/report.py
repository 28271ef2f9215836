"""Structured pass/fail records for verification runs.

The helpers below build records without a group: a check builder called
on its own returns group ``""``, and ``pipeline.run_suite`` sets each
record's group to the suite that ran it."""

from __future__ import annotations

from typing import NamedTuple

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"


class CheckResult(NamedTuple):
    """Outcome of a single named check.

    ``witness`` carries the counterexample for failures, or the recorded
    value for points that were evaluated but deliberately not asserted.
    """

    name: str
    status: str
    witness: str | None = None
    group: str = ""

    def as_dict(self) -> dict:
        d: dict = {"group": self.group, "name": self.name, "status": self.status}
        if self.witness is not None:
            d["witness"] = self.witness
        return d


def passed(name: str) -> CheckResult:
    return CheckResult(name, PASS)


def failed(name: str, witness: str) -> CheckResult:
    return CheckResult(name, FAIL, witness)


def skipped(name: str, witness: str) -> CheckResult:
    return CheckResult(name, SKIPPED, witness)


def expect(name: str, got, want, witness: str = "got {got}, expected {want}") -> CheckResult:
    """Pass when ``got == want``, else fail with ``witness`` formatted from
    both sides (``{got}``, ``{want}``, ``{got[0]}`` ...).  The witness is
    formatted only on failure; exact values print as ``str`` does."""
    if got == want:
        return CheckResult(name, PASS)
    return CheckResult(name, FAIL, witness.format(got=got, want=want))


def expect_within(name: str, inside: bool, got, want, witness: str, recorded: str) -> CheckResult:
    """:func:`expect` inside an identity's window; outside it the value is
    a recorded probe, ``skipped`` with witness ``recorded.format(got=got)``."""
    if inside:
        return expect(name, got, want, witness)
    return CheckResult(name, SKIPPED, recorded.format(got=got))


def expect_entries(name: str, cells) -> CheckResult:
    """Pass when every ``(where, got, want)`` cell agrees, else fail at the
    first mismatch with ``"{where}: got {got}, expected {want}"``."""
    for where, got, want in cells:
        if got != want:
            return CheckResult(name, FAIL, f"{where}: got {got}, expected {want}")
    return CheckResult(name, PASS)


class VerificationReport(NamedTuple):
    """A deterministic collection of check results for one suite run."""

    suite: str
    bounds: dict
    checks: list[CheckResult]
    runtime_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not any(c.status == FAIL for c in self.checks)

    @property
    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if c.status == FAIL]

    def totals(self) -> dict:
        t = {PASS: 0, FAIL: 0, SKIPPED: 0}
        for c in self.checks:
            t[c.status] += 1
        return t

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "bounds": dict(self.bounds),
            "runtime_seconds": self.runtime_seconds,
            "totals": self.totals(),
            "checks": [c.as_dict() for c in self.checks],
        }

    def write_json(self, handle) -> None:
        """Write ``json.dump(self.to_json(), handle, indent=2,
        sort_keys=True)`` and a newline, byte for byte, one check at a
        time.  With an indent, ``json`` falls back to its pure-Python
        encoder; here each check is written straight from its fields with
        one template, since its keys ``group``, ``name``, ``status`` and
        ``witness`` (when set) are already in sorted order.  Its strings
        go through ``json``'s C escaper, and no per-check dict and no
        whole-document string is built.  Only the few other fields go
        through ``json.dumps``."""
        import json
        from json.encoder import encode_basestring_ascii as quote

        def field(value) -> str:
            return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")

        write = handle.write
        write('{\n  "bounds": ' + field(self.bounds) + ',\n  "checks": ')
        opening = "["
        for name, status, witness, group in self.checks:
            write(f'{opening}\n    {{\n      "group": {quote(group)},\n      "name": {quote(name)},'
                  f'\n      "status": {quote(status)}'
                  + ("" if witness is None else ',\n      "witness": ' + quote(witness))
                  + "\n    }")
            opening = ","
        write("\n  ]" if self.checks else "[]")
        write(',\n  "runtime_seconds": ' + field(self.runtime_seconds)
              + ',\n  "suite": ' + field(self.suite)
              + ',\n  "totals": ' + field(self.totals()) + "\n}\n")

    def summary(self) -> str:
        """Human-readable digest.  Deliberately free of timing information
        so that identical invocations print identical bytes."""
        t = self.totals()
        lines = [
            f"suite {self.suite}: {t[PASS]} passed, {t[FAIL]} failed, "
            f"{t[SKIPPED]} skipped ({len(self.checks)} checks)"
        ]
        by_group: dict[str, dict] = {}
        for c in self.checks:
            g = by_group.setdefault(c.group, {PASS: 0, FAIL: 0, SKIPPED: 0})
            g[c.status] += 1
        for name in sorted(by_group):
            g = by_group[name]
            lines.append(
                f"  {name or '(ungrouped)'}: {g[PASS]} passed, {g[FAIL]} failed, "
                f"{g[SKIPPED]} skipped"
            )
        for c in self.failures:
            lines.append(f"  FAIL [{c.group}] {c.name}: {c.witness}")
        return "\n".join(lines)
