"""Span tracer for one ``lisenum`` CLI call, run in its own interpreter.

Usage::

    python3 perfbench/tracer.py TRACE_JSON [lisenum arguments ...]

Runs ``lisenum.cli.main`` on the arguments exactly as ``python3 -m
lisenum`` would, with stdout untouched, after rebinding the public
functions of ``exact``, ``matrices``, ``oracle``, ``identities``,
``pipeline``, ``report`` and ``cli`` to wrappers.  The wrapper replaces
the original under every name it is bound to in every lisenum module:
``pipeline`` does ``from .matrices import det_bareiss``, so patching
``matrices`` alone would time nothing.  At exit the per-span totals go
to TRACE_JSON as ``{name: [calls, total_s, self_s]}``.

A span's self time is its duration minus the time of the spans it
called.  The hot leaves (see ``COUNTED``) are only counted: two clock
reads per call would cost more than the leaf itself.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from math import comb, factorial

MODULES = ("exact", "matrices", "oracle", "identities", "pipeline", "report", "cli")

# Counted, never timed.  exact.exact_div is left unwrapped altogether: it
# is the inner step of det_bareiss, and even a counting wrapper would
# inflate the self time reported for that engine.  replace_column is left
# unwrapped so that its copies count in the self time of solve_cramer,
# its only caller.
COUNTED = {
    "exact.binomial",
    "exact.falling_factorial",
    "exact.scalar_str",
    "exact.parse_scalar",
    "oracle.lis_length",
}
UNWRAPPED = {"exact.exact_div", "matrices.replace_column"}

# Spans that aggregate several functions or name a private one.
SPAN_NAMES = {
    "matrices.transfer_matrix": "matrices.construct",
    "matrices.kernel_matrix": "matrices.construct",
    "matrices.component_matrix": "matrices.construct",
    "matrices.initial_vector": "matrices.construct",
    "matrices.counting_row": "matrices.construct",
    "matrices.shifted_binomial_matrix": "matrices.construct",
    "identities.run_convolution_grid": "identities.convolution",
    "identities.run_ones_identity_grid": "identities.ones",
    "identities.run_moment_identity_grid": "identities.moment",
    "pipeline._suite_counts": "pipeline.suite.counts",
    "pipeline._suite_conjecture": "pipeline.suite.conjecture",
    "pipeline._suite_lemma_a": "pipeline.suite.lemmaA",
    "pipeline._suite_lemma_b": "pipeline.suite.lemmaB",
    "pipeline._suite_lemma_c": "pipeline.suite.lemmaC",
    "pipeline._suite_prop33": "pipeline.suite.prop33",
    "pipeline._suite_bijection": "pipeline.suite.bijection",
    "pipeline._suite_dodgson": "pipeline.suite.dodgson",
    "cli._cmd_count": "cli.handler",
    "cli._cmd_table": "cli.handler",
    "cli._cmd_enumerate": "cli.handler",
    "cli._cmd_verify": "cli.handler",
}

# Methods timed as spans: (module, class, method) -> span name.
METHOD_SPANS = {
    ("report", "VerificationReport", "to_json"): "report.write",
    ("report", "VerificationReport", "summary"): "report.summary",
    ("pipeline", "ComponentTable", "render"): "pipeline.ComponentTable.render",
}


class Tracer:
    """In-memory span and counter totals for one process."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self.stack: list[list] = []  # open spans: [child_s, name]
        self.seen_component_counts: set = set()

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def bump(self, name: str, amount: int = 1) -> None:
        self._stat(name)[0] += amount

    def counter(self, name: str, fn):
        stat = self._stat(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def span(self, name: str, fn, before=None, after=None):
        stat = self._stat(name)
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            frame = [0.0, name]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
            if after is not None:
                after(result)
            return result

        return wrapper

    def scan(self, name: str, fn):
        """Span for the oracle's candidate generator.

        Times each resumption of the generator, counts the candidates the
        scan covers (``#oracle.candidates``) and the members it yields
        (``#oracle.members``).
        """
        stat = self._stat(name)
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        def timed(gen):
            members = 0
            try:
                while True:
                    frame = [0.0, name]
                    stack.append(frame)
                    start = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        elapsed = clock() - start
                        stack.pop()
                        if stack:
                            stack[-1][0] += elapsed
                        stat[1] += elapsed
                        stat[2] += elapsed - frame[0]
                    members += 1
                    yield item
            finally:
                tracer.bump("#oracle.members", members)

        @functools.wraps(fn)
        def wrapper(n, k):
            stat[0] += 1
            tracer.bump("#oracle.candidates", comb(n, k) * factorial(k))
            return timed(fn(n, k))

        return wrapper

    # -- hooks for counts that need a call's arguments or result ----------
    # Their names start with "#" so that they never merge with the span of
    # a function of the same name (report.skipped is both).

    def _note_bareiss(self, args) -> None:
        if self.stack and self.stack[-1][1] == "matrices.det_dodgson":
            self.bump("#matrices.dodgson_fallbacks")

    def _note_component_counts(self, args) -> None:
        if args in self.seen_component_counts:
            self.bump("#oracle.component_counts.repeat_calls")
        self.seen_component_counts.add(args)

    def _note_report(self, report) -> None:
        self.bump("#report.checks", len(report.checks))
        self.bump("#report.skipped", sum(c.status == "skipped" for c in report.checks))

    # -- installation ------------------------------------------------------

    def wrap(self, qualname: str, fn):
        if qualname in UNWRAPPED:
            return None
        if qualname in COUNTED:
            return self.counter(qualname, fn)
        if qualname == "oracle._iter_members":
            return self.scan("oracle.scan", fn)
        hooks = {
            "matrices.det_bareiss": {"before": self._note_bareiss},
            "oracle.component_counts": {"before": self._note_component_counts},
            "pipeline.run_suite": {"after": self._note_report},
        }.get(qualname, {})
        return self.span(SPAN_NAMES.get(qualname, qualname), fn, **hooks)

    def install(self) -> dict:
        """Rebind every chosen function in every lisenum namespace.

        Returns ``{id(original): (original, wrapper)}``.
        """
        package = importlib.import_module("lisenum")
        modules = {m: importlib.import_module(f"lisenum.{m}") for m in MODULES}
        wrapped: dict[int, tuple] = {}
        for short, module in modules.items():
            for attr, value in list(vars(module).items()):
                if not isinstance(value, types.FunctionType) or value.__module__ != module.__name__:
                    continue
                qualname = f"{short}.{attr}"
                if attr.startswith("_") and qualname not in SPAN_NAMES and qualname != "oracle._iter_members":
                    continue
                wrapper = self.wrap(qualname, value)
                if wrapper is not None:
                    wrapped[id(value)] = (value, wrapper)
        for module in (package, *modules.values()):
            for attr, value in list(vars(module).items()):
                entry = wrapped.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
        for (short, cls_name, method), name in METHOD_SPANS.items():
            cls = getattr(modules[short], cls_name)
            setattr(cls, method, self.span(name, getattr(cls, method)))
        cli = modules["cli"]
        if getattr(cli, "json", None) is json:
            # the report file is written by json.dump inside the verify handler
            cli.json = _JsonWithTimedDump(self.span("report.write", json.dump))
        return wrapped

    def to_json(self) -> dict:
        return {name: list(stat) for name, stat in sorted(self.stats.items())}


class _JsonWithTimedDump:
    """The ``json`` module as the CLI sees it, with ``dump`` traced."""

    def __init__(self, dump) -> None:
        self.dump = dump

    def __getattr__(self, attr):
        return getattr(json, attr)


def main(argv: list[str]) -> int:
    trace_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    cli = sys.modules["lisenum.cli"]
    try:
        return cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.to_json(), handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
