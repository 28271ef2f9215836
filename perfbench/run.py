"""Benchmark of the lisenum command line, end to end and layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {verify,table,solve,brute,all} \\
        --seed N --seconds S --trace {0,1}

One client drives the CLI in a closed loop: each op is the argv of one
``lisenum`` call, spawned in a fresh interpreter only after the previous
one has exited, and its exit code and stdout are checked (see
``runner.check``).  The op list comes from ``workloads.generate`` and the
seed; the CLI sees only the generated argv.

``--trace 0`` measures the end-to-end metrics: set-up time (the trivial
call every op pays), then passes over the op list until the next pass
would overrun ``--seconds``.  On a shared host the speed a process gets
drifts, by a third or more, within seconds and over minutes, so times
are reported in seconds at a fixed speed: after each op the reference
program (``reference.py``, no lisenum code) runs for a quarter of the
op's time, at least once, and the op's times are scaled by
``REF_NOMINAL_S`` over the median of the reference times run nearest to
it.  The raw wall times and the scales are in the full record.

``--trace 1`` alternates each op with a traced run of it
(``tracer.py``), requires byte-identical stdout from the two, and turns
the span totals into the per-layer metrics.

Human-readable lines come first; the last line of stdout is the JSON
result.  The full record, with provenance and every span, is written to
``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass

import reference
import runner
import workloads

SETUP_ARGV = ["count", "--n", "0", "--k", "0"]
SETUP_SAMPLES = 5  # before the passes, and as many again after them
# stop issuing ops this long after the measuring window, whatever happens
DEADLINE_SLACK_S = 90.0
# reference time run after each op, as a share of the op's wall time
REF_SHARE = 0.25
# blocks of reference times on each side of an op whose median scales it;
# one block follows each op.  The speed can change within a second, but a
# single short block is noisier than a long op, so two on each side.
REF_BLOCKS = 2
# reference wall time that stands for the nominal speed, and so fixes the
# unit: about what it takes on a 2-vCPU Xeon VM with Python 3.11
REF_NOMINAL_S = 0.2


def _stat(spans: dict, name: str, field: int):
    return spans.get(name, (0, 0.0, 0.0))[field]


def calls(name):
    return lambda spans: _stat(spans, name, 0)


def total_s(name):
    return lambda spans: _stat(spans, name, 1)


def self_s(name):
    return lambda spans: _stat(spans, name, 2)


def _yield(spans):
    candidates = _stat(spans, "#oracle.candidates", 0)
    return _stat(spans, "#oracle.members", 0) / candidates if candidates else 0.0


# (name, unit, value from the span totals of one traced pass)
PER_LAYER = [
    ("exact.binomial.calls", "count", calls("exact.binomial")),
    ("exact.falling_factorial.calls", "count", calls("exact.falling_factorial")),
    ("matrices.det_bareiss.calls", "count", calls("matrices.det_bareiss")),
    ("matrices.det_bareiss.self_s", "s", self_s("matrices.det_bareiss")),
    ("matrices.solve_cramer.calls", "count", calls("matrices.solve_cramer")),
    ("matrices.solve_cramer.self_s", "s", self_s("matrices.solve_cramer")),
    ("matrices.construct.self_s", "s", self_s("matrices.construct")),
    ("matrices.det_dodgson.calls", "count", calls("matrices.det_dodgson")),
    ("matrices.det_dodgson.self_s", "s", self_s("matrices.det_dodgson")),
    ("matrices.mat_mul.self_s", "s", self_s("matrices.mat_mul")),
    ("matrices.dodgson_fallbacks", "count", calls("#matrices.dodgson_fallbacks")),
    ("oracle.candidates", "count", calls("#oracle.candidates")),
    ("oracle.lis_length.calls", "count", calls("oracle.lis_length")),
    ("oracle.members", "count", calls("#oracle.members")),
    ("oracle.yield", "ratio", _yield),
    ("oracle.scan.self_s", "s", self_s("oracle.scan")),
    ("oracle.component_counts.repeat_calls", "count", calls("#oracle.component_counts.repeat_calls")),
    ("oracle.format_perm.self_s", "s", self_s("oracle.format_perm")),
    ("identities.convolution.s", "s", total_s("identities.convolution")),
    ("identities.ones.s", "s", total_s("identities.ones")),
    ("identities.moment.s", "s", total_s("identities.moment")),
    *(
        (f"pipeline.suite.{group}.s", "s", total_s(f"pipeline.suite.{group}"))
        for group in ("counts", "conjecture", "lemmaA", "lemmaB", "lemmaC", "prop33", "bijection", "dodgson")
    ),
    ("pipeline.components.calls", "count", calls("pipeline.components")),
    ("pipeline.components.self_s", "s", self_s("pipeline.components")),
    ("pipeline.count_formula.self_s", "s", self_s("pipeline.count_formula")),
    ("pipeline.component_table.s", "s", total_s("pipeline.component_table")),
    ("report.checks", "count", calls("#report.checks")),
    ("report.skipped", "count", calls("#report.skipped")),
    ("report.write.s", "s", total_s("report.write")),
    ("cli.stdout_bytes", "bytes", calls("#cli.stdout_bytes")),
    ("cli.self_s", "s", self_s("cli.handler")),
]
EXACT_UNITS = ("count", "bytes")


class Run:
    """Issues ops, checks each one, and counts attempts and failures."""

    def __init__(self, seconds: int) -> None:
        self.goldens = runner.load_goldens()
        self.env = runner.child_env()
        self.deadline = time.perf_counter() + seconds + DEADLINE_SLACK_S
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, argv: list[str], traced: bool = False, expect_sha256: str | None = None):
        """Run one op; None if the run's deadline has passed.

        The result comes back without its stdout and report, which are
        dropped once checked so that the harness stays small.
        """
        self.attempted += 1
        if time.perf_counter() > self.deadline:
            self.failures.append(f"{' '.join(argv)}: not started, run deadline passed")
            return None
        result = runner.run_op(argv, self.env, traced=traced)
        why = runner.check(result, self.goldens)
        if why is None and traced:
            if result.trace is None:
                why = "tracer wrote no span totals"
            elif result.stdout_sha256 != expect_sha256:
                why = "traced stdout differs from the untraced run"
        if why is not None:
            self.failures.append(f"{' '.join(argv)}{' (traced)' if traced else ''}: {why}")
        result.stdout = result.report = None
        return result

    def references(self, seconds: float) -> list[float] | None:
        """Reference wall times, at least one, until they total ``seconds``;
        None if the deadline or a wrong output cut them short.

        References are not ops and do not count as attempted; a wrong one
        is recorded as a failure, which fails the run.
        """
        walls: list[float] = []
        while not walls or sum(walls) < seconds:
            if time.perf_counter() > self.deadline:
                self.failures.append("reference: not started, run deadline passed")
                return None
            wall, stdout = runner.run_reference(self.env)
            if stdout != f"{reference.EXPECTED}\n".encode():
                self.failures.append(f"reference: printed {stdout!r}, not {reference.EXPECTED}")
                return None
            walls.append(wall)
        return walls


@dataclass
class Sample:
    """One op's result, and its times scaled to the nominal machine speed."""

    result: runner.OpResult
    block: int  # index of the block of reference times run just before the op
    scale: float = 1.0

    @property
    def wall_s(self) -> float:
        return self.result.wall_s * self.scale

    @property
    def first_byte_s(self) -> float:
        return self.result.first_byte_s * self.scale

    @property
    def rss_mb(self) -> float:
        return self.result.rss_mb


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(run: Run, ops: list[list[str]], seconds: int) -> tuple[dict, dict]:
    """Set-up time, then whole passes over the op list for ``seconds``.

    Each op's time is its median over the passes, which filters a stall
    that hits one op in one pass.  ``wall_s`` sums these over the op list,
    and the per-op quantiles are taken over them, so the mix they describe
    does not depend on how many passes fit in the run.
    """
    # fill the bytecode caches (a user's installed package has them) and
    # the page cache, untimed
    run.op(SETUP_ARGV)
    run.references(0.0)
    blocks = [run.references(0.0)]  # reference times: one block, then one after each op
    if blocks[0] is None:
        return {}, {}

    def measure(argv: list[str]) -> Sample | None:
        """Run one op, then references for REF_SHARE of its time, at least one."""
        result = run.op(argv)
        after = result and run.references(REF_SHARE * result.wall_s)
        if not after:
            return None
        blocks.append(after)
        return Sample(result, len(blocks) - 2)

    def setup_samples() -> list[Sample]:
        return [s for s in (measure(SETUP_ARGV) for _ in range(SETUP_SAMPLES)) if s]

    setup = setup_samples()
    passes: list[list[Sample]] = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        pass_start = time.perf_counter()
        done = [s for s in (measure(argv) for argv in ops) if s]
        if len(done) < len(ops):
            break
        passes.append(done)
        longest = max(longest, time.perf_counter() - pass_start)
        if time.perf_counter() - start + longest > seconds:
            break
    setup += setup_samples()
    if not (setup and passes):
        return {}, {}
    pooled = [s for p in passes for s in p]
    for sample in setup + pooled:
        near = blocks[max(sample.block - REF_BLOCKS + 1, 0):sample.block + REF_BLOCKS + 1]
        sample.scale = REF_NOMINAL_S / statistics.median(wall for block in near for wall in block)

    def per_op(field: str) -> list[float]:
        return [statistics.median(getattr(p[i], field) for p in passes) for i in range(len(ops))]

    walls = per_op("wall_s")
    metrics = {
        "setup_s": (statistics.median(s.wall_s for s in setup), "s"),
        "wall_s": (sum(walls), "s"),
        "op_p50_s": (statistics.median(walls), "s"),
        "op_p90_s": (p90(walls), "s"),
        "first_line_s": (statistics.median(per_op("first_byte_s")), "s"),
        "peak_rss_mb": (max(per_op("rss_mb")), "MB"),
    }
    samples = {
        "setup_s": len(setup),
        "passes": len(passes),
        "ops_per_pass": len(ops),
        "op_s": len(pooled),
        "reference_s": sum(len(block) for block in blocks),
        "median_scale": statistics.median(s.scale for s in setup + pooled),
        "setup_walls": [s.result.wall_s for s in setup],
        "setup_scales": [s.scale for s in setup],
        "op_walls": [[s.result.wall_s for s in p] for p in passes],
        "op_scales": [[s.scale for s in p] for p in passes],
        "reference_walls": blocks,
    }
    return metrics, samples


def per_layer(run: Run, ops: list[list[str]], seconds: int) -> tuple[dict, dict, dict]:
    """Passes in which every op runs untraced and then traced, for ``seconds``.

    Returns the per-layer metrics (medians over passes; exact counts must
    agree between passes), the sample counts, and the span totals of the
    last pass.
    """
    run.op(SETUP_ARGV)  # fills the bytecode cache, as in end_to_end
    plain_walls: list[float] = []
    traced_walls: list[float] = []
    pass_metrics: list[dict] = []
    spans: dict = {}
    start = time.perf_counter()
    while True:
        spans = {}
        plain_wall = traced_wall = 0.0
        complete = True
        for argv in ops:
            plain = run.op(argv)
            traced = plain and run.op(argv, traced=True, expect_sha256=plain.stdout_sha256)
            if not traced:
                complete = False
                break
            plain_wall += plain.wall_s
            traced_wall += traced.wall_s
            for name, stat in (traced.trace or {}).items():
                into = spans.setdefault(name, [0, 0.0, 0.0])
                for i in range(3):
                    into[i] += stat[i]
            spans.setdefault("#cli.stdout_bytes", [0, 0.0, 0.0])[0] += traced.stdout_bytes
        if not complete:
            break
        plain_walls.append(plain_wall)
        traced_walls.append(traced_wall)
        pass_metrics.append({name: fn(spans) for name, _, fn in PER_LAYER})
        if time.perf_counter() - start + max(p + t for p, t in zip(plain_walls, traced_walls)) > seconds:
            break
    if not pass_metrics:
        return {}, {}, {}
    metrics = {}
    for name, unit, _ in PER_LAYER:
        values = [m[name] for m in pass_metrics]
        if unit not in EXACT_UNITS:
            metrics[name] = (statistics.median(values), unit)
            continue
        if len(set(values)) > 1:
            run.failures.append(f"{name} differs between traced passes of the same ops: {values}")
        metrics[name] = (values[0], unit)
    overhead = statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    samples = {"traced_passes": len(traced_walls), "ops_per_pass": len(ops)}
    return metrics, samples, spans


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving it; None outside git."""
    git = runner.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance() -> dict:
    digest = hashlib.sha256()
    for path in sorted((runner.SRC / "lisenum").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    ops = workloads.generate(workload, seed)
    run = Run(seconds)
    spans: dict = {}
    if trace:
        metrics, samples, spans = per_layer(run, ops, seconds)
    else:
        metrics, samples = end_to_end(run, ops, seconds)
    # children carry the harness's RSS at fork time as a floor (see runner)
    samples["harness_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = len(run.failures)
    print(f"# workload {workload} seed {seed} trace {int(trace)}: {len(ops)} ops per pass")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(f"fail_frac {failed / max(run.attempted, 1)} ({failed} of {run.attempted} ops)")
    for line in run.failures[:20]:
        print(f"FAIL {line}")
    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "why": workloads.WHY[workload],
        "ops": ops,
        "provenance": provenance(),
        "samples": samples,
        "attempted": run.attempted,
        "failures": run.failures,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "spans": spans,
    }
    counts = {k: v for k, v in samples.items() if not isinstance(v, list)}
    print("# " + json.dumps({"provenance": detail["provenance"], "samples": counts}, sort_keys=True))
    runner.WORK.mkdir(parents=True, exist_ok=True)
    path = runner.WORK / f"result-{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": run.attempted,
        "failed": failed,
        "metrics": detail["metrics"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (runner.SRC / "lisenum" / "__init__.py").is_file():
        print(f"error: no lisenum sources under {runner.SRC}", file=sys.stderr)
        return 2
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in workloads.WORKLOADS}
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
