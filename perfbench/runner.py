"""Run one ``lisenum`` op in a fresh interpreter, measure it, check its output.

Each op is spawned as ``python3 -m lisenum ARGV`` (or through
``tracer.py``) with ``PYTHONPATH`` pointing at the checkout's ``src``, so
every op pays interpreter start-up and starts with cold in-process
caches, as a user's ``lisenum`` call does.

The child's own peak RSS comes from ``os.wait4``: ``RUSAGE_CHILDREN`` is
a running maximum over all children and would hide a drop.  Linux also
carries into the child's figure the memory it had before ``exec``: the
parent's whole peak when the child is started with ``vfork`` (the
``subprocess`` default), only the parent's current RSS with a plain
``fork``.  So children are forked, and the harness keeps itself small:
stdout is digested as it streams and kept only when short.
"""

from __future__ import annotations

import hashlib
import json
import os
import selectors
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import OUT, closed_form, flag, golden_key

OP_TIMEOUT_S = 45.0
KEEP_STDOUT_BYTES = 1 << 20
KEEP_STDERR_BYTES = 1 << 12

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
TRACER = BENCH_DIR / "tracer.py"
REFERENCE = BENCH_DIR / "reference.py"
GOLDEN = BENCH_DIR / "golden.json"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # keep bytecode inside the build directory rather than under src/
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


@dataclass
class OpResult:
    argv: list[str]
    wall_s: float
    first_byte_s: float  # spawn to first stdout byte; wall_s if nothing was printed
    rss_mb: float
    exit_code: int | None  # None on timeout
    stdout_sha256: str
    stdout_bytes: int
    stdout_lines: int
    stdout: bytes | None  # None when longer than KEEP_STDOUT_BYTES
    stderr_tail: bytes
    report: dict | None  # the verify --out file, parsed
    trace: dict | None  # span totals from tracer.py


def _no_vfork() -> None:
    """Passing any preexec_fn makes subprocess fork instead of vfork (see above)."""


def _reap(proc: subprocess.Popen):
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def run_op(argv: list[str], env: dict, traced: bool = False) -> OpResult:
    """Spawn one op and wait for it, with a wall-clock timeout."""
    WORK.mkdir(parents=True, exist_ok=True)
    out_path = WORK / f"op-{os.getpid()}.report.json"
    trace_path = WORK / f"op-{os.getpid()}.trace.json"
    for path in (out_path, trace_path):
        path.unlink(missing_ok=True)
    cli_argv = [str(out_path) if a == OUT else a for a in argv]
    if traced:
        cmd = [sys.executable, str(TRACER), str(trace_path), *cli_argv]
    else:
        cmd = [sys.executable, "-m", "lisenum", *cli_argv]
    first_byte = None
    timed_out = False
    digest = hashlib.sha256()
    size = lines = 0
    kept: list[bytes] | None = []
    err = b""
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        preexec_fn=_no_vfork,
    )
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            sel.register(proc.stderr, selectors.EVENT_READ)
            deadline = start + OP_TIMEOUT_S
            while sel.get_map():
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    timed_out = True
                    proc.kill()
                    break
                for key, _ in sel.select(remaining):
                    data = os.read(key.fd, 1 << 16)
                    if not data:
                        sel.unregister(key.fileobj)
                    elif key.fileobj is proc.stderr:
                        err = (err + data)[-KEEP_STDERR_BYTES:]
                    else:
                        if first_byte is None:
                            first_byte = time.perf_counter() - start
                        digest.update(data)
                        size += len(data)
                        lines += data.count(b"\n")
                        if kept is not None:
                            kept.append(data)
                            if size > KEEP_STDOUT_BYTES:
                                kept = None
    finally:
        usage = _reap(proc)
        wall = time.perf_counter() - start
        proc.stdout.close()
        proc.stderr.close()
    report, trace = _take_json(out_path), _take_json(trace_path)
    return OpResult(
        argv=argv,
        wall_s=wall,
        first_byte_s=first_byte if first_byte is not None else wall,
        rss_mb=usage.ru_maxrss / 1024.0,
        exit_code=None if timed_out else proc.returncode,
        stdout_sha256=digest.hexdigest(),
        stdout_bytes=size,
        stdout_lines=lines,
        stdout=None if kept is None else b"".join(kept),
        stderr_tail=err,
        report=report,
        trace=trace,
    )


def run_reference(env: dict) -> tuple[float, bytes | None]:
    """Spawn ``reference.py`` once: its wall time, and its stdout (None on timeout)."""
    start = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, str(REFERENCE)], cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=OP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, None
    return time.perf_counter() - start, done.stdout


def _take_json(path: Path) -> dict | None:
    """Parse and delete a file the op wrote; None if it is missing or unreadable."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None
    finally:
        path.unlink(missing_ok=True)


def checks_digest(checks: list) -> str:
    """Digest of the verify report's ``checks`` array; timing lives outside it."""
    return hashlib.sha256(json.dumps(checks, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def load_goldens() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def golden_record(result: OpResult) -> dict:
    record = {"exit": result.exit_code, "stdout_sha256": result.stdout_sha256}
    if result.argv[0] == "verify":
        checks = (result.report or {}).get("checks")
        record["checks_sha256"] = None if checks is None else checks_digest(checks)
    return record


def check(result: OpResult, goldens: dict) -> str | None:
    """Why the op's result is wrong, or None when it is right."""
    argv = result.argv
    if result.exit_code is None:
        return f"timed out after {OP_TIMEOUT_S:.0f} s"
    if result.exit_code != 0:
        return f"exit code {result.exit_code}: {result.stderr_tail.decode(errors='replace').strip()[-300:]}"
    command = argv[0]
    if command == "count":
        n, k = int(flag(argv, "--n")), int(flag(argv, "--k"))
        expected = f"{closed_form(n, k)}\n".encode()
        return None if result.stdout == expected else "count differs from the closed form"
    golden = goldens.get(golden_key(argv))
    if golden is None:
        return "no golden output recorded for this op"
    if golden_record(result) != golden:
        return "output differs from the golden record"
    if command == "enumerate" and flag(argv, "--prefix") is None:
        n, k = int(flag(argv, "--n")), int(flag(argv, "--k"))
        if result.stdout_lines != closed_form(n, k):
            return "enumerate line count differs from the closed form"
    if command == "table":
        k = int(flag(argv, "--k"))
        lines = (result.stdout or b"").decode().splitlines()
        n_values = [int(h.removeprefix("n=")) for h in lines[0].split(",")[1:]]
        totals = [int(v) for v in lines[-1].split(",")[1:]]
        if totals != [closed_form(n, k) for n in n_values]:
            return "table totals differ from the closed form"
    return None
