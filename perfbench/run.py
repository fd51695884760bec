"""The dyncert benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (``src/dyncert`` beside ``perfbench``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details (provenance, every failed operation, pass times).

``--trace 0`` runs untraced passes, each in a fresh process, for
``--seconds``, and between them times set-up (interpreter start,
``import dyncert`` and the first BLAS call) several times; it reports
medians over the passes and over the set-up probes.
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics of the traced one; the two must produce identical
outputs. The workloads are defined in ``workloads.py``.

Every process started here is single-threaded in BLAS, so with the CLI's
default scan workers (one per core) the load never exceeds ``nproc``.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import tracer  # noqa: E402
from workloads import WORK, WORKLOADS  # noqa: E402

SETUP_PROBES = 15
SETUP_CODE = "import dyncert, numpy; numpy.linalg.eigh(numpy.eye(3))"
BLAS_THREADS = "1"
DEADLINE_S = 175


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_child(argv, deadline):
    """Run a child process in its own session; on overrunning the deadline
    kill its whole process group and wait for it."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"{argv[1:3]} overran the {DEADLINE_S} s deadline")
    if proc.returncode != 0:
        raise BenchError(f"{argv[1:3]} exited {proc.returncode}: "
                         + err.decode(errors="replace")[-2000:])


def setup_seconds(deadline):
    start = time.perf_counter()
    run_child([sys.executable, "-c", SETUP_CODE], deadline)
    return time.perf_counter() - start


def run_pass(workload, seed, trace, deadline):
    out = WORK / f"pass-{os.getpid()}-{time.monotonic_ns()}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    try:
        run_child([sys.executable, str(HERE / "workloads.py"), "--workload",
                   workload, "--seed", str(seed), "--trace", str(trace),
                   "--out", str(out)], deadline)
        return json.loads(out.read_text())
    finally:
        out.unlink(missing_ok=True)


def src_files():
    return sorted(SRC.rglob("*.py"))


def provenance(seed, passes):
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in src_files():
        digest.update(str(path.relative_to(SRC)).encode() + b"\0"
                      + path.read_bytes() + b"\0")
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(),
            "numpy": passes[0]["numpy"], "nproc": os.cpu_count(),
            "blas_threads": int(BLAS_THREADS), "seed": seed,
            "src_lines": src_lines()}


def src_lines():
    return sum(len(p.read_bytes().splitlines()) for p in src_files())


def measure(workload, seed, seconds, deadline):
    """Untraced passes for ``seconds``, with set-up probes spread between
    them so that every metric samples the same stretch of time.

    A pass starts only if, judged by the passes so far (with their
    process start and the probes after them), it ends within ``seconds``;
    the first always runs.
    """
    start = time.monotonic()
    setup, passes, rounds = [], [], []

    def probes_due():
        elapsed = (time.monotonic() - start) / seconds
        return min(SETUP_PROBES, math.ceil(SETUP_PROBES * elapsed))

    setup.append(setup_seconds(deadline))
    while True:
        begin = time.monotonic()
        passes.append(run_pass(workload, seed, 0, deadline))
        while len(setup) < probes_due():
            setup.append(setup_seconds(deadline))
        rounds.append(time.monotonic() - begin)
        expected = statistics.mean(rounds)
        elapsed = time.monotonic() - start
        if (elapsed + expected > seconds
                or deadline - time.monotonic() < 2 * max(rounds) + 10):
            break
    while len(setup) < SETUP_PROBES:
        setup.append(setup_seconds(deadline))
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "question_p50_s": statistics.median(
            statistics.median(t for _, t in p["questions"]) for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    units = {"setup_s": "s", "wall_s": "s", "question_p50_s": "s",
             "peak_rss_mb": "MB"}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    return passes, metrics, [], {"setup_s_samples": setup}


def calls_by_question(dumps, name="numerics.mathieu_eigensystem"):
    """Calls of one layer inside each question of a traced pass: under a
    question span of the pass process, or in the dump of a CLI command,
    which is labelled with the command's name."""
    counts = {}
    for dump in dumps:
        spans = [tracer.Span(*s) for s in dump["spans"]]
        for span in spans:
            if span.name != name:
                continue
            label, up = dump.get("label"), span.parent
            while up >= 0 and spans[up].name != "question":
                up = spans[up].parent
            if up >= 0:
                label = spans[up].tags["label"]
            if label:
                counts[label] = counts.get(label, 0) + 1
    return counts


def measure_traced(workload, seed, deadline):
    plain = run_pass(workload, seed, 0, deadline)
    traced = run_pass(workload, seed, 1, deadline)
    spans, counters = tracer.merge(traced["trace"])
    metrics = layers.layer_metrics(spans, counters, {
        "cli.bytes_written": traced["bytes_written"],
        "src.lines": src_lines(),
        "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
    })
    same = (plain["outputs"] == traced["outputs"]
            and plain["stdout_sha256"] == traced["stdout_sha256"])
    ops = [("trace/outputs-identical", same, "traced outputs differ from untraced"),
           ("trace/wrappers-restored", traced["restored"],
            "a wrapped attribute was not restored")]
    return [plain, traced], metrics, ops, {
        "spans": len(spans),
        "mathieu_calls_by_question": calls_by_question(traced["trace"])}


def main(argv=None):
    parser = argparse.ArgumentParser(description="dyncert benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args(argv)
    if not (SRC / "dyncert" / "__init__.py").is_file():
        print(f"error: no dyncert source under {SRC}", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())
    deadline = time.monotonic() + DEADLINE_S

    try:
        if args.trace:
            passes, metrics, ops, info = measure_traced(args.workload, args.seed,
                                                        deadline)
        else:
            passes, metrics, ops, info = measure(args.workload, args.seed,
                                                 args.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ref = reference["workloads"][args.workload]
    identical = compared = 0
    for p in passes:
        pass_ops, same, total = checks.check(p["outputs"], ref, args.seed)
        ops += pass_ops
        identical += same
        compared += total
    names = {name for name, _, _ in ops}
    failed = {}
    for name, ok, why in ops:
        if not ok:
            failed.setdefault(name, why)
    known = set(ref["known_failures"])
    unexpected = sorted(set(failed) - known)

    detail = {
        "workload": args.workload, "trace": args.trace,
        "provenance": provenance(args.seed, passes),
        "questions": len(passes[0]["questions"]), "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "question_s": passes[0]["questions"],
        "bit_identical": f"{identical}/{compared}",
        "known_failures": sorted(set(failed) & known),
        "unexpected_failures": {n: failed[n] for n in unexpected},
        **info,
    }
    print(json.dumps(detail))
    print(json.dumps({"correct": not unexpected, "attempted": len(names),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
