"""Benchmark of the relators package: seeded workloads, checked outputs,
end-to-end and per-layer metrics.

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

One run builds the workload's seeded inputs (set-up), then repeats rounds
of the workload's fixed operations until their wall-clock time reaches
``--seconds``, then checks the first round's outputs against independent
computations (``oracles.py``) and every later round's against the first.
Times are CPU seconds of the measuring process, scaled to a fixed reference
speed by a reference kernel timed between the operations (see the README):
the package runs single-threaded, so on an idle machine CPU time equals wall
time, and the figures follow the package rather than the time the process
waits for a processor or the speed the shared host gives it that minute.
``--trace 0``
reports the end-to-end metrics; ``--trace 1`` wraps the
package's public functions (``tracer.py``), reports per-layer metrics for
one set-up plus one average round, and writes the spans and counters to
``.bench_out/trace-<workload>-<seed>.json``.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.

The package is imported from ``src/`` next to this directory; without it
the run fails with exit status 2.  Bytecode is not written, so every
set-up compiles the package from source, as the first run in a fresh
checkout does.
"""

from __future__ import annotations

import os
import sys

sys.dont_write_bytecode = True
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # the checkers' numpy: no thread pools

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("certify", "pieces", "embed", "experiment")
SETUP_REPEATS = 7  # set-ups per run: this process plus fresh helper processes
REF_NOMINAL_S = 0.003  # reported times are scaled to a machine where reference_kernel takes this
REF_PER_ROUND = 5  # reference samples at the start of every round
REF_EVERY_S = 0.05  # and one more after each stretch of this much operation CPU time
CHILD_TIMEOUT = 170

END_TO_END = (
    ("setup_s", "s"),
    ("round_s", "s"),
    ("work_per_s", "items/s"),
    ("op_max_s", "s"),
    ("peak_rss_mib", "MiB"),
)

sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import BUILDERS, CheckFailed  # noqa: E402


def load_package():
    if not (SRC / "relators" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'relators'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import relators
    import relators.cli  # noqa: F401  (the experiment workload drives it)

    return relators


def setup_in_helper(args) -> float:
    """Set-up CPU time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--setup-only"],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"set-up helper failed with status {proc.returncode}")
    return float(proc.stdout.strip().splitlines()[-1])


_REF_KEYS = np.random.default_rng(0).integers(0, 1 << 40, 20_000)


def reference_kernel() -> int:
    """A fixed piece of work in the package's mix (tuples, dicts, lists,
    integer arithmetic, one numpy sort), timed between operations to read
    how fast the machine runs at that moment."""
    counts: dict = {}
    acc = 0
    out = []
    for i in range(5000):
        t = (i & 255, (i * 7) & 127)
        counts[t] = counts.get(t, 0) + 1
        acc += (i * i) % 11
        out.append(t[::-1])
    out.sort()
    return acc + len(counts) + int(np.argsort(_REF_KEYS, kind="stable")[0])


def reference_sample() -> float:
    gc.disable()  # a collection would make the sample depend on the workload's heap
    c0 = time.process_time()
    reference_kernel()
    elapsed = time.process_time() - c0
    gc.enable()
    return elapsed


class OpFailed:
    def __init__(self, exc: BaseException):
        self.error = f"{type(exc).__name__}: {exc}"


def run_rounds(ops, seconds: float, tracer: tr.Tracer | None):
    """Whole rounds of every operation until their wall-clock time reaches
    `seconds`.  Returns the first round's outputs, per-round records (CPU
    time, slowest operation's CPU time, wall time, median reference-kernel
    CPU time), the traced phases, and counts of attempted and failed
    operations.  The reference kernel runs at the start of each round and
    between operations, outside their timing and the wall-clock budget.
    Later rounds keep only a fingerprint of each output, so memory holds the
    first round's outputs and one operation's."""
    first = None
    digests = None
    rounds = []
    phases = []
    attempted = failed = 0
    mismatches = []
    measured = 0.0
    while measured < seconds:
        gc.collect()
        times, walls, outs, round_digests = [], [], [], []
        refs = [reference_sample() for _ in range(REF_PER_ROUND)]
        since_ref = 0.0
        for op in ops:
            attempted += 1
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                out = op.run()
            except Exception as exc:  # one failing operation must not stop the run
                out = OpFailed(exc)
            times.append(time.process_time() - c0)
            walls.append(time.perf_counter() - w0)
            since_ref += times[-1]
            if since_ref >= REF_EVERY_S:
                refs.append(reference_sample())
                since_ref = 0.0
            if isinstance(out, OpFailed):
                failed += 1
                round_digests.append(None)
            else:
                round_digests.append(op.digest(out))
            if first is None:
                outs.append(out)
            del out
        if tracer is not None:
            phases.append(tracer.take())
        if first is None:
            first, digests = outs, round_digests
        elif round_digests != digests:
            bad = [op.label for op, a, b in zip(ops, round_digests, digests) if a != b]
            mismatches.append(f"round {len(rounds) + 1} differs from round 1 at {bad[:3]}")
        rounds.append((sum(times), max(times), sum(walls), statistics.median(refs)))
        measured += sum(walls)
    return first, rounds, phases, attempted, failed, mismatches


def check_outputs(ops, outputs) -> list[str]:
    problems = []
    for op, out in zip(ops, outputs):
        if isinstance(out, OpFailed):
            print(f"operation failed: {op.label}: {out.error}", file=sys.stderr)
            continue
        try:
            op.check(out)
        except CheckFailed as exc:
            problems.append(f"{op.label}: {exc}")
        except Exception as exc:  # a checker that cannot read an output counts against it
            problems.append(f"{op.label}: check raised {type(exc).__name__}: {exc}")
    return problems


def run_one(args) -> dict:
    build = BUILDERS[args.workload]
    tracer = undo = None
    t0 = time.process_time()
    rl = load_package()
    if args.trace:
        tracer = tr.Tracer()
        undo = tr.install(tracer)
    ops = build(rl, args.seed)
    setup_times = [time.process_time() - t0]
    if args.setup_only:
        print(repr(setup_times[0]))
        return {}
    setup_phase = tracer.take() if tracer is not None else None
    if not args.trace:
        setup_times += [setup_in_helper(args) for _ in range(SETUP_REPEATS - 1)]

    first, rounds, phases, attempted, failed, mismatches = run_rounds(ops, args.seconds, tracer)
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if undo is not None:
        tr.uninstall(undo)
    work = sum(op.work(out) for op, out in zip(ops, first) if not isinstance(out, OpFailed))
    problems = mismatches + check_outputs(ops, first)
    for p in problems:
        print(f"CHECK FAILED {p}", file=sys.stderr)

    round_s = [r[0] for r in rounds]
    ref_s = statistics.median(r[3] for r in rounds)
    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} rounds={len(rounds)} "
        f"ops_per_round={len(ops)} attempted={attempted} failed={failed} "
        f"work_per_round={work} checks={'ok' if not problems else 'FAILED'}"
    )
    print(
        f"unscaled: round wall-clock median {statistics.median(r[2] for r in rounds):.4f} s, "
        f"CPU median {statistics.median(round_s):.4f} s, set-up CPU median "
        f"{statistics.median(setup_times):.4f} s; reference kernel {ref_s * 1e3:.4f} ms "
        f"(scale {REF_NOMINAL_S / ref_s:.4f})"
    )
    if args.trace:
        raw_rounds = [tr.raw_figures(ph) for ph in phases]
        values = tr.per_layer(tr.raw_figures(setup_phase), raw_rounds)
        units = dict(tr.PER_LAYER)
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        with open(trace_path, "w") as fh:
            json.dump(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "span_fields": ["name", "start_ns", "end_ns", "parent"],
                    "setup": setup_phase,
                    "round_1": phases[0],
                    "round_counters": [ph["counters"] for ph in phases],
                    "per_layer": values,
                },
                fh,
            )
        print(f"traced round CPU median {statistics.median(round_s):.4f} s; spans in {trace_path.relative_to(ROOT)}")
    else:
        # CPU seconds scaled to the reference speed: each round by its own
        # reference samples, the set-ups (made just before) by the run's
        scaled = [(cpu * REF_NOMINAL_S / ref, op_max * REF_NOMINAL_S / ref) for cpu, op_max, _, ref in rounds]
        values = {
            "setup_s": statistics.median(setup_times) * REF_NOMINAL_S / ref_s,
            "round_s": statistics.median(r[0] for r in scaled),
            "work_per_s": statistics.median(work / r[0] for r in scaled),
            "op_max_s": statistics.median(r[1] for r in scaled),
            "peak_rss_mib": peak_mib,
        }
        units = dict(END_TO_END)
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def run_all(args) -> dict:
    """Every workload in its own process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {w} failed with status {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{w}.{name}"] = metric
    return total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if args.workload == "all":
        if args.setup_only:
            ap.error("--setup-only needs one workload")
        result = run_all(args)
    else:
        result = run_one(args)
        if args.setup_only:
            return 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
