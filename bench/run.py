"""Seeded benchmark of treepack's packing pipelines.

    python3 bench/run.py --workload spanning-nwt --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload refute-nwt --seed 1 --seconds 25 --trace 1
    python3 bench/run.py --selfcheck --workload steiner-fkk --seed 1
    python3 bench/run.py --baseline

One process, one thread, a closed loop: one instance is solved at a time and
the next starts when the last returns.  A run generates the workload's pool
from the seed (set-up), then solves the pool round-robin for --seconds, at
least one whole pass.  An instance's time is the mean of its solves.
Every solve is preceded by a timed `reference_loop`, and the reported timings
are scaled by its mean to a fixed host speed; the unscaled ones are printed
on a line of their own.  Every answer is re-checked by gate.py.  The last
line of standard output is one JSON object {"correct", "attempted",
"failed", "metrics"}.  With --trace 0 the metrics are the end-to-end ones,
measured with no tracing installed.  With --trace 1 they are the per-layer ones from tracing.py, from
one untraced and two traced passes; the two traced passes must agree on
every counter and every answer.

--baseline regenerates the ROADMAP baseline table (one instance per row, at
the seeds the ROADMAP used, brute_fallback=False) and --selfcheck runs two
traced processes of one seed and compares their counters and answer
digests; neither is a workload.  bench/DESIGN.md records the design.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import gate
import tracing

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "treepack" / "__init__.py"
OUT = Path(__file__).resolve().parent / "out"

# setup_s is the median import time of SETUP_REPEATS fresh interpreters plus
# the median of at least SETUP_REPEATS pool generations that take together at
# least SETUP_SECONDS; one short generation reads too noisily alone.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
SETUP_LOOPS = 5         # reference loops before each import and generation
TAIL_BEYOND = 10        # solve_ms_tail leaves this many instances beyond it
DEFAULT_SEED = 1
HELD_OUT_SEED = 424242  # not used while tuning; later claims must also hold on it
# `reference_loop` runs before every solve; its steps make it a few percent of
# a solve.  REFERENCE_LOOP_MS is about its mean time on the 2-vCPU host the
# benchmark was defined on and only sets the scale of the reported timings.
REFERENCE_LOOP_STEPS = 10_000
REFERENCE_LOOP_MS = 3.0


def refuse(reason: str) -> None:
    print(f"bench: refusing to run: {reason}", file=sys.stderr)
    sys.exit(2)


def import_treepack() -> None:
    """Import treepack from this checkout's src/."""
    if "TREEPACK_CAPACITY" in os.environ:
        refuse("TREEPACK_CAPACITY is set; it lowers the enumeration caps and "
               "would turn refute-nwt into CapacityError")
    if not SOURCE.is_file():
        refuse(f"no treepack sources at {SOURCE.relative_to(ROOT)}")
    sys.path.insert(0, str(SOURCE.parent.parent))
    import treepack
    if Path(treepack.__file__).resolve() != SOURCE:
        refuse(f"treepack was imported from {treepack.__file__}, not this checkout")


IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "start = time.perf_counter(); import treepack; "
                "print(time.perf_counter() - start)")


def import_seconds(loop_times: list[float]) -> float:
    """Median time of `import treepack` in SETUP_REPEATS fresh interpreters,
    each preceded by SETUP_LOOPS timed `reference_loop`s."""
    times = []
    for _ in range(SETUP_REPEATS):
        time_loops(loop_times, SETUP_LOOPS)
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SOURCE.parent.parent)],
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


def environment() -> str:
    load = ",".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"env python {platform.python_version()} nproc {os.cpu_count()} "
            f"loadavg {load} treepack {SOURCE.parent.relative_to(ROOT)}")


@dataclass
class Pass:
    """Times, answers and failures of one solve of every pool instance."""

    times: list[float] = field(default_factory=list)
    answers: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    loop_times: list[float] = field(default_factory=list)


def reference_loop() -> int:
    """Fixed pure-Python work of the kind the library does (dict, set and int
    operations).  It calls nothing in treepack, so its time follows the host's
    speed and not the code under test.  It allocates only two containers, so
    the cyclic garbage collector, which runs on allocation, almost never lands
    in it."""
    counts: dict[int, int] = {}
    odd: set[int] = set()
    for i in range(REFERENCE_LOOP_STEPS):
        key = (i * 7919) % 1009
        counts[key] = counts.get(key, 0) + i
        if key & 1:
            odd.add(key)
    return len(counts) + len(odd)


def time_loops(out: list[float], count: int) -> None:
    """Append the times of `count` runs of `reference_loop` to `out`."""
    for _ in range(count):
        start = perf_counter()
        reference_loop()
        out.append(perf_counter() - start)


def solve_pass(pool, tracer: tracing.Tracer | None = None,
               deadline: float | None = None) -> Pass:
    """Solve the pool in order; with `deadline`, start no solve after it.
    Each solve is preceded by one timed `reference_loop`."""
    import workloads

    solve = workloads.solve
    if tracer is not None:
        solve = tracer.span("packing.pipeline", solve)
    out = Pass()
    for i, inst in enumerate(pool):
        if tracer is not None:
            tracer.request = i
        if deadline is not None and perf_counter() >= deadline:
            break
        time_loops(out.loop_times, 1)
        start = perf_counter()
        try:
            result = solve(inst)
        except Exception as exc:  # a raise is a failed answer; measure the rest
            out.times.append(perf_counter() - start)
            out.answers.append(f"raised {type(exc).__name__}")
            out.failures.append(f"{inst.label}: raised {exc!r}")
            traceback.print_exc(file=sys.stderr)
            continue
        out.times.append(perf_counter() - start)
        out.answers.append(gate.canonical(result))
        reason = gate.check(inst, result)
        if reason:
            out.failures.append(f"{inst.label}: {reason}")
    return out


def run_passes(pool, seconds: float) -> list[Pass]:
    """Solve the pool round-robin for `seconds`, at least one whole pass;
    the last pass may stop part-way."""
    deadline = perf_counter() + seconds
    passes = [solve_pass(pool)]
    while perf_counter() < deadline:
        passes.append(solve_pass(pool, deadline=deadline))
    return passes


def traced_pass(pool) -> tuple[Pass, tracing.Tracer]:
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        return solve_pass(pool, tracer), tracer


def failures(passes: list[Pass]) -> list[str]:
    """Every failed solve: gate misses plus answers that differ from pass 1."""
    out = [f for p in passes for f in p.failures]
    first = passes[0].answers
    for n, p in enumerate(passes[1:], start=2):
        out += [f"instance {i}: pass {n} answered differently from pass 1"
                for i, (a, b) in enumerate(zip(first, p.answers)) if a != b]
    return out


def measure(workload: str, seed: int, seconds: float):
    import workloads

    generation, setup_loops = [], []
    import_s = import_seconds(setup_loops)
    while len(generation) < SETUP_REPEATS or sum(generation) < SETUP_SECONDS:
        time_loops(setup_loops, SETUP_LOOPS)
        start = perf_counter()
        pool = workloads.build_pool(workload, seed)
        generation.append(perf_counter() - start)
    passes = run_passes(pool, seconds)
    # An instance's time is the mean of its solves: every instance weighs the
    # same however many passes fit, the tail's percentile depends on the pool
    # alone, and each instance averages the host's speed over the whole run
    # (a median would jump between the host's fast and slow spells).
    per_instance = sorted(statistics.fmean(p.times[i] for p in passes if i < len(p.times))
                          for i in range(len(pool)))
    count = len(per_instance)
    solves = sum(len(p.times) for p in passes)
    # The host runs this code up to 1.7x slower for spells of seconds to
    # minutes, longer than a run.  Timings are therefore scaled to a host on
    # which `reference_loop` takes REFERENCE_LOOP_MS: solve times by the mean
    # time of the loops run before the solves, set-up by that of the loops run
    # during set-up.  A change to treepack moves them as it moves wall time;
    # the unscaled figures are printed as well.
    loop_ms = statistics.fmean(t for p in passes for t in p.loop_times) * 1000
    scale = REFERENCE_LOOP_MS / loop_ms
    setup_loop_ms = statistics.fmean(setup_loops) * 1000
    setup_scale = REFERENCE_LOOP_MS / setup_loop_ms
    wall = {
        "solve_ms_p50": statistics.median(per_instance) * 1000,
        "solve_ms_tail": per_instance[count - 1 - TAIL_BEYOND] * 1000,
        "instances_per_s": count / sum(per_instance),
        "setup_s": import_s + statistics.median(generation),
    }
    metrics = {
        "solve_ms_p50": (wall["solve_ms_p50"] * scale, "ms"),
        "solve_ms_tail": (wall["solve_ms_tail"] * scale, "ms"),
        "instances_per_s": (wall["instances_per_s"] / scale, "1/s"),
        "setup_s": (wall["setup_s"] * setup_scale, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [f"solve_ms_tail is p{100 * (count - TAIL_BEYOND) / count:.1f} of {count} instances "
             f"({TAIL_BEYOND} beyond), each the mean of its solves ({solves} in "
             f"{len(passes)} passes)",
             f"reference_loop {loop_ms:.4f} ms mean of {solves} in the solve phase, "
             f"{setup_loop_ms:.4f} ms mean of {len(setup_loops)} in set-up ({len(generation)} "
             f"generations); timings scaled by {scale:.4f} and {setup_scale:.4f} to a "
             f"{REFERENCE_LOOP_MS} ms loop",
             "unscaled " + " ".join(f"{name} {value}" for name, value in wall.items())]
    return passes, metrics, notes


def measure_traced(workload: str, seed: int):
    import workloads

    setup = tracing.Tracer()
    with tracing.installed(setup):
        pool = workloads.build_pool(workload, seed)
    # One untraced pass for the overhead ratio, then two traced passes that
    # must agree on every counter.
    untraced = solve_pass(pool)
    (first, tracer), (second, tracer2) = traced_pass(pool), traced_pass(pool)
    counters, timings = tracing.summarize(tracer)
    counters2, timings2 = tracing.summarize(tracer2)
    changed = sorted(k for k in counters if counters[k] != counters2[k])
    notes = []
    if changed:
        notes.append(f"nondeterministic: the second traced pass changed {', '.join(changed)}")
    setup_counters, setup_timings = tracing.summarize(setup)
    metrics = {**counters, "generate.attempts": setup_counters["generate.attempts"]}
    for name in tracing.TIMINGS:
        metrics[name] = (timings[name] + timings2[name]) / 2
    metrics["generate.generate.busy_ms"] = setup_timings["generate.generate.busy_ms"]
    metrics["trace.overhead_ratio"] = ((sum(first.times) + sum(second.times)) / 2
                                       / sum(untraced.times))
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload}.jsonl.gz")
    metrics = {k: (v, tracing.unit_of(k)) for k, v in metrics.items()}
    return [untraced, first, second], metrics, notes, not changed


def report(passes: list[Pass], metrics: dict, notes: list[str],
           deterministic: bool = True) -> int:
    failed = failures(passes)
    attempted = sum(len(p.times) for p in passes)
    for line in failed[:20]:
        print(f"failed {line}")
    for line in notes:
        print(line)
    print(f"failed_share {len(failed) / attempted} ({len(failed)} of {attempted})")
    print(f"digest {gate.digest(passes[0].answers)}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value} {unit}")
    print(json.dumps({
        "correct": deterministic and not failed, "attempted": attempted, "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def selfcheck(workload: str, seed: int) -> int:
    """Two traced processes of one seed must agree on counters and digest."""
    outputs = []
    for hash_seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", "1", "--trace", "1"],
            capture_output=True, text=True, timeout=900, check=True,
            env=dict(os.environ, PYTHONHASHSEED=hash_seed))
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        counters = {k: v["value"] for k, v in result["metrics"].items()
                    if v["unit"] != "ms" and k != "trace.overhead_ratio"}
        digest = next(x.split()[1] for x in lines if x.startswith("digest "))
        outputs.append((counters, digest, result["correct"]))
    (first, digest1, ok1), (second, digest2, ok2) = outputs
    changed = sorted(k for k in first if first[k] != second.get(k))
    print(f"selfcheck {workload} seed {seed}: {len(first)} counters, "
          f"digests {digest1} {digest2}, correct {ok1} {ok2}")
    if changed or digest1 != digest2 or not (ok1 and ok2):
        print(f"selfcheck FAILED; changed counters: {', '.join(changed) or 'none'}")
        return 1
    print("selfcheck ok")
    return 0


BASELINE_ROWS = (
    # model, n, generator k, generator seed, packing mode, packing k, threshold;
    # kriesell rows are generated to their packing threshold
    *(("nwt", n, 2, 0, "spanning", 2, None) for n in (16, 32, 48)),
    *(("fkk", n, 2, 1, "steiner", 2, 6) for n in (8, 16, 24)),
    ("fkk", 16, 3, 1, "steiner", 3, 9),
    ("kriesell", 14, 2, 0, "connector", 2, 12),
    ("kriesell", 18, 1, 0, "connector", 1, 8),
)


def baseline() -> int:
    """Regenerate the ROADMAP baseline table: one instance per row, its
    fastest of three untraced solves, and its traced work counters."""
    import workloads

    gen_module = sys.modules["treepack.generate"]
    print("| row | size | ms | min_cut | independent | witness | answer |")
    print("|---|---|---|---|---|---|---|")
    ok = True
    for model, n, gen_k, seed, mode, k, threshold in BASELINE_ROWS:
        if model == "kriesell":
            gi = gen_module.generate_kriesell(n, gen_k, seed, min_connectivity=threshold)
        else:
            gi = gen_module.generate(model, n, gen_k, seed)
        g = gi.graph
        inst = workloads.Instance(
            label=f"{model} n={n} k={gen_k} seed={seed}", graph=g, terminals=gi.terminals,
            k=k, mode=mode, expected="packed", threshold=threshold,
            ends=dict(g.edges), vertices=frozenset(g.vertices))
        times = []
        for _ in range(3):
            start = perf_counter()
            result = workloads.solve(inst)
            times.append(perf_counter() - start)
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            workloads.solve(inst)
        counts, _ = tracing.summarize(tracer)
        reason = gate.check(inst, result)
        ok = ok and reason is None
        request = f"{mode} k={k}" + (f" threshold {threshold}" if threshold else "")
        print(f"| {request} | {model} seed {seed} n={n} m={g.edge_count()} "
              f"T={len(gi.terminals)} | {min(times) * 1000:.0f} "
              f"| {counts['graphcore.min_cut.calls']} | {counts['matroid.independent.calls']} "
              f"| {counts['matroid.witness.calls']} | {reason or result.outcome} |")
    print(environment())
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int,
                        help=f"default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out for claims")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", action="store_true",
                        help="print the ROADMAP baseline table and exit")
    parser.add_argument("--selfcheck", action="store_true",
                        help="compare two traced processes of one seed")
    args = parser.parse_args(argv)
    import_treepack()
    if args.baseline:
        return baseline()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    seed = DEFAULT_SEED if args.seed is None else args.seed
    if args.selfcheck:
        return selfcheck(args.workload, seed)
    workload = args.workload
    print(environment())
    print(f"workload {workload} seed {seed}")
    if args.trace:
        return report(*measure_traced(workload, seed))
    return report(*measure(workload, seed, args.seconds))


if __name__ == "__main__":
    sys.exit(main())
