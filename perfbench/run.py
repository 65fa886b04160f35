"""symmon benchmark: one workload, one seed, one closed-loop caller.

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

Imports symmon from `src/` of the checkout this file sits in, and repeats
passes over the workload's job list for `--seconds` (at least two).  Every
job's output goes through the gate in workloads.py.  Untraced runs time the
fixed kernels of reference.py around every SEGMENT_S of jobs and report
times in reference seconds (see `normalized`).  The last line of stdout is
one JSON object: `correct`, `attempted`, `failed` and `metrics`.  With
`--trace 0` the metrics are the `end_to_end` metrics of BENCHMARK.json, with
`--trace 1` its `per_layer` metrics, taken from passes run under the tracer,
whose spans are also written to `perfbench/out/`.

One process, one thread, no worker or child processes.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9
MIN_PASSES = 2
# the reference kernels' time on a shared 2-vCPU Intel Xeon VM, Python 3.11.7,
# while other tenants were quiet
REFERENCE_S = 0.03
# job seconds between two timings of the reference kernels
SEGMENT_S = 0.3
clock = time.perf_counter


def time_reference() -> float:
    """Wall seconds of one call of every kernel in reference.py."""
    t0 = clock()
    for kernel, args, want in reference.KERNELS:
        got = kernel(*args)
        if got != want:
            raise RuntimeError(f"reference kernel {kernel.__name__} returned {got}, not {want}")
    return clock() - t0


def normalized(seconds: float, reference_s: float) -> float:
    """`seconds` in reference seconds: what they would read on a machine on
    which the reference kernels take REFERENCE_S, going by `reference_s`,
    their time measured right around them.

    On a shared 2-vCPU Xeon VM, other tenants slowed every pass by 40-80%
    for stretches of seconds to most of an hour, so raw times of runs made
    minutes apart could not be compared; the reference kernels slow by
    about the same factor at the same moment, and the quotient stays.  A
    change to symmon does not touch the kernels, so it moves these figures
    as much as it moves raw times."""
    return seconds * REFERENCE_S / reference_s


def load_symmon():
    """Import symmon from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "symmon" / "__init__.py").is_file():
        sys.exit(f"error: no symmon package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import symmon

    if Path(symmon.__file__).resolve().parent != src / "symmon":
        sys.exit(f"error: symmon imported from {symmon.__file__}, not {src}")


def prepare(workload: str, seed: int):
    """Everything before the first pass: import symmon and build the inputs."""
    load_symmon()
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import workloads

    return workloads, workloads.build(workload, seed)


class SetupTimer:
    """(wall seconds, reference timing) of set-up from scratch in this process.

    A sample unloads every module the run's first prepare() loaded, symmon's
    and the standard library's alike, and times prepare() again: the import
    of symmon and everything it needs, and the building of the inputs.  The
    reference kernels are timed just before and after, as around a job.
    Only the interpreter's own start is left out; symmon cannot change it.
    Fresh interpreters measured it with the start included, but single
    start-ups did not slow together with the timings next to them, and the
    medians of sets of ten runs moved by up to 36%, with the machine's speed
    or against it.

    Samples are spread over the run, one at most every seconds/SETUP_REPEATS
    between passes, because a burst of them would all see the same moment's
    load from other processes on the machine."""

    def __init__(self, workload: str, seed: int, seconds: float, modules: set[str]):
        self.workload, self.seed, self.modules = workload, seed, modules
        self.every = seconds / SETUP_REPEATS
        self.samples: list[tuple[float, float]] = []
        self.last = -math.inf

    def sample(self):
        for name in self.modules:
            sys.modules.pop(name, None)
        gc.collect()
        before = time_reference()
        t0 = clock()
        prepare(self.workload, self.seed)
        seconds = clock() - t0
        self.samples.append((seconds, (before + time_reference()) / 2))
        self.last = clock()

    def between_passes(self):
        if clock() - self.last >= self.every:
            self.sample()

    def finish(self) -> list[tuple[float, float]]:
        while len(self.samples) < SETUP_REPEATS:
            self.sample()
        return self.samples


class Pass:
    def __init__(self):
        self.seconds = 0.0
        self.job_seconds: list[float] = []
        # per job, the reference timing of the segment it ran in
        self.job_reference: list[float] = []
        self.digests: list[str | None] = []
        self.failures: list[str] = []

    def job_normalized(self) -> list[float]:
        return [normalized(s, r) for s, r in zip(self.job_seconds, self.job_reference)]


def run_pass(wl, jobs, first_digests=None, tracer=None, previous=None) -> Pass:
    """One pass over the job list; a job's time covers its call into symmon only.

    A job fails when it raises, when the gate rejects its output, when its
    digest differs from the one pinned in golden.json, or when it differs
    from `first_digests`, the digests of the run's first pass.

    An untraced pass is cut into segments of about SEGMENT_S job seconds,
    and the reference kernels are timed before and after each; every job of
    a segment gets the mean of those two timings.  A job that took SEGMENT_S
    or more in the `previous` pass gets a segment of its own, so that the
    timings are taken right before and after it.
    """
    gc.collect()
    result = Pass()
    timed_reference = tracer is None
    if timed_reference:
        segment_start, segment_s, before = 0, 0.0, time_reference()

    def close_segment(end: int):
        nonlocal segment_start, segment_s, before
        after = time_reference()
        result.job_reference.extend([(before + after) / 2] * (end - segment_start))
        segment_start, segment_s, before = end, 0.0, after

    for index, job in enumerate(jobs):
        if timed_reference and segment_s and previous and previous.job_seconds[index] >= SEGMENT_S:
            close_segment(index)
        scope = tracer.job_span(index, job.name) if tracer else contextlib.nullcontext()
        t0 = clock()
        try:
            with scope:
                out = job.run()
            error = None
        except (Exception, SystemExit) as exc:  # a crash is a failed job, not a crashed run
            error = f"{type(exc).__name__}: {exc}"
        dt = clock() - t0
        result.seconds += dt
        result.job_seconds.append(dt)
        digest = None
        if error is None:
            try:
                digest = wl.sha256(job.check(out))
                if job.pinned not in (None, digest):
                    error = "output differs from the digest pinned in golden.json"
            except wl.JobFailure as exc:
                error = str(exc)
            except Exception as exc:
                error = f"{type(exc).__name__} in the output gate: {exc}"
        if first_digests is None:
            result.digests.append(digest)
        elif digest is not None and first_digests[index] not in (None, digest):
            error = "output differs from the first pass"
        if error is not None:
            result.failures.append(f"{job.name}: {error}")
        if timed_reference:
            segment_s += dt
            if segment_s >= SEGMENT_S or index == len(jobs) - 1:
                close_segment(index + 1)
    return result


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[k - 1]


def tail(sorted_values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest nearest-rank
    percentile with at least ten samples beyond it; with ten or fewer
    samples there is none, and the maximum is reported instead."""
    n = len(sorted_values)
    rank = n - 10 if n > 10 else n
    return sorted_values[rank - 1], 100 * rank / n, n - rank


def run_measured(wl, jobs, seconds: float, trace: bool, between_passes=lambda: None):
    """Passes for `seconds`: untraced passes stop before one that would end
    past it, once there are MIN_PASSES.  With trace, untraced and traced
    passes alternate, starting untraced, so every traced pass follows the
    same warm-up and its counts repeat exactly; they stop once `seconds`
    have elapsed and one traced pass is done."""
    import tracer as tracing

    plain: list[Pass] = []
    traced: list[tuple[Pass, object]] = []
    start = time.perf_counter()
    while True:
        # only the first pass keeps its digests; later ones are compared to them
        first_digests = plain[0].digests if plain else None
        if trace and len(plain) > len(traced):
            t = tracing.Tracer()
            with t.installed():
                traced.append((run_pass(wl, jobs, first_digests, t), t))
        else:
            previous = plain[-1] if plain else None
            plain.append(run_pass(wl, jobs, first_digests, previous=previous))
            between_passes()
        elapsed = time.perf_counter() - start
        if trace:
            if elapsed >= seconds and traced:
                return plain, traced
        elif len(plain) >= MIN_PASSES and elapsed + statistics.median(p.seconds for p in plain) > seconds:
            return plain, traced


def end_to_end(plain: list[Pass], setup: list[tuple[float, float]], failed: int, attempted: int):
    """(gated metrics, reported-only metrics, notes) of the untraced passes.

    Every gated time is in reference seconds (see `normalized`); raw
    medians are reported beside them, ungated.
    """
    walls = sorted(sum(p.job_normalized()) for p in plain)
    job_medians = sorted(1000 * statistics.median(times)
                         for times in zip(*(p.job_normalized() for p in plain)))
    tail_s, tail_pct, beyond = tail(walls)
    references = [r for p in plain for r in p.job_reference]
    gated = {
        "wall_s": statistics.median(walls),
        "job_ms.p50": percentile(job_medians, 50),
        "job_ms.p99": percentile(job_medians, 99),
        "setup_s": statistics.median(normalized(s, r) for s, r in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    reported = {
        "wall_s.tail": (tail_s, "s"),
        "wall_s.raw": (statistics.median(p.seconds for p in plain), "s"),
        "setup_s.raw": (statistics.median(s for s, _ in setup), "s"),
        "reference_s": (statistics.median(references), "s"),
        "failed_frac": (failed / attempted, "ratio"),
    }
    notes = [
        f"times in reference seconds: wall seconds x {REFERENCE_S} s / the reference kernels' time"
        " around them",
        f"wall_s: median of {len(walls)} passes",
        f"job_ms.p50, job_ms.p99: nearest-rank percentiles over the {len(job_medians)} jobs"
        f" of each job's median over the passes",
        f"setup_s: median of {len(setup)} set-ups from scratch, unloading the modules the first one loaded",
        f"wall_s.tail: p{tail_pct:.1f} of {len(walls)} passes, {beyond} beyond"
        + ("" if beyond >= 10 else " (ten or fewer passes: the maximum)"),
        "wall_s.raw, setup_s.raw: medians in wall seconds (reported, not gated)",
        "reference_s: median timing of the reference kernels (reported, not gated)",
        f"failed_frac: {failed} of {attempted} jobs",
    ]
    return gated, reported, notes


def per_layer(plain: list[Pass], traced: list[tuple[Pass, object]]) -> dict:
    import tracer as tracing

    per_pass = [tracing.layer_metrics(t.spans) for _, t in traced]
    # median_low keeps each count a count: it picks one pass's value
    metrics = {k: statistics.median_low(m[k] for m in per_pass) for k in per_pass[0]}
    metrics["trace.overhead"] = statistics.median(p.seconds for p, _ in traced) / statistics.median(
        p.seconds for p in plain
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    loaded = set(sys.modules)
    wl, jobs = prepare(args.workload, args.seed)
    setup_modules = set(sys.modules) - loaded

    if args.trace:
        plain, traced = run_measured(wl, jobs, args.seconds, True)
    else:
        setup_timer = SetupTimer(args.workload, args.seed, args.seconds, setup_modules)
        setup_timer.sample()
        plain, traced = run_measured(wl, jobs, args.seconds, False, setup_timer.between_passes)
        setup = setup_timer.finish()
    passes = plain + [p for p, _ in traced]
    attempted = sum(len(p.job_seconds) for p in passes)
    failures = [f for p in passes for f in p.failures]

    if args.trace:
        values = per_layer(plain, traced)
        listed = spec["per_layer"]
        out = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
        out.parent.mkdir(exist_ok=True)
        with open(out, "w") as fh:
            for i, (_, t) in enumerate(traced):
                t.write(fh, traced_pass=i)
        notes = [f"{len(traced)} traced and {len(plain)} untraced passes; spans in {out.relative_to(ROOT)}"]
    else:
        values, reported, notes = end_to_end(plain, setup, len(failures), attempted)
        listed = spec["end_to_end"]
        notes += [f"{name}: {v} {unit}" for name, (v, unit) in reported.items()]

    print(f"workload {args.workload}, seed {args.seed}"
          + ("" if args.workload == "pointwise" else " (unused: the input is fixed)"))
    for line in notes:
        print("  " + line)
    groups: dict[str, list[int]] = {}
    for i, job in enumerate(jobs):
        groups.setdefault(job.group or job.name, []).append(i)
    for name, members in groups.items():
        per_pass = [sum(p.job_seconds[i] for i in members) for p in plain]
        print(f"  jobs {name!r}: {len(members)} per pass, median {statistics.median(per_pass):.4f} s,"
              f" best {min(per_pass):.4f} s (wall seconds)")
    digest = wl.sha256("\n".join(str(d) for d in passes[0].digests))
    print(f"  outputs: sha256 {digest}")
    for f in failures[:10]:
        print(f"  FAILED {f}", file=sys.stderr)
    for m in listed:
        print(f"  {m['name']}: {values[m['name']]} {m['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
