"""Stage benchmark for the designmine mining loop.

Run from the repository root:

    python3 perfbench/run.py --workload demo --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one table

One process per workload.  It generates the inputs from the seed (set-up,
repeated; the median counts), runs a warm-up pass, then times passes for
about ``--seconds``.  Every pass goes through the correctness gate.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``).  The full record, with the machine, versions and
source digest, goes to ``.bench_out/`` at the repository root.

``wall_s`` and ``cpu_s`` are the median seconds of one pass after two
scalings that leave the ratio between two builds of the program unchanged.
Each pass is divided by the speed of the host, from a fixed pure-Python probe
timed before and after it, and expressed in seconds of the machine the
benchmark was defined on; ``setup_s`` gets the run's median probe.  Then the
time is scaled by W(reference) / W(seed), where W is the benchmark's count of
the pass's dominant operation (``partition_tuple`` calls for split scoring or
routing), worked out from the pass's inputs and outputs through the public
API, with the reference at seed 7.  The first scaling keeps the host's drift
out of the numbers, the second the tree size a seed happens to produce.  The
raw times are in the record.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS to one thread before numpy loads, so runs do not depend on the
# core count and `cpu_s` > `wall_s` would expose any threading in the library.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import array
import hashlib
import gc
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
import traceback

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
EXPECTED = os.path.join(HERE, "expected")

WORKLOAD_NAMES = ("demo", "train-certain", "screen", "morph")
SETUP_REPEATS = 3
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2

#: Speed probe: iterations, its 1 MiB table of doubles, and its time, rounded,
#: on the machine the benchmark was defined on (2-vCPU Intel Xeon VM, Python
#: 3.11.7).  Calibrated times are in seconds of that machine.
PROBE_ITERATIONS = 500_000
_PROBE_MASK = (1 << 17) - 1
_PROBE_TABLE = array.array("d", (((i * 2654435761) % 1000) / 1000.0 for i in range(_PROBE_MASK + 1)))
PROBE_REFERENCE_S = 0.18

#: Per-layer metrics: (name, unit, source).  Sources: ("pass", span) is the
#: median self time per traced pass; ("replay", span) the self time in the
#: outside-in replay after the passes; ("count", key) and ("replay_count",
#: key) a counter of the last traced pass or of the replay.
DEPTHS = range(9)
LAYER_METRICS = (
    [
        ("tree.build_tree_s", "s", ("pass", "tree.build_tree")),
        ("tree.nodes", "count", ("count", "tree.nodes")),
        ("tree.leaves", "count", ("count", "tree.leaves")),
        ("tree.depth", "count", ("count", "tree.depth")),
    ]
    + [(f"tree.best_split_s.d{k}", "s", ("replay", f"tree.best_split.d{k}")) for k in DEPTHS]
    + [(f"tree.candidates.d{k}", "count", ("replay_count", f"tree.candidates.d{k}")) for k in DEPTHS]
    + [(f"tree.fragments.d{k}", "count", ("replay_count", f"tree.fragments.d{k}")) for k in DEPTHS]
    + [
        ("tree.partition_s", "s", ("replay", "tree.partition")),
        ("tree.fragment_keep_ratio", "ratio", None),
        ("tree.classify_s", "s", ("replay", "tree.classify")),
        ("tree.classified", "count", ("replay_count", "tree.classified")),
        ("tree.test_accuracy_s", "s", ("pass", "tree.test_accuracy")),
        ("tree.training_accuracy_s", "s", ("pass", "tree.training_accuracy")),
        ("tree.load_tree_s", "s", ("pass", "tree.load_tree")),
        ("rules.screen_designs_s", "s", ("pass", "rules.screen_designs")),
        ("rules.screened", "count", ("count", "rules.screened")),
        ("rules.rules_payload_s", "s", ("pass", "rules.rules_payload")),
        ("rules.branches", "count", ("count", "rules.branches")),
        ("rules.kept_ratio", "ratio", None),
        ("uncertain.load_dataset_s", "s", ("pass", "uncertain.load_dataset")),
        ("uncertain.load_design_points_s", "s", ("pass", "uncertain.load_design_points")),
        ("uncertain.dataset_from_design_s", "s", ("pass", "uncertain.dataset_from_design")),
        ("uncertain.apply_labels_s", "s", ("pass", "uncertain.apply_labels")),
        ("uncertain.fresh_tuples_s", "s", ("pass", "uncertain.fresh_tuples")),
        ("uncertain.rows", "count", ("count", "uncertain.rows")),
        ("pipeline.run_component_s", "s", ("pass", "pipeline.run_component")),
        ("pipeline.recombine_s", "s", ("pass", "pipeline.recombine")),
        ("doe.lhs_s", "s", ("pass", "doe.lhs")),
        ("doe.samples", "count", ("count", "doe.samples")),
        ("surrogate.respond_s", "s", ("pass", "surrogate.respond")),
        ("surrogate.responses", "count", ("count", "surrogate.responses")),
        ("morph.load_points_s", "s", ("pass", "morph.load_points")),
        ("morph.fit_morph_s", "s", ("pass", "morph.fit_morph")),
        ("morph.apply_morph_s", "s", ("pass", "morph.apply_morph")),
        ("morph.save_points_s", "s", ("pass", "morph.save_points")),
        ("morph.nodes", "count", ("count", "morph.nodes")),
        ("morph.bytes_read", "B", ("count", "morph.bytes_read")),
        ("morph.bytes_written", "B", ("count", "morph.bytes_written")),
        ("morph.apply_bytes_computed", "B", ("count", "morph.apply_bytes_computed")),
        ("morph.apply_flops_computed", "flop", ("count", "morph.apply_flops_computed")),
        ("trace.overhead_s", "s", None),
        ("trace.spans", "count", None),
    ]
)


def import_library():
    """Import designmine from this checkout's ``src`` and time it."""
    if not os.path.isfile(os.path.join(SRC, "designmine", "__init__.py")):
        sys.exit(f"error: {SRC}/designmine not found; run from a full checkout")
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import designmine

    import_s = time.perf_counter() - start
    if os.path.dirname(os.path.dirname(os.path.abspath(designmine.__file__))) != SRC:
        sys.exit(f"error: imported designmine from {designmine.__file__}, not {SRC}")
    return import_s


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _source_digest() -> str:
    paths = []
    for folder, dirs, files in os.walk(os.path.join(SRC, "designmine")):
        dirs[:] = [d for d in dirs if d != "__pycache__"]
        paths += [os.path.join(folder, name) for name in files]
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return "sha256:" + digest.hexdigest()


def environment(workload, seed, trace):
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "machine": platform.node(),
        "platform": platform.platform(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "source_digest": _source_digest(),
    }


class Gate:
    """Runs passes, checks every one, and counts attempts and failures.

    A pass fails when the library raises, when an invariant does not hold,
    or when its summary differs from the reference: the stored summary at the
    default seed, otherwise the first pass's summary."""

    def __init__(self, workload, inputs, reference, compare):
        self.workload = workload
        self.inputs = inputs
        self.reference = reference
        self.compare = compare
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.first_summary = None

    def fail(self, messages) -> None:
        self.failed += 1
        for message in messages:
            print(f"FAIL {message}", file=sys.stderr)
        self.errors += messages

    def run(self, tr):
        """(wall s, cpu s, outputs or None) of one checked pass.

        Every pass starts from a collected heap, as a fresh process would;
        callers drop the previous pass's outputs first, since collections
        that walk them made passes slower and less steady."""
        self.attempted += 1
        gc.collect()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            out = self.workload.run(self.inputs, tr)
        except Exception:  # noqa: BLE001 - a raised library error is a failed pass
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            self.fail([f"{self.workload.name}: pass raised\n{traceback.format_exc()}"])
            return wall, cpu, None
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        errors = self.workload.check(self.inputs, out)
        summary = self.workload.summary(self.inputs, out)
        if self.first_summary is None:
            self.first_summary = summary
        reference = self.first_summary if self.reference is None else self.reference
        errors += self.compare(summary, reference, self.workload.name)
        if errors:
            self.fail(errors)
        return wall, cpu, out


def speed_probe() -> float:
    """Seconds for a fixed piece of pure-Python work that never calls
    designmine: float math over a 1 MiB table of doubles.

    The host's speed drifts by tens of percent within minutes.  Timing this
    probe around every pass tracks that drift so it can be divided out.  The
    probe allocates no containers and runs with the cyclic collector off, so
    what the library leaves on the heap cannot change its cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = 0.0
        for i in range(PROBE_ITERATIONS):
            x = _PROBE_TABLE[(i * 7919) & _PROBE_MASK]
            acc += math.erf(x) * math.exp(-x)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def measure(workload, inputs, gate, seconds):
    """Untraced passes for about ``seconds``, each between two speed probes.

    Returns (walls, cpus, probes, last outputs); probe i runs just before
    pass i and probe i + 1 just after it."""
    walls, cpus, probes, out = [], [], [speed_probe()], None
    while len(walls) < MIN_PASSES or sum(walls) + statistics.median(walls) <= seconds:
        out = None
        wall, cpu, out = gate.run(tracing.NULL)
        walls.append(wall)
        cpus.append(cpu)
        probes.append(speed_probe())
    return walls, cpus, probes, out


def calibrated(times, probes):
    """Pass times in seconds of the reference machine: each pass is scaled by
    the reference probe time over the mean of the probes either side of it."""
    return [
        t * PROBE_REFERENCE_S * 2 / (before + after)
        for t, before, after in zip(times, probes, probes[1:])
    ]


def measure_traced(workload, inputs, gate, seconds, tracer):
    """Alternate untraced and traced passes, then replay outside the passes.

    Returns (untraced walls, traced walls, traced pass ids)."""
    untraced, traced, pass_ids = [], [], []
    while len(traced) < MIN_TRACED_PAIRS or sum(untraced + traced) + 2 * statistics.median(
        traced
    ) <= seconds:
        plain = out = None
        wall, _, plain = gate.run(tracing.NULL)
        untraced.append(wall)
        tracer.pass_id = len(traced)
        wall, _, out = gate.run(tracer)
        traced.append(wall)
        pass_ids.append(tracer.pass_id)
        same = getattr(workload, "same_outputs", None)
        if same is not None and out is not None and plain is not None and not same(plain, out):
            gate.fail([f"{workload.name}: traced stage replay differs from the untraced pass"])
    tracer.pass_id = "replay"
    gate.attempted += 1
    if out is None:
        gate.fail([f"{workload.name}: no outputs to replay"])
    else:
        mismatches = workload.replay(inputs, out, tracer)
        if mismatches:
            gate.fail([f"{workload.name}: replay disagrees with the pass at {mismatches} nodes"])
    return untraced, traced, pass_ids


def layer_metrics(tracer, pass_ids, untraced, traced):
    per_pass = [tracer.self_times(pid) for pid in pass_ids]
    replay = tracer.self_times("replay")
    counts = tracer.counts.get(pass_ids[-1], {})
    replay_counts = tracer.counts.get("replay", {})
    values = {}
    for name, unit, source in LAYER_METRICS:
        if source is None:
            continue
        kind, key = source
        if kind == "pass":
            values[name] = statistics.median(t.get(key, 0.0) for t in per_pass)
        elif kind == "replay":
            values[name] = replay.get(key, 0.0)
        elif kind == "count":
            values[name] = counts.get(key, 0)
        else:
            values[name] = replay_counts.get(key, 0)
    partitioned = replay_counts.get("tree.partitioned", 0)
    values["tree.fragment_keep_ratio"] = (
        replay_counts.get("tree.kept", 0) / (2 * partitioned) if partitioned else 0.0
    )
    targets = counts.get("rules.target_branches", 0)
    values["rules.kept_ratio"] = counts.get("rules.branches", 0) / targets if targets else 0.0
    # Each traced pass runs right after its untraced twin, so the paired
    # difference cancels most of the machine's drift.
    values["trace.overhead_s"] = statistics.median(t - u for t, u in zip(traced, untraced))
    values["trace.spans"] = sum(1 for s in tracer.spans if s[4] == pass_ids[-1])
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in LAYER_METRICS}


def _expected_path(name):
    return os.path.join(EXPECTED, f"{name}.json")


def run_workload(name, seed, seconds, trace, write_expected):
    import_s = import_library()
    import workloads

    workload = workloads.WORKLOADS[name]
    expected = None
    if write_expected:
        if seed != workloads.DEFAULT_SEED:
            sys.exit(f"error: stored summaries are for seed {workloads.DEFAULT_SEED}")
    else:
        try:
            with open(_expected_path(name), encoding="utf-8") as fh:
                expected = json.load(fh)
        except OSError as exc:
            sys.exit(f"error: no stored summary for {name}: {exc}")
    reference = expected["summary"] if expected and seed == workloads.DEFAULT_SEED else None

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            inputs = workload.setup(seed, workdir)
            setup_times.append(time.perf_counter() - start)
        gate = Gate(workload, inputs, reference, workloads.summary_errors)
        warmup = gate.run(tracing.NULL)[0]
        record = {
            "environment": environment(name, seed, trace),
            "import_s": import_s,
            "setup_runs_s": setup_times,
            "warmup_s": warmup,
        }
        if trace:
            tracer = tracing.Tracer()
            untraced, traced, pass_ids = measure_traced(workload, inputs, gate, seconds, tracer)
            metrics = layer_metrics(tracer, pass_ids, untraced, traced)
            record.update(untraced_walls_s=untraced, traced_walls_s=traced)
            spans_path = os.path.join(OUT, f"{name}-seed{seed}-spans.json")
            tracer.write(spans_path)
            record["spans_file"] = os.path.relpath(spans_path, ROOT)
        else:
            walls, cpus, probes, out = measure(workload, inputs, gate, seconds)
            work = workload.work(inputs, out) if out is not None else 0
            if write_expected and gate.failed == 0:
                os.makedirs(EXPECTED, exist_ok=True)
                with open(_expected_path(name), "w", encoding="utf-8") as fh:
                    json.dump({"seed": seed, "work": work, "summary": gate.first_summary}, fh, indent=1)
                    fh.write("\n")
                expected = {"work": work}
            scale = expected["work"] / work if work else 1.0
            pass_walls = [t * scale for t in calibrated(walls, probes)]
            pass_cpus = [t * scale for t in calibrated(cpus, probes)]
            setup_s = (import_s + statistics.median(setup_times)) * PROBE_REFERENCE_S / statistics.median(probes)
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "wall_s": {"value": statistics.median(pass_walls), "unit": "s"},
                "cpu_s": {"value": statistics.median(pass_cpus), "unit": "s"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "unit": "MB",
                },
            }
            q1, _, q3 = statistics.quantiles(pass_walls, n=4)
            record.update(
                raw_walls_s=walls,
                raw_cpus_s=cpus,
                probes_s=probes,
                work=work,
                work_reference=expected["work"],
                scale=scale,
                walls_s=pass_walls,
                wall_quartiles_s=[q1, q3],
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    fail_frac = gate.failed / gate.attempted
    record.update(
        metrics=metrics,
        attempted=gate.attempted,
        failed=gate.failed,
        fail_frac=fail_frac,
        errors=gate.errors,
    )
    with open(os.path.join(OUT, f"{name}-seed{seed}-trace{trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for metric, entry in metrics.items():
        line = f"{name:<14} {metric:<32} {entry['value']:>14.6g} {entry['unit']}"
        if metric == "wall_s":
            q1, q3 = record["wall_quartiles_s"]
            line += f"  (median of {len(record['walls_s'])} passes, q1 {q1:.6g}, q3 {q3:.6g})"
        print(line)
    print(f"{name:<14} {'fail_frac':<32} {fail_frac:>14.6g} ratio  ({gate.failed} of {gate.attempted} passes)")
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    status = 0
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-expected",
        action="store_true",
        help="store the summary and work count at seed 7 as the reference",
    )
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, args.trace, args.write_expected)


if __name__ == "__main__":
    sys.exit(main())
