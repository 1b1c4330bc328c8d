"""desing benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload dense --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; desing is imported from its `src/`.  An op
is one in-process call of `desing.cli.main(argv)` that reads a generated
`.vf` file and writes its output with `-o`; the next op starts when the
previous one returns.  After the timed phase every distinct op's output is
checked by a sympy oracle (oracles.py), and the known-defect probes run once.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
(spans recorded from outside by tracing.py) plus the tracing overhead.  The
last stdout line is one JSON object: correct, attempted, failed, metrics.
Work files go to .bench_work/ in the checkout; a summary and the recorded
spans of each run are left there.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"  # one thread for numpy/BLAS, also in set-up probes

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PROBES = 7  # set-up runs per benchmark run; setup_s is their median
TAIL_BEYOND = 10  # op_ms_tail: highest percentile with this many samples beyond it
TRACE_UNTRACED_SHARE = 1 / 3  # share of --seconds run untraced in a --trace 1 run
# Op latencies and the timed phase use this process's CPU time.  The ops are
# single-threaded and CPU-bound, so CPU time is their wall time minus the
# time the process was preempted; on a shared 2-vCPU VM preemption by other
# tenants doubled single ops' wall time and swamped every tail bound.
CLOCK = time.process_time
# The same VM drifts in speed: over ten minutes the dense workload's raw
# ops_per_s fell from 1.8 to 1.4.  So the benchmark interleaves a fixed
# calibration kernel with the work and scales each op's time by the mean of
# the kernel calls around it, to a machine on which one kernel call takes
# REFERENCE_KERNEL_S.  Single kernel calls flip between about 1.4 and 2.2 ms
# from one second to the next while the ops' own times hold steady, so the
# window spans seconds of op time and takes the mean, which moves smoothly
# with the share of slow calls.  The kernel allocates nothing and runs with
# the garbage collector off, after an untimed warm-up call: a kernel that
# allocated, or a cold first call, ran up to 20% faster after some workloads'
# ops than after others, tying it to the workload instead of to the machine.
CALIBRATION_EVERY = 0.08  # seconds of op time per timed kernel call
CALIBRATION_WINDOW = 40  # kernel calls on each side of an op that scale it
SETUP_KERNEL_CALLS = 5  # kernel calls each set-up probe times right after set-up
REFERENCE_KERNEL_S = 0.002


def calibration_kernel():
    """Fixed interpreter dispatch on cached small ints; allocates nothing."""
    a = 0
    for _ in itertools.repeat(None, 20000):
        a = (a + 7) % 251
        a = (a * 3) % 241
    return a


def time_kernel(calls) -> "list[float]":
    """CPU seconds of `calls` kernel calls, after one untimed warm-up call."""
    out = []
    gc.disable()
    try:
        calibration_kernel()
        for _ in range(calls):
            t0 = CLOCK()
            calibration_kernel()
            out.append(CLOCK() - t0)
    finally:
        gc.enable()
    return out


class Calibration:
    """Kernel timings interleaved with the measured work."""

    def __init__(self):
        self.samples: "list[float]" = []
        self._owed = 0.0  # measured seconds not yet matched by kernel calls

    def after(self, seconds) -> int:
        """Account for `seconds` of measured work and run the kernel when due.
        Returns the work's mark: the number of kernel calls made before it."""
        mark = len(self.samples)
        self._owed += seconds
        calls = int(self._owed / CALIBRATION_EVERY)
        if calls:
            self._owed -= calls * CALIBRATION_EVERY
            self.samples += time_kernel(calls)
        return mark

    def slowdown(self, mark=None) -> float:
        """Mean kernel time over the reference kernel time: of the whole run,
        or of the CALIBRATION_WINDOW calls on each side of `mark`."""
        if not self.samples:
            raise RuntimeError("no calibration samples were taken")
        window = self.samples
        if mark is not None:
            lo = min(max(mark - CALIBRATION_WINDOW, 0), len(self.samples) - 1)
            window = self.samples[lo:mark + CALIBRATION_WINDOW]
        return statistics.fmean(window) / REFERENCE_KERNEL_S


def _import_desing():
    """Import desing.cli from this checkout's src/, never from elsewhere."""
    src = REPO / "src"
    sys.path.insert(0, str(src))
    import desing.cli

    where = Path(desing.cli.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"desing imported from {where}, not from {src}")
    return desing.cli


class Runner:
    """Executes ops against desing.cli.main and keeps per-op results."""

    def __init__(self, cli, ops, calibration=None):
        self.cli = cli
        self.ops = ops
        self.calibration = calibration
        self.first = {}  # op key -> (rc, stderr, exception, output digest)
        self.failures = {}  # op key -> reason (run-level: raise, exit code, bytes)
        self.done = []  # (op key, latency) per execution
        self.marks = []  # calibration mark per execution, when calibrated

    def execute(self, op, call=None):
        out_path = op.data.get("out") or op.argv[op.argv.index("-o") + 1]
        with contextlib.suppress(FileNotFoundError):
            os.unlink(out_path)
        err, sink = io.StringIO(), io.StringIO()
        exc = None
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
            t0 = CLOCK()
            try:
                rc = call(self.cli.main, op.argv) if call else self.cli.main(op.argv)
            except SystemExit as stop:
                rc = stop.code if isinstance(stop.code, int) else 2
            except Exception as raised:  # an op that raises is a failed op, not a crash of the benchmark
                rc, exc = None, f"{type(raised).__name__}: {raised}"
            latency = CLOCK() - t0
        try:
            digest = hashlib.blake2b(Path(out_path).read_bytes(), digest_size=16).hexdigest()
            size = Path(out_path).stat().st_size
        except FileNotFoundError:
            digest, size = None, 0
        self.done.append((op.key, latency))
        # Collect the op's garbage before the next op starts, as the end of a
        # CLI process would: otherwise an op pays for collections that earlier
        # ops' garbage triggered, which made the portrait tail swing by 30%.
        gc.collect()
        if op.key not in self.first:
            self.first[op.key] = (rc, err.getvalue(), exc, digest)
            reason = None
            if exc is not None:
                reason = f"raised {exc}"
            elif rc != op.expect_rc:
                reason = f"exit code {rc}, expected {op.expect_rc}: {err.getvalue().strip()[:200]}"
            elif sink.getvalue():
                reason = "wrote to stdout despite -o"
            if reason:
                self.failures[op.key] = reason
        elif digest != self.first[op.key][3] and op.key not in self.failures:
            self.failures[op.key] = "output bytes differ between repeats"
        return latency, size

    def loop(self, seconds, min_ops=1, call=None):
        """Closed loop over the op cycle until the ops took `seconds` and at
        least `min_ops` ops completed.
        Returns (ops completed, seconds of op time, output bytes)."""
        n = 0
        out_bytes = 0
        op_time = 0.0
        while True:
            latency, size = self.execute(self.ops[n % len(self.ops)], call)
            if self.calibration is not None:
                self.marks.append(self.calibration.after(latency))
            op_time += latency
            out_bytes += size
            n += 1
            if op_time >= seconds and n >= min_ops:
                return n, op_time, out_bytes


def measure_setup(workload, seed) -> "list[tuple[float, float]]":
    """Calibrated CPU seconds a fresh interpreter spends from its start until
    it has imported desing and generated the workload's inputs, i.e. is ready
    for the first op.  Each probe reports its own `process_time` and then
    times the kernel, so its set-up is scaled by the machine's speed of that
    moment, to the reference machine of the op latencies.
    Returns (raw, calibrated) CPU seconds per probe."""
    times = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", workload, "--seed", str(seed), "--seconds", "0"]
        with subprocess.Popen(cmd, cwd=REPO, stdout=subprocess.PIPE, text=True) as proc:
            out = proc.stdout.read().split()
            if proc.wait(timeout=60) != 0 or len(out) != 3 or out[0] != "ready":
                raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        cpu, kernel = float(out[1]), float(out[2])
        times.append((cpu, cpu / (kernel / REFERENCE_KERNEL_S)))
    return times


def tail(latencies):
    """(value, percentile, samples): the highest nearest-rank percentile with
    at least TAIL_BEYOND samples beyond it."""
    xs = sorted(latencies)
    idx = len(xs) - TAIL_BEYOND - 1
    if idx < 0:
        raise ValueError(f"{len(xs)} samples cannot give a tail with {TAIL_BEYOND} beyond it")
    return xs[idx], 100.0 * (idx + 1) / len(xs), len(xs)


def overhead(plain, traced) -> float:
    """Traced over untraced latency, per-op means summed over the ops that
    ran in both phases (the phases cover different shares of the op cycle)."""
    def means(done):
        acc = {}
        for key, lat in done:
            acc.setdefault(key, []).append(lat)
        return {k: statistics.fmean(v) for k, v in acc.items()}

    a, b = means(plain), means(traced)
    common = sorted(set(a) & set(b))
    return sum(b[k] for k in common) / sum(a[k] for k in common)


def run_oracles(runner, ops):
    """Oracle verdict for every distinct op that ran; returns summed stats."""
    import oracles

    stats = {"rational_members": 0, "exact_members": 0}
    for op in ops:
        if op.key not in runner.first or op.key in runner.failures:
            continue
        rc, err, _, _ = runner.first[op.key]
        reason, got = oracles.check(op, rc, err)
        for k in stats:
            stats[k] += got.get(k, 0)
        if reason:
            runner.failures[op.key] = reason
    return stats


def run_probes(cli, probes):
    """Run each known-defect probe once; returns [(op, reason or None)]."""
    import oracles

    out = []
    for op in probes:
        runner = Runner(cli, [op])
        runner.execute(op)
        reason = runner.failures.get(op.key)
        if reason is None:
            rc, err, _, _ = runner.first[op.key]
            reason, _ = oracles.check(op, rc, err)
        out.append((op, reason))
    return out


def _shown(argv) -> str:
    return " ".join(a.replace(f"{REPO}{os.sep}", "") for a in argv)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    cli = _import_desing()
    work_root = REPO / ".bench_work"
    work = work_root / f"run-{os.getpid()}"
    try:
        corpus = workloads.Corpus(work, REPO)
        ops = workloads.generate(args.workload, args.seed, corpus)
        if args.setup_probe:
            cpu = time.process_time()
            kernel = statistics.median(time_kernel(SETUP_KERNEL_CALLS))
            print(f"ready {cpu!r} {kernel!r}", flush=True)
            return 0
        return _bench(args, spec, cli, corpus, ops, work_root)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _bench(args, spec, cli, corpus, ops, work_root) -> int:
    runner = Runner(cli, ops)
    lines = [f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
             f"distinct_ops={len(ops)}"]
    tracer = None
    if args.trace:
        import tracing

        n_plain, t_plain, _ = runner.loop(args.seconds * TRACE_UNTRACED_SHARE)
        plain_done = list(runner.done)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            n_traced, t_traced, out_bytes = runner.loop(
                args.seconds * (1 - TRACE_UNTRACED_SHARE), call=tracer.run_op)
        finally:
            tracer.uninstall()
    else:
        calibration = runner.calibration = Calibration()
        setup = measure_setup(args.workload, args.seed)
        ranked = workloads.PERCENTILE_CYCLES[args.workload] * len(ops)
        n_ops, elapsed, _ = runner.loop(args.seconds, min_ops=ranked)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        raw_lat = [lat for _, lat in runner.done]
        slow = [calibration.slowdown(mark) for mark in runner.marks]
        latencies = [lat / sd for lat, sd in zip(raw_lat, slow)]

    oracle_stats = run_oracles(runner, ops)
    probe_results = run_probes(cli, workloads.probes(args.workload, corpus))
    failed = sum(1 for key, _ in runner.done if key in runner.failures)
    attempted = len(runner.done)

    if args.trace:
        layer = tracer.metrics(n_traced)
        layer["cli.output_bytes"] = out_bytes / n_traced
        rational = oracle_stats["rational_members"]
        layer["realroots.exact_ratio"] = oracle_stats["exact_members"] / rational if rational else 1.0
        layer["trace.ops_per_s_untraced"] = n_plain / t_plain
        layer["trace.ops_per_s_traced"] = n_traced / t_traced
        layer["trace.overhead"] = overhead(plain_done, runner.done[len(plain_done):])
        layer["trace.self_sum_error"], layer["trace.nesting_errors"] = tracer.span_check()
        lines.append(f"traced ops={n_traced} untraced ops={n_plain} "
                     f"overhead={layer['trace.overhead']:.3f}x (traced/untraced latency of the same ops)")
        lines += [f"layer {k} {v:.6g}" for k, v in sorted(layer.items())]
        wanted = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {name: _metric(layer[name], unit) for name, unit in wanted.items()}
        trace_file = work_root / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "traced_ops": n_traced,
            "layer": layer,
            "spans": [dict(zip(("op", "id", "parent", "name", "start", "end"), s)) for s in tracer.spans],
        }), encoding="utf-8")
    else:
        raw = {
            "ops_per_s": n_ops / elapsed,
            "op_ms_p50": statistics.median(raw_lat[:ranked]) * 1e3,
            "op_ms_tail": tail(raw_lat[:ranked])[0] * 1e3,
            "setup_s": statistics.median(r for r, _ in setup),
        }
        tail_s, tail_pct, samples = tail(latencies[:ranked])
        values = {
            "ops_per_s": n_ops / sum(latencies),
            "op_ms_p50": statistics.median(latencies[:ranked]) * 1e3,
            "op_ms_tail": tail_s * 1e3,
            "setup_s": statistics.median(c for _, c in setup),
            "peak_rss_mb": rss_mb,
        }
        metrics = {m["name"]: _metric(values[m["name"]], m["unit"]) for m in spec["end_to_end"]}
        for name, m in metrics.items():
            note = f" (p{tail_pct:.1f} of {samples} samples)" if name == "op_ms_tail" else ""
            lines.append(f"metric {name} {m['value']:.6g} {m['unit']}{note}")
        lines.append(f"setup runs (raw cpu s): {' '.join(f'{r:.4f}' for r, _ in setup)}")
        lines.append(f"calibration: {len(calibration.samples)} kernel calls, run slowdown "
                     f"{calibration.slowdown():.4f}, per-op slowdown {min(slow):.4f}-{max(slow):.4f} "
                     f"(each op time above is divided by the slowdown of the kernel calls next to it)")
        lines += [f"raw {k} {v:.6g}" for k, v in raw.items()]

    by_key = {}
    for key, lat in runner.done:
        by_key.setdefault(key, []).append(lat * 1e3)
    for op in ops:
        if op.key in by_key:
            lats = by_key[op.key]
            lines.append(f"op {op.key} runs={len(lats)} median_ms={statistics.median(lats):.3f}")
    for op in ops:
        if op.key in runner.failures:
            lines.append(f"FAIL {op.key}: {runner.failures[op.key]} | desing {_shown(op.argv)}")
    for op, reason in probe_results:
        state = f"OPEN {reason}" if reason else "FIXED"
        lines.append(f"defect probe {op.key}: {state} | desing {_shown(op.argv)}")
    lines.append(f"attempted={attempted} failed={failed} "
                 f"open_defect_probes={sum(1 for _, r in probe_results if r)}/{len(probe_results)}")
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    (work_root / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.txt").write_text(
        "\n".join(lines + [json.dumps(summary)]) + "\n", encoding="utf-8")
    print("\n".join(lines))
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (ImportError, OSError, ValueError, RuntimeError, KeyError, subprocess.SubprocessError) as exc:
        print(f"bench: {type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(2)
