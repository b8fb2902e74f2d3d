"""chainrate benchmark harness.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all   # every workload in turn

Run from the repository root. The program is run from source: command
processes get the inherited environment plus ``PYTHONPATH=src``, and the
in-process workload imports ``src/chainrate`` directly. Thread-count
variables are deliberately left alone, so the CPU cost of numpy's BLAS
thread pool is part of what is measured.

One client, closed loop: each pass runs the workload's fixed operation list
once, in order, starting an operation only when the previous one has ended.
Passes repeat until ``--seconds`` have elapsed (at least ``MIN_PASSES``).

Times are reported in *reference seconds*. The shared machine this was
built on drifts in speed by 10-30% over tens of seconds, far more than the
regressions the benchmark must catch. So each pass also times a fixed
reference that does not depend on chainrate (``python -c "import numpy"``,
the bulk of every command's start-up, before and after every command; a
pure-Python kernel before and after each in-process pass) and scales each
time by ``nominal / measured reference``.
Raw times are printed next to the scaled ones.

``--trace 0`` reports the end-to-end metrics from untraced passes.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics from the traced ones (self time and counters of each
wrapped public function, see ``spans.py``; raw seconds) plus the tracing
overhead ``trace.wall_ratio`` = traced / untraced pass time.

Human-readable lines come first, each metric with its unit and sample count;
the last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from workloads import LibraryEval, LibraryThreshold

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
MIN_PASSES = 3
#: Fresh interpreters timed per run for setup_s and the import layer.
SETUP_REPEATS = 7
#: Traced passes kept per run; bounds the spans held in memory.
MAX_TRACED_PASSES = 5

#: Speed references and their nominal times (typical on a 2-core 2.1 GHz Xeon VM).
REFERENCE_CODE = "import numpy"
REFERENCE_NOMINAL_S = 0.15
KERNEL_NOMINAL_S = 0.02

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cmd_p50_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)

IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import chainrate.cli; t2 = time.perf_counter(); print(t1 - t0, t2 - t1)"
)


def summarize(values: list[float]) -> dict:
    """Median plus the highest whole percentile with at least ten samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    summary = {"n": n, "p50": statistics.median(ordered)}
    if n > 10:
        pct = math.floor(100 * (n - 10) / n)
        rank = max(1, math.ceil(pct * n / 100))
        if pct > 50 and n - rank >= 10:
            summary[f"p{pct}"] = ordered[rank - 1]
    return summary


def describe(name: str, unit: str, values: list[float], what: str) -> str:
    summary = summarize(values)
    extra = "".join(f", {key} {val:.6g} {unit}" for key, val in summary.items() if key not in ("n", "p50"))
    return f"{name} = {summary['p50']:.6g} {unit}  (median of {summary['n']} {what}{extra})"


@dataclass(frozen=True)
class _Dist:
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if abs(sum(self.probs) - 1.0) > 1e-9:
            raise ValueError("not normalized")


def _convolve(p: _Dist, q: _Dist) -> _Dist:
    out = [0.0, 0.0, 0.0, 0.0]
    for s in range(4):
        acc = 0.0
        for a in range(4):
            acc += p.probs[a] * q.probs[s ^ a]
        out[s] = acc
    return _Dist(tuple(out))


def reference_kernel() -> float:
    """Wall time of fixed pure-Python work shaped like the analytic layers
    (small frozen dataclasses, XOR convolutions, entropies), written out here so
    that it cannot change with chainrate: the in-process speed reference."""
    start = time.perf_counter()
    links = [_Dist((1.0 - 3.0 * q, q, q, q)) for q in (0.001, 0.01, 0.02, 0.03)] * 2
    for _ in range(600):
        acc = _Dist((1.0, 0.0, 0.0, 0.0))
        for link in links:
            acc = _convolve(acc, link)
        -sum(p * math.log2(p) for p in acc.probs if p > 0.0)
    return time.perf_counter() - start


def machine_facts() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas": openblas,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout's git metadata, read from files; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    return env


@dataclass
class Finished:
    code: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: str
    stderr: str


def spawn(argv: list[str], env: dict[str, str], out_base: Path) -> Finished:
    """Run one process to completion; time it and take its rusage from wait4."""
    with open(f"{out_base}.out", "w+b") as out, open(f"{out_base}.err", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Finished(
            proc.returncode,
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0,
            out.read().decode("utf-8", "replace"),
            err.read().decode("utf-8", "replace"),
        )


def python(code: str, env: dict[str, str], work: Path) -> Finished:
    done = spawn([sys.executable, "-c", code], env, work / "probe")
    if done.code != 0:
        raise SystemExit(f"bench: `python -c {code!r}` failed: {done.stderr.strip()[-300:]}")
    return done


class Tally:
    """Attempted and failed operations, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, label: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{label}: {reason}")


@dataclass
class PassResult:
    """One pass: times in reference seconds, plus the raw ones they were scaled from."""

    wall: float
    cpu: float
    rss_mb: float
    raw_wall: float
    raw_cpu: float
    op_walls: list[float]
    raw_op_walls: list[float]
    phase_walls: Counter = field(default_factory=Counter)
    not_ok: int = 0
    layers: Counter | None = None


# --------------------------------------------------------------------------- CLI workloads


class CliRunner:
    def __init__(self, wl: workloads.Workload, env: dict[str, str], work: Path, tally: Tally) -> None:
        self.wl, self.env, self.work, self.tally = wl, env, work, tally
        self.first_stdout: dict[tuple[str, ...], str] = {}
        self.spans_out: list = []

    def run_pass(self, traced: bool) -> PassResult:
        import checks
        import spans

        finished: list[Finished] = []
        references = [python(REFERENCE_CODE, self.env, self.work).wall]
        for index, op in enumerate(self.wl.ops):
            base = self.work / f"op-{index}"
            if traced:
                argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"), f"{base}.spans", str(index), "--", *op.argv]
            else:
                argv = [sys.executable, "-m", "chainrate.cli", *op.argv]
            finished.append(spawn(argv, self.env, base))
            references.append(python(REFERENCE_CODE, self.env, self.work).wall)
        # Each command is scaled by the references run just before and after it.
        scales = [2.0 * REFERENCE_NOMINAL_S / (a + b) for a, b in zip(references, references[1:])]
        result = PassResult(
            wall=sum(f.wall * k for f, k in zip(finished, scales)),
            cpu=sum(f.cpu * k for f, k in zip(finished, scales)),
            rss_mb=max(f.rss_mb for f in finished),
            raw_wall=sum(f.wall for f in finished),
            raw_cpu=sum(f.cpu for f in finished),
            op_walls=[f.wall * k for f, k in zip(finished, scales)],
            raw_op_walls=[f.wall for f in finished],
        )
        trace_spans: list = []
        trace_counts: Counter = Counter()
        for index, (op, done) in enumerate(zip(self.wl.ops, finished)):
            result.phase_walls[op.kind] += result.op_walls[index]
            reason = None
            try:
                report = checks.check_cli(op, done.code, done.stdout, done.stderr)
                if report is not None and not (report["sampling_ok"] and report["hoeffding_ok"]):
                    result.not_ok += 1
                if op.kind in ("simulate", "mc-verify"):
                    if self.first_stdout.setdefault(op.argv, done.stdout) != done.stdout:
                        raise checks.CheckFailed("repeated (config, seed) did not reproduce the same JSON")
            except checks.CheckFailed as exc:
                reason = str(exc)
            self.tally.record(" ".join(op.argv), reason)
            if traced:
                child_spans, child_counts = spans.load_dump(f"{self.work / f'op-{index}'}.spans")
                spans.merge(trace_spans, child_spans)
                trace_counts.update(child_counts)
        if traced:
            result.layers = spans.pass_totals(trace_spans, trace_counts)
            result.layers["montecarlo.mc_verify_not_ok"] = result.not_ok
            self.spans_out.append(trace_spans)
        return result


# --------------------------------------------------------------------------- library workload


class LibraryRunner:
    def __init__(self, wl: workloads.Workload, tally: Tally) -> None:
        from chainrate.bell import BellDiagonal
        from chainrate.noise import ChainSpec

        self.wl, self.tally = wl, tally
        self.first_results: list | None = None
        self.spans_out: list = []
        specs: dict[int, ChainSpec] = {}
        self.inputs = []
        for op in wl.ops:
            spec = None
            if isinstance(op, LibraryEval):
                chain = op.chain
                if id(chain) not in specs:
                    links = tuple(BellDiagonal(tuple(p)) for p in chain["links"])
                    specs[id(chain)] = ChainSpec(chain["repeaters"], chain["honest_left"], chain["honest_right"], links)
                spec = specs[id(chain)]
            self.inputs.append((op, spec))

    @staticmethod
    def threshold_rate(op: LibraryThreshold):
        from chainrate import keyrate, noise

        def rate(qx: float) -> float:
            strength = noise.strength_for_observed_qx(qx, op.repeaters + 1)
            chain = noise.uniform_chain(op.repeaters, strength, op.honest_left, op.honest_right)
            return keyrate.asymptotic_rate(qx, noise.noise_parameter(chain))

        return rate

    def run_pass(self, traced: bool) -> PassResult:
        import spans
        from chainrate import keyrate, noise

        recorder = spans.Recorder() if traced else None
        references = [reference_kernel()]
        if recorder is not None:
            recorder.install()
        results: list = []
        op_walls: list[float] = []
        phase_walls: Counter = Counter()
        cpu0 = time.process_time()
        try:
            for index, (op, spec) in enumerate(self.inputs):
                if recorder is not None:
                    recorder.op_id = index
                phase = "threshold" if spec is None else "eval"
                start = time.perf_counter()
                try:
                    if spec is not None:
                        report = noise.noise_report(spec)
                        params = keyrate.RateParams(n=op.n, m=op.m, epsilon=op.epsilon, p_star=report.p_star)
                        rate = keyrate.finite_rate(report.observed_qx, params)
                        results.append((report.observed_qx, report.p_star, rate.rate))
                    else:
                        results.append(keyrate.noise_tolerance(self.threshold_rate(op)))
                except Exception as exc:  # counted as a failed operation by check()
                    results.append(exc)
                elapsed = time.perf_counter() - start
                op_walls.append(elapsed)
                phase_walls[phase] += elapsed
        finally:
            if recorder is not None:
                recorder.uninstall()
        cpu = time.process_time() - cpu0
        references.append(reference_kernel())
        scale = 2.0 * KERNEL_NOMINAL_S / sum(references)
        result = PassResult(
            wall=sum(op_walls) * scale,
            cpu=cpu * scale,
            rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            raw_wall=sum(op_walls),
            raw_cpu=cpu,
            op_walls=[w * scale for w in op_walls],
            raw_op_walls=op_walls,
            phase_walls=Counter({phase: w * scale for phase, w in phase_walls.items()}),
        )
        self.check(results)
        if recorder is not None:
            result.layers = spans.pass_totals(recorder.spans, recorder.counts)
            self.spans_out.append(recorder.spans)
        return result

    def check(self, results: list) -> None:
        import checks

        reason = None
        try:
            checks.check_readme_library()
        except checks.CheckFailed as exc:
            reason = str(exc)
        self.tally.record("README library example", reason)
        first = self.first_results
        for index, ((op, _), got) in enumerate(zip(self.inputs, results)):
            reason = None
            try:
                if first is None:
                    if isinstance(op, LibraryEval):
                        checks.check_library_eval(got)
                    else:
                        checks.check_library_threshold(got, self.threshold_rate(op))
                elif got != first[index]:
                    raise checks.CheckFailed(f"result {got} differs from the first pass's {first[index]}")
            except checks.CheckFailed as exc:
                reason = str(exc)
            self.tally.record(f"library op {index}", reason)
        if first is None:
            self.first_results = results


# --------------------------------------------------------------------------- entry point


def end_to_end(wl: workloads.Workload, env: dict[str, str], work: Path, passes: list[PassResult],
               metrics: dict, lines: list[str]) -> None:
    pairs = [(python("import chainrate.cli", env, work).wall, python(REFERENCE_CODE, env, work).wall)
             for _ in range(SETUP_REPEATS)]
    scaled = {
        "setup_s": [s / r * REFERENCE_NOMINAL_S for s, r in pairs],
        "wall_s": [p.wall for p in passes],
        "cmd_p50_s": [w for p in passes for w in p.op_walls],
        "cpu_s": [p.cpu for p in passes],
    }
    raw = {
        "setup_s": [s for s, _ in pairs],
        "wall_s": [p.raw_wall for p in passes],
        "cmd_p50_s": [w for p in passes for w in p.raw_op_walls],
        "cpu_s": [p.raw_cpu for p in passes],
    }
    what = {
        "setup_s": "fresh `import chainrate.cli` interpreters",
        "wall_s": "passes",
        "cmd_p50_s": "operations" if wl.name == "library-sweep" else "command processes",
        "cpu_s": "passes",
    }
    for metric, unit in END_TO_END[:-1]:
        metrics[metric] = (statistics.median(scaled[metric]), unit)
        lines.append(describe(metric, unit, scaled[metric], what[metric]))
        lines.append("    raw " + describe(metric, unit, raw[metric], what[metric]))
    metrics["peak_rss_mb"] = (statistics.median(p.rss_mb for p in passes), "MB")
    lines.append(describe("peak_rss_mb", "MB", [p.rss_mb for p in passes], "passes"))
    lines.append(describe("reference scale", "x", [p.wall / p.raw_wall for p in passes], "passes"))
    lines.extend(workload_rates(wl, passes))


def workload_rates(wl: workloads.Workload, passes: list[PassResult]) -> list[str]:
    """Workload-specific throughputs (reference-scaled), printed alongside the gated metrics."""
    lines = []

    def rate(metric: str, unit: str, work: float, phase: str, what: str) -> None:
        values = [work / p.phase_walls[phase] for p in passes]
        lines.append(describe(metric, unit, values, f"passes, {work:g} {what} per pass"))

    if wl.name == "montecarlo-cli":
        rate("sim_rounds_per_s", "rounds/s", workloads.simulate_rounds_total(wl.ops), "simulate", "rounds")
        rate("mc_trials_per_s", "trials/s", workloads.mc_trials_total(wl.ops), "mc-verify", "trials")
        lines.append(f"mc_verify_not_ok = {statistics.median(p.not_ok for p in passes):g} count  "
                     f"(median of {len(passes)} passes; a statistical outcome, not a failure)")
    elif wl.name == "library-sweep":
        evals = sum(isinstance(op, LibraryEval) for op in wl.ops)
        rate("evals_per_s", "1/s", evals, "eval", "evaluations")
        rate("thresholds_per_s", "1/s", len(wl.ops) - evals, "threshold", "thresholds")
    return lines


def per_layer(env: dict[str, str], work: Path, untraced: list[PassResult], traced: list[PassResult],
              metrics: dict, lines: list[str]) -> None:
    import spans

    probes = [tuple(map(float, python(IMPORT_PROBE, env, work).stdout.split())) for _ in range(SETUP_REPEATS)]
    untraced_walls = [p.wall for p in untraced]
    traced_walls = [p.wall for p in traced]
    extra = {
        "import.numpy_s": statistics.median(p[0] for p in probes),
        "import.chainrate_s": statistics.median(p[1] for p in probes),
        "trace.wall_ratio": statistics.median(traced_walls) / statistics.median(untraced_walls),
    }
    values = spans.layer_metrics([p.layers for p in traced], extra)
    lines.append(describe("untraced wall_s", "s", untraced_walls, "passes"))
    lines.append(describe("traced wall_s", "s", traced_walls, "passes"))
    for metric, unit, _better in spans.PER_LAYER:
        metrics[metric] = (values[metric], unit)
        source = f"{SETUP_REPEATS} fresh interpreters" if metric.startswith("import.") else f"{len(traced)} traced passes"
        lines.append(f"{metric} = {values[metric]:.6g} {unit}  (median of {source})")


def write_spans(path: Path, passes: list) -> None:
    """All spans of the traced passes, one row per span."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({
            "fields": ["pass", "name", "start", "end", "parent", "op_id"],
            "spans": [[i, *span] for i, pass_spans in enumerate(passes) for span in pass_spans],
        }, handle)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    env = child_env()
    work = ROOT / ".bench_work" / f"{name}-{seed}"
    work.mkdir(parents=True, exist_ok=True)
    wl = workloads.build(name, seed)
    for rel, text in wl.files.items():
        path = ROOT / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)

    print(f"# workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}  ops/pass {len(wl.ops)}")
    print(f"# machine {json.dumps(machine_facts(), sort_keys=True)}")

    tally = Tally()
    runner = LibraryRunner(wl, tally) if name == "library-sweep" else CliRunner(wl, env, work, tally)
    metrics: dict[str, tuple[float, str]] = {}
    lines: list[str] = []
    deadline = time.perf_counter() + seconds
    if not trace:
        passes = []
        while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
            passes.append(runner.run_pass(traced=False))
        end_to_end(wl, env, work, passes, metrics, lines)
    else:
        untraced, traced = [], []
        while not traced or (time.perf_counter() < deadline and len(traced) < MAX_TRACED_PASSES):
            untraced.append(runner.run_pass(traced=False))
            traced.append(runner.run_pass(traced=True))
        per_layer(env, work, untraced, traced, metrics, lines)
        write_spans(work / "spans.json", runner.spans_out)

    lines.append(f"error_rate = {tally.failed / tally.attempted:.6g} fraction  "
                 f"({tally.failed} failed of {tally.attempted} attempted)")
    print("\n".join(lines))
    for reason in tally.reasons:
        print(f"bench: FAILED {reason}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {metric: {"value": value, "unit": unit} for metric, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "chainrate" / "cli.py").is_file():
        print(f"bench: no chainrate sources under {ROOT / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    if args.workload == "all":
        status = 0
        for name in workloads.WORKLOADS:
            child = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(args.trace)]
            status = max(status, subprocess.run(child, cwd=ROOT).returncode)
        return status
    sys.path.insert(0, str(ROOT / "src"))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
