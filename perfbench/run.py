"""longmem benchmark: two workloads, end-to-end and per-layer metrics.

Usage (from the root of a longmem source tree):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The code under test is ``src/longmem`` of the current directory; nothing is
installed.  Inputs come from the benchmark's own seeded generator
(``gen.py``).  Each workload repeats its timed operations for about
``--seconds`` and reports medians over the repetitions.  CLI operations run as
``python -m longmem`` subprocesses, whose CPU time and peak RSS come from
``os.wait4``; library operations run in a fresh interpreter per repetition
(``kernels.py``).  Every output is checked, and a failed check, a non-zero
exit or an exception counts as a failed operation.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions and prints the per-layer metrics, taken from
spans recorded around each layer's public functions (``spans.py``); the
spans of the last traced repetition are kept under ``.perfbench/trace/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import facts
import gen
import spans

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 120
SETUP_REPEATS = 3
IMPORT_REPEATS = 3

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# Per-layer time metric -> the span names whose inclusive time it sums.
LAYER_TIMES = {
    "series.load_s": ["series.load_panel"],
    "series.align_s": ["series.align"],
    "series.to_csv_s": ["series.panel_to_csv"],
    "series.profile_s": ["series.series_profile"],
    "scaling.fluctuation_s": ["scaling.fluctuation"],
    "hurst.distribution_s": ["hurst.hurst_distribution"],
    "hurst.fit_s": ["hurst.fit_hurst"],
    "hurst.crossover_s": ["hurst.detect_crossover"],
    "dcca.pairwise_s": ["dcca.pairwise_matrix"],
    "dcca.rho_curve_s": ["dcca.rho_vs_scale"],
    "network.split_s": ["network.split_periods"],
    "network.build_s": ["network.build_network"],
    "network.communities_s": ["network.detect_communities"],
    "network.export_s": ["network.to_graphml", "network.to_dot"],
    "synthetic.generate_s": ["synthetic.generate_blocks"],
}
LAYER_CALLS = {
    "scaling.fluctuation_calls": "scaling.fluctuation",
    "scaling.detrend_calls": "scaling.detrended_segments",
    "dcca.pairwise_calls": "dcca.pairwise_matrix",
}
LAYER_COUNTS = ("series.cells_read", "series.dates_dropped",
                "series.cells_filled", "hurst.failures", "network.edges")
PER_LAYER_UNITS = {
    "cli.import_s": "s", "cli.self_s": "s",
    "cli.files_written": "count", "cli.bytes_written": "bytes",
    **{name: "s" for name in LAYER_TIMES},
    **{name: "count" for name in LAYER_CALLS},
    "dcca.pairwise_calls_report": "count",
    **{name: "count" for name in LAYER_COUNTS},
    "scaling.residual_mb": "MB",
    "hurst.distribution_t2_s": "s", "dcca.pairwise_t2_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark itself cannot run here (not a failed operation)."""


# ------------------------------------------------------------ child processes


@dataclass
class Child:
    """Exit code, wall time, CPU time and peak RSS of one finished process."""

    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


class Runner:
    """Starts child interpreters against ``src/`` inside the work directory."""

    def __init__(self, root: Path, work: Path):
        self.root, self.work = root, work
        tmp = work / "tmp"
        tmp.mkdir(parents=True)
        # One thread everywhere: the CLI default, and BLAS pinned to match,
        # so cpu_s counts work rather than BLAS threads spinning.
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        TMPDIR=str(tmp), LONGMEM_THREADS="1",
                        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                        MKL_NUM_THREADS="1")
        self.log = work / "child.log"

    def python(self, *args: str) -> Child:
        """Run ``python args...`` with cwd = work dir; wait4 gives rusage."""
        with open(self.log, "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=self.work,
                                    env=self.env, stdout=subprocess.DEVNULL,
                                    stderr=log)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: never leave the child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, wall, ru.ru_utime + ru.ru_stime,
                     ru.ru_maxrss / 1024.0)

    def cli(self, argv: list[str], spans_path: str | None) -> Child:
        if spans_path is None:
            return self.python("-m", "longmem", *argv)
        return self.python(str(HERE / "traced_cli.py"), spans_path, *argv)

    def log_tail(self, lines: int = 5) -> str:
        """The last stderr lines of the latest child."""
        text = self.log.read_text(errors="replace") if self.log.exists() else ""
        return " | ".join(text.strip().splitlines()[-lines:])

    def fresh_dir(self, name: str) -> str:
        """Empty the output directory ``name``; the same name every repetition
        keeps the recorded argv, and so the manifest, identical."""
        shutil.rmtree(self.work / name, ignore_errors=True)
        return name


def tree_digests(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


# ----------------------------------------------------------------- iterations


class Iteration:
    """Measurements and check results of one repetition of a workload."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.wall_s = self.cpu_s = self.rss_mb = 0.0
        self.setup_s: float | None = None
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[str, str] = {}
        self.spans: list[list] = []
        # CLI label -> [start, end) of its spans in ``spans``.
        self.span_ranges: dict[str, tuple[int, int]] = {}
        self.counts: dict[str, float] = {}
        self.extra: dict[str, float] = {}

    def add_child(self, child: Child) -> None:
        self.wall_s += child.wall_s
        self.cpu_s += child.cpu_s
        self.rss_mb = max(self.rss_mb, child.rss_mb)

    def op(self, label: str, problems: list[str]) -> None:
        """Count one operation; it failed if any problem was found."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.errors += [f"{label}: {p}" for p in problems]

    def add_spans(self, path: Path, label: str) -> None:
        with open(path) as fh:
            data = json.load(fh)
        offset = len(self.spans)
        self.spans += [[n, a, b, None if p is None else p + offset]
                       for n, a, b, p in data["spans"]]
        self.span_ranges[label] = (offset, len(self.spans))
        for key, value in data["counts"].items():
            self.counts[key] = self.counts.get(key, 0) + value

    def add_outputs(self, out: Path) -> None:
        """Count and digest every file a CLI call wrote under ``out``."""
        digests = tree_digests(out)
        size = sum((out / rel).stat().st_size for rel in digests)
        for key, value in (("cli.files_written", len(digests)),
                           ("cli.bytes_written", size)):
            self.counts[key] = self.counts.get(key, 0) + value
        self.digests.update({f"{out.name}/{k}": v for k, v in digests.items()})


def _file_set_problems(out: Path, expected: set[str]) -> list[str]:
    found = {str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()}
    problems = []
    if expected - found:
        problems.append(f"missing outputs {sorted(expected - found)}")
    if found - expected:
        problems.append(f"unexpected outputs {sorted(found - expected)}")
    return problems


# ------------------------------------------------------------------ workloads


class Workload:
    """A workload: repeated set-up, then repeated timed iterations."""

    def __init__(self, runner: Runner, seed: int):
        self.runner, self.seed = runner, seed
        self.count = 0
        self.setup_errors: list[str] = []

    def setup(self) -> None:
        raise NotImplementedError

    def iteration(self, traced: bool) -> Iteration:
        raise NotImplementedError

    def finish(self) -> Iteration | None:
        """Checks run once after the timed repetitions; none by default."""
        return None

    def warm_import(self) -> None:
        """Start one interpreter importing the CLI, so bytecode is compiled
        and the files are in the page cache before anything is timed."""
        child = self.runner.python("-c", "import longmem.cli")
        if child.code != 0:
            raise BenchError(f"import longmem.cli failed: {self.runner.log_tail()}")

    def _spans_path(self, tag: str) -> str:
        return str(self.runner.work / f"spans-{self.count}-{tag}.json")

    def _cli(self, it: Iteration, label: str, argv: list[str]) -> bool:
        spans_path = self._spans_path(label) if it.traced else None
        child = self.runner.cli(argv, spans_path)
        it.add_child(child)
        if child.code != 0:
            it.op(label, [f"exit {child.code}: {self.runner.log_tail()}"])
            return False
        if spans_path:
            it.add_spans(Path(spans_path), label)
        return True


class CliPipeline(Workload):
    """Every CLI flow in one repetition: ``longmem report`` on a gappy
    rate-level panel, forward-filled; then ``longmem synth`` and ``longmem
    network`` over three periods on the panel it wrote."""

    # report: 150 levels series x 5000 weekdays.
    N_BLOCKS, BLOCK_SIZE, N_OBS = 15, 10, 5000
    REPORT_SCALES = (50, 150, 250)
    PAIRS = ("b01m01,b01m02", "b01m01,b02m01")
    # synth + network: 300 increments series x 3000 weekdays.
    SYNTH_BLOCKS, SYNTH_BLOCK_SIZE = 30, 10
    NETWORK_SCALES = (20, 60, 180)
    # 3000 weekdays from 2000-01-03 end in mid-2011.
    PERIODS = ("2000-01-01:2003-12-31", "2004-01-01:2007-12-31",
               "2008-01-01:2011-12-31")
    # Scale at which every period's partition must recover the blocks.
    CHECK_SCALE = 20
    input_digest: str | None = None

    def setup(self) -> None:
        text = gen.levels_csv(self.seed, self.N_BLOCKS, self.BLOCK_SIZE,
                              self.N_OBS, weight=0.6, hurst=0.7,
                              blank_share=0.02, complete_head=5)
        data = text.encode()
        digest = hashlib.sha256(data).hexdigest()
        if self.input_digest not in (None, digest):
            self.setup_errors.append("same seed gave a different input file")
        self.input_digest = digest
        (self.runner.work / "levels.csv").write_bytes(data)
        self.warm_import()

    def iteration(self, traced: bool) -> Iteration:
        it = Iteration(traced)
        self._report(it)
        self._synth_network(it)
        return it

    def finish(self) -> Iteration:
        """rerun_from_manifest must reproduce every report output byte for
        byte; run once, after the timed repetitions."""
        it = Iteration(False)
        out_dir = self.runner.work / "report"
        before = tree_digests(out_dir)
        child = self.runner.python(
            "-c", "import sys; from longmem.cli import rerun_from_manifest; "
                  "sys.exit(rerun_from_manifest(sys.argv[1]))",
            f"{out_dir.name}/run_manifest.json")
        problems = [] if child.code == 0 else [f"exit {child.code}"]
        after = tree_digests(out_dir)
        if after != before:
            changed = sorted(k for k in set(before) | set(after)
                             if before.get(k) != after.get(k))
            problems.append(f"outputs differ after rerun: {changed}")
        it.op("rerun_from_manifest", problems)
        return it

    # ------------------------------------------------------------- report

    def expected_report(self) -> set[str]:
        names = {"run_manifest.json", "hurst/hurst.json",
                 "hurst/hurst_estimates.csv", "hurst/hurst_histogram.csv",
                 "hurst/crossover.csv", "dcca/dcca.json",
                 "network/network.json", "network/degree_vs_scale.csv"}
        for k, pair in enumerate(self.PAIRS):
            a, b = pair.split(",")
            names.add(f"dcca/rho_curve_{k:02d}_{a}__{b}.csv")
        for s in self.REPORT_SCALES:
            names |= {f"dcca/rho_matrix_s{s}.csv", f"network/network_s{s}.graphml",
                      f"network/network_s{s}.dot", f"network/partition_s{s}.csv"}
        return names

    def _report(self, it: Iteration) -> None:
        out = self.runner.fresh_dir("report")
        argv = ["report", "--input", "levels.csv", "--output-dir", out,
                "--align", "forward_fill", "--max-gap", "5",
                "--threshold", "0.5", "--seed", str(self.seed),
                "--scale", ",".join(map(str, self.REPORT_SCALES))]
        for pair in self.PAIRS:
            argv += ["--pair", pair]
        if self._cli(it, "report", argv):
            out_dir = self.runner.work / out
            it.op("report", _file_set_problems(out_dir, self.expected_report()))
            it.add_outputs(out_dir)

    # ---------------------------------------------------- synth + network

    def expected_network(self) -> set[str]:
        names = {"run_manifest.json", "network.json"}
        for k in range(1, len(self.PERIODS) + 1):
            names.add(f"period_{k}/degree_vs_scale.csv")
            for s in self.NETWORK_SCALES:
                names |= {f"period_{k}/network_s{s}.graphml",
                          f"period_{k}/network_s{s}.dot",
                          f"period_{k}/partition_s{s}.csv"}
        return names

    def _synth_network(self, it: Iteration) -> None:
        synth_out = self.runner.fresh_dir("synth")
        net_out = self.runner.fresh_dir("network")
        argv = ["synth", "--blocks", f"{self.SYNTH_BLOCKS}x{self.SYNTH_BLOCK_SIZE}",
                "--weight", "0.6", "--hurst", "0.7", "--n", "3000",
                "--seed", str(self.seed), "--output-dir", synth_out]
        if not self._cli(it, "synth", argv):
            return
        synth_dir = self.runner.work / synth_out
        it.op("synth", _file_set_problems(synth_dir,
                                          {"panel.csv", "run_manifest.json"}))
        it.add_outputs(synth_dir)

        argv = ["network", "--input", f"{synth_out}/panel.csv",
                "--input-kind", "increments", "--threshold", "0.5",
                "--scale", ",".join(map(str, self.NETWORK_SCALES)),
                "--seed", str(self.seed), "--output-dir", net_out]
        for period in self.PERIODS:
            argv += ["--period", period]
        if self._cli(it, "network", argv):
            net_dir = self.runner.work / net_out
            problems = _file_set_problems(net_dir, self.expected_network())
            if not problems:
                problems = self._partition_problems(net_dir / "network.json")
            it.op("network", problems)
            it.add_outputs(net_dir)

    def _partition_problems(self, path: Path) -> list[str]:
        blocks = {frozenset(f"b{b}:m{m}"
                            for m in range(1, self.SYNTH_BLOCK_SIZE + 1))
                  for b in range(1, self.SYNTH_BLOCKS + 1)}
        problems = []
        entries = [e for e in json.loads(path.read_text())
                   if e["network"]["scale"] == self.CHECK_SCALE]
        if len(entries) != len(self.PERIODS):
            return [f"{len(entries)} networks at s={self.CHECK_SCALE}"]
        for entry in entries:
            groups: dict[int, set[str]] = {}
            for node, label in entry["partition"]["assignment"]:
                groups.setdefault(label, set()).add(node)
            if {frozenset(g) for g in groups.values()} != blocks:
                problems.append(f"{entry['prefix']}: partition at "
                                f"s={self.CHECK_SCALE} does not recover the "
                                f"{self.SYNTH_BLOCKS} blocks ({len(groups)} groups)")
        return problems


class KernelsInproc(Workload):
    """Library calls on an in-memory increments panel (``kernels.py``)."""

    def setup(self) -> None:
        """Nothing: each repetition sets up in its own interpreter."""

    def iteration(self, traced: bool) -> Iteration:
        it = Iteration(traced)
        result_path = self.runner.work / f"kernels-{self.count}.json"
        args = [str(HERE / "kernels.py"), str(self.seed), str(result_path)]
        spans_path = self._spans_path("kernels") if traced else None
        if spans_path:
            args.append(spans_path)
        child = self.runner.python(*args)
        it.rss_mb = child.rss_mb
        if child.code != 0 or not result_path.exists():
            it.op("kernels", [f"exit {child.code}: {self.runner.log_tail()}"])
            return it
        result = json.loads(result_path.read_text())
        it.wall_s, it.cpu_s = result["wall_s"], result["cpu_s"]
        it.setup_s = result["setup_s"]
        it.attempted, it.failed = result["attempted"], result["failed"]
        it.errors = result["errors"]
        it.digests = result["digests"]
        if spans_path:
            it.add_spans(Path(spans_path), "kernels")
            it.extra.update(result["t2"])
        return it


WORKLOADS = {
    "cli_pipeline": CliPipeline,
    "kernels_inproc": KernelsInproc,
}


# -------------------------------------------------------------------- metrics


def _import_seconds(runner: Runner) -> float:
    """Median fresh-interpreter ``import longmem.cli`` time, timed inside."""
    code = ("import time; t = time.perf_counter(); import longmem.cli; "
            "open('import_s.txt', 'w').write(repr(time.perf_counter() - t))")
    values = []
    for _ in range(IMPORT_REPEATS):
        if runner.python("-c", code).code != 0:
            raise BenchError(f"import longmem.cli failed: {runner.log_tail()}")
        values.append(float((runner.work / "import_s.txt").read_text()))
    return statistics.median(values)


def layer_metrics(traced: list[Iteration], plain: list[Iteration],
                  import_s: float) -> dict[str, float]:
    """Per-layer metrics: medians over traced iterations; counts from the first."""
    summaries = [spans.summarize(it.spans) for it in traced]

    def median_of(fn) -> float:
        return statistics.median(fn(s, it) for s, it in zip(summaries, traced))

    def total(summary, names, key="total_s"):
        return sum(summary.get(n, {}).get(key, 0.0) for n in names)

    first, counts = summaries[0], traced[0].counts
    out = {"cli.import_s": import_s,
           "cli.self_s": median_of(lambda s, it: total(s, ["cli.main"], "self_s"))}
    for name, span_names in LAYER_TIMES.items():
        out[name] = median_of(lambda s, it, n=span_names: total(s, n))
    for name, span_name in LAYER_CALLS.items():
        out[name] = total(first, [span_name], "calls")
    # The calls ``longmem report`` alone makes (3 scales need 3 matrices).
    start, end = traced[0].span_ranges.get("report", (0, 0))
    out["dcca.pairwise_calls_report"] = sum(
        row[0] == "dcca.pairwise_matrix" for row in traced[0].spans[start:end])
    for name in LAYER_COUNTS + ("cli.files_written", "cli.bytes_written"):
        out[name] = counts.get(name, 0)
    out["scaling.residual_mb"] = counts.get("scaling.residual_bytes", 0) / 1e6
    for name in ("hurst.distribution_t2_s", "dcca.pairwise_t2_s"):
        out[name] = median_of(lambda s, it, n=name: it.extra.get(n, 0.0))
    out["trace.overhead_s"] = (statistics.median(it.wall_s for it in traced)
                               - statistics.median(it.wall_s for it in plain))
    return out


# ------------------------------------------------------------------------ main


def run(name: str, workload: Workload, seconds: float, trace: bool,
        runner: Runner) -> dict:
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - t0)
    import_s = _import_seconds(runner) if trace else 0.0

    iterations: list[Iteration] = []
    durations: list[float] = []
    deadline = time.perf_counter() + seconds
    # A traced run alternates plain and traced repetitions, at least one each.
    # Another repetition starts while at least half of it fits before the
    # deadline, so a run measures about ``seconds`` rather than overshooting.
    while (len(iterations) < (2 if trace else 1)
           or time.perf_counter() + statistics.median(durations) / 2 < deadline):
        t0 = time.perf_counter()
        iterations.append(workload.iteration(trace and len(iterations) % 2 == 1))
        durations.append(time.perf_counter() - t0)
        workload.count += 1

    final = workload.finish()
    plain = [it for it in iterations if not it.traced]
    traced_its = [it for it in iterations if it.traced]
    errors = list(workload.setup_errors)
    checked = iterations + ([final] if final else [])
    attempted = sum(it.attempted for it in checked)
    failed = sum(it.failed for it in checked) + len(workload.setup_errors)
    if final:
        errors += final.errors
    for it in iterations:
        errors += it.errors
        if it.digests != iterations[0].digests and not it.failed:
            failed += 1
            errors.append("outputs differ between repetitions of one seed")

    child_setups = [it.setup_s for it in plain if it.setup_s is not None]
    if trace:
        metrics = layer_metrics(traced_its, plain, import_s)
        units = PER_LAYER_UNITS
        keep = runner.root / ".perfbench" / "trace"
        keep.mkdir(parents=True, exist_ok=True)
        path = keep / f"{name}-seed{workload.seed}.json"
        path.write_text(json.dumps({"spans": traced_its[-1].spans,
                                    "counts": traced_its[-1].counts}))
    else:
        metrics = {
            "wall_s": statistics.median(it.wall_s for it in plain),
            "cpu_s": statistics.median(it.cpu_s for it in plain),
            "peak_rss_mb": statistics.median(it.rss_mb for it in plain),
            "setup_s": statistics.median(child_setups or setup_times),
        }
        units = END_TO_END
    return {
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "errors": errors,
        "wall_samples": [it.wall_s for it in plain],
        "repetitions": {"plain": len(plain), "traced": len(traced_its)},
        "digests": iterations[0].digests,
    }


def blas_threads(runner: Runner) -> int | None:
    """BLAS thread count under the environment the timed processes get."""
    out = runner.work / "blas_threads.txt"
    if runner.python(str(HERE / "facts.py"), str(out)).code != 0:
        return None
    return json.loads(out.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "longmem" / "__init__.py").is_file():
        print(f"error: no src/longmem under {root}; run from the root of a "
              "longmem source tree", file=sys.stderr)
        return 2
    work = root / ".perfbench" / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        runner = Runner(root, work)
        workload = WORKLOADS[args.workload](runner, args.seed)
        result = run(args.workload, workload, args.seconds, bool(args.trace),
                     runner)
        result["facts"] = facts.facts(root, blas_threads(runner))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    fail_ratio = result["failed"] / result["attempted"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['repetitions']['plain']} plain, "
          f"{result['repetitions']['traced']} traced repetitions")
    for name, m in result["metrics"].items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_ratio':28s} {fail_ratio:.6g} ratio "
          f"({result['failed']}/{result['attempted']})")
    print("  untraced wall_s per repetition: "
          + " ".join(f"{v:.4f}" for v in result["wall_samples"]))
    for error in result["errors"]:
        print(f"  failed: {error}")
    print("facts " + json.dumps(result["facts"], sort_keys=True))
    print("digests " + json.dumps(result["digests"], sort_keys=True))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed",
                                             "metrics")}))
    return 0


if __name__ == "__main__":
    # SIGTERM unwinds like an exception, so the running child is killed and
    # reaped and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
