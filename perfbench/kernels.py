"""One iteration of the ``kernels_inproc`` workload, in a fresh interpreter.

Usage: python kernels.py SEED RESULT_JSON [SPANS_JSON]

Set-up (input generation, ``import longmem``, building the RatePanel) is
timed apart from the library calls, which follow what ``hurst --crossover``
and ``dcca --all --pair`` do on an in-memory increments panel, once per
detrending method.  With SPANS_JSON the calls run under the span tracer,
and afterwards ``hurst_distribution`` and ``pairwise_matrix`` run again
untraced at ``threads=2``; their outputs must equal the ``threads=1`` ones.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time

import numpy as np

import gen

N_BLOCKS, BLOCK_SIZE, N_OBS = 8, 4, 32768
HURST, WEIGHT = 0.75, 0.6
# The median fitted exponent must land this close to the generator's target.
HURST_TOL = 0.05
MATRIX_SCALES = (50, 150, 250, 500)
PAIRS = (("b01m01", "b01m02"), ("b01m01", "b02m01"),
         ("b03m01", "b03m04"), ("b05m02", "b08m03"))


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _hurst_errors(dist) -> list[str]:
    errors = [f"{sid}: {msg}" for sid, msg in dist.failures]
    median = float(np.median([e.hurst for e in dist.estimates]))
    if abs(median - HURST) > HURST_TOL:
        errors.append(f"median H {median:.4f} not within {HURST_TOL} of {HURST}")
    return errors


def _matrix_errors(m) -> list[str]:
    rho, errors = m.rho, []
    if not np.array_equal(rho, rho.T):
        errors.append("not symmetric")
    if not np.all(np.diag(rho) == 1.0):
        errors.append("diagonal not 1")
    if not (np.all(np.isfinite(rho)) and np.abs(rho).max() <= 1.0):
        errors.append("entries outside [-1, 1]")
    return errors


def _curve_errors(c) -> list[str]:
    ok = np.all(np.isfinite(c.values)) and np.abs(c.values).max() <= 1.0
    return [] if ok else ["values outside [-1, 1]"]


class Calls:
    """The workload's library calls, with per-call failure accounting."""

    def __init__(self, lm, panel):
        self.lm, self.panel = lm, panel
        self.n = len(panel.date_index)
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.outputs: dict[str, list[dict]] = {
            "hurst": [], "matrix": [], "crossover": [], "curve": []}

    def _call(self, kind, label, fn, check=None) -> None:
        self.attempted += 1
        try:
            result = fn()
        except Exception as exc:  # a failing call is counted, not fatal
            problems = [f"{type(exc).__name__}: {exc}"]
        else:
            problems = check(result) if check else []
            self.outputs[kind].append(result.to_json_dict())
        if problems:
            self.failed += 1
            self.errors += [f"{label}: {p}" for p in problems]

    def hurst(self, method, threads=1) -> None:
        lm, grid = self.lm, self.lm.default_grid(self.n, s_min=10, num=20)
        self._call("hurst", f"{method.label} hurst_distribution",
                   lambda: lm.hurst_distribution(
                       self.panel, method, grid=grid, fit_range=(None, 250),
                       input_kind="increments", threads=threads),
                   _hurst_errors)

    def matrices(self, method, threads=1) -> None:
        for s in MATRIX_SCALES:
            self._call("matrix", f"{method.label} pairwise_matrix s={s}",
                       lambda s=s: self.lm.pairwise_matrix(
                           self.panel, s, method, input_kind="increments",
                           threads=threads),
                       _matrix_errors)

    def crossovers(self, method) -> None:
        lm = self.lm
        grid = lm.default_grid(self.n, s_min=10, s_max=min(500, self.n // 2),
                               num=25)
        for ts in sorted(self.panel.series, key=lambda t: t.id):
            self._call("crossover", f"{method.label} crossover {ts.id}",
                       lambda ts=ts: lm.detect_crossover(lm.fluctuation(
                           lm.series_profile(ts, "increments"), grid, method)))

    def curves(self, method) -> None:
        grid = self.lm.default_grid(self.n, s_min=5, s_max=500, num=40)
        for a, b in PAIRS:
            self._call("curve", f"{method.label} rho_vs_scale {a},{b}",
                       lambda a=a, b=b: self.lm.rho_vs_scale(
                           self.panel.member(a), self.panel.member(b),
                           grid=grid, method=method, input_kind="increments"),
                       _curve_errors)


def main() -> int:
    seed, result_path = int(sys.argv[1]), sys.argv[2]
    spans_path = sys.argv[3] if len(sys.argv) > 3 else None

    t0 = time.perf_counter()
    values = gen.blocks(N_BLOCKS, BLOCK_SIZE, WEIGHT, HURST, N_OBS,
                        np.random.default_rng(seed))
    dates = gen.weekdays(N_OBS).tolist()
    import longmem as lm

    panel = lm.RatePanel(
        tuple(lm.TimeSeries(sid, dates, row)
              for sid, row in zip(gen.block_ids(N_BLOCKS, BLOCK_SIZE), values)),
        tuple(dates))
    setup_s = time.perf_counter() - t0
    methods = (lm.dma("centered"), lm.dfa(2))

    tracer = None
    if spans_path:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    calls = Calls(lm, panel)
    cpu0, t1 = _cpu_s(), time.perf_counter()
    for method in methods:
        calls.hurst(method)
        calls.crossovers(method)
        calls.matrices(method)
        calls.curves(method)
    wall_s, cpu_s = time.perf_counter() - t1, _cpu_s() - cpu0
    attempted, failed, errors = calls.attempted, calls.failed, calls.errors
    digest = hashlib.sha256(
        json.dumps(calls.outputs, sort_keys=True).encode()).hexdigest()

    result = {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
              "digests": {"inputs": hashlib.sha256(values.tobytes()).hexdigest(),
                          "library outputs": digest}}
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(spans_path)
        threaded = Calls(lm, panel)
        t2 = {"hurst.distribution_t2_s": 0.0, "dcca.pairwise_t2_s": 0.0}
        for method in methods:
            t = time.perf_counter()
            threaded.hurst(method, threads=2)
            t2["hurst.distribution_t2_s"] += time.perf_counter() - t
            t = time.perf_counter()
            threaded.matrices(method, threads=2)
            t2["dcca.pairwise_t2_s"] += time.perf_counter() - t
        attempted += threaded.attempted
        failed += threaded.failed
        errors += threaded.errors
        for kind in ("hurst", "matrix"):
            if threaded.outputs[kind] != calls.outputs[kind]:
                failed += 1
                errors.append(f"threads=2 {kind} outputs differ from threads=1")
        result["t2"] = t2
    result.update(attempted=attempted, failed=failed, errors=errors)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
