"""ambuplan benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {day24,tiny-check,cli-pipeline}
        [--seed N] [--seconds S] [--trace 0|1]

With ``--trace 0`` the run reports the end-to-end metrics named in
BENCHMARK.json. With ``--trace 1`` it times one untraced pass, then one pass
with every layer boundary wrapped, and reports the per-layer metrics plus
the tracing overhead (for ``cli-pipeline``, a subprocess pass comes first,
and the two compared passes run the chain in-process). Either way the answers are checked after the timed
region. Summary lines go first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full record (host facts, sample counts, failures and, when traced, the
spans) is written to ``.perfbench_out/`` in the checkout.

The run builds ambuplan from the ``src`` directory beside this one; without
it, it exits with code 2 and prints no result.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# one BLAS thread per process, fixed before numpy loads
THREAD_CAP = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(THREAD_CAP)

import spans  # stdlib only, so numpy still loads after the cap above
from spans import median

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 5      # fresh interpreters timed for setup_s
STARTUP_PROBES = 3    # bare `import ambuplan.cli` runs for cli.startup_s
SPAN_FIELDS = ("sid", "parent", "name", "model", "start", "end", "attrs")


def _host_facts() -> dict:
    import platform

    import numpy
    import scipy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"cpu_count": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": THREAD_CAP}


def _setup_seconds(workload: str, seed: int, chain_seeds: list[int]) -> list[float]:
    import subprocess
    import time

    from workloads import subprocess_env

    env = subprocess_env()
    probe = Path(__file__).resolve().parent / "probe.py"
    times = []
    for _ in range(SETUP_PROBES):
        t = time.perf_counter()
        subprocess.run([sys.executable, str(probe), workload, str(seed),
                        *map(str, chain_seeds)],
                       check=True, env=env, cwd=ROOT, timeout=150)
        times.append(time.perf_counter() - t)
    return times


def end_to_end(p, setup: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics of one untraced pass, with their sample counts."""
    cases = len(p.case_seconds)
    values = {
        "setup_s": (median(setup), "s", len(setup)),
        "solve_s.alloc": (median(p.solve_seconds["alloc"]), "s",
                          len(p.solve_seconds["alloc"])),
        "solve_s.transfer": (median(p.solve_seconds["transfer"]), "s",
                             len(p.solve_seconds["transfer"])),
        "cases_per_s": (cases / p.timed_seconds, "1/s", cases),
        "pipeline_s": (median(p.case_seconds), "s", cases),
        "peak_rss_mb": (p.peak_rss_mb, "MB", 1),
    }
    metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in values.items()}
    samples = {k: n for k, (_, _, n) in values.items()}
    return metrics, samples


def tail_percentiles(p) -> dict:
    """p90 of solve times where at least ten samples lie beyond it."""
    import statistics

    out = {}
    for model, times in p.solve_seconds.items():
        if len(times) >= 100:
            out[f"solve_s.{model}.p90"] = statistics.quantiles(times, n=10)[-1]
    return out


LAYER_UNITS = {"iterations": "count", "refactorizations": "count",
               "lu_solve_calls": "count", "nodes": "count", "vars": "count",
               "rows": "count"}


def _layer_unit(name: str) -> str:
    return LAYER_UNITS.get(name.split(".")[1], "s")


def main(argv=None) -> int:
    import argparse

    src = ROOT / "src"
    if not (src / "ambuplan" / "__init__.py").is_file():
        print(f"perfbench: no ambuplan sources in {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import json

    from workloads import MODELS, WORKLOADS, CliPipeline

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="minimum timed seconds per pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    seed = workload.default_seed if args.seed is None else args.seed
    traced = bool(args.trace)
    try:
        if not traced:
            tracer = spans.NullTracer()
            inputs = workload.inputs(seed, tracer)
            passes = [workload.run(inputs, args.seconds, tracer)]
            # probed after the timed region, so that the probes' memory does
            # not count in the cli-pipeline's child peak
            chain_seeds = ([c.seed for c in inputs]
                           if isinstance(workload, CliPipeline) else [])
            setup = _setup_seconds(args.workload, seed, chain_seeds)
            metrics, samples = end_to_end(passes[0], setup)
            extra = tail_percentiles(passes[0])
        else:
            tracer = spans.Tracer()
            inputs = workload.inputs(seed, tracer)
            half = args.seconds / 2
            passes, kw = [], {}
            if isinstance(workload, CliPipeline):
                # subprocess commands for cli.startup_s and cli.cmd.*; the
                # overhead compares two in-process passes, both warm
                workload.startup_probe(tracer, STARTUP_PROBES)
                passes.append(workload.run(inputs, half, tracer))
                half /= 2
                kw = {"in_process": True}
            plain = workload.run(inputs, half, spans.NullTracer(), **kw)
            with spans.patched(tracer):
                traced_pass = workload.run(inputs, half, tracer, **kw)
            passes += [plain, traced_pass]
        # checks may record reference spans (ref.highs), so they come first
        verdict = workload.check(inputs, passes, tracer)
    finally:
        workload.close()

    if traced:
        values, samples, absent = spans.layer_metrics(tracer)
        for model in MODELS:
            solves = traced_pass.solve_seconds[model]
            untraced = plain.solve_seconds[model]
            if solves and untraced:
                values[f"trace.overhead_s.{model}"] = median(solves) - median(untraced)
                samples[f"trace.overhead_s.{model}"] = len(solves)
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in values.items()}
        extra = {"absent": absent}

    # attempted/failed count inputs under the program's default settings;
    # the big_m sweep of tiny-check (a known defect) is tallied apart
    attempted, failed, problems = verdict.counts
    sweep_attempted, sweep_failed, sweep_problems = verdict.sweep_counts
    correct = failed == 0
    host = _host_facts()
    record = {
        "workload": args.workload, "seed": seed, "seconds": args.seconds,
        "trace": args.trace, "host": host, "metrics": metrics,
        "samples": samples, "extra": extra, "correct": correct,
        "attempted": attempted, "failed": failed, "problems": problems[:100],
        "big_m_sweep": {"attempted": sweep_attempted, "failed": sweep_failed,
                        "problems": sweep_problems[:100]},
    }
    if traced:
        record["spans"] = [[getattr(s, f) for f in SPAN_FIELDS] for s in tracer.spans]
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record))

    print(f"host: {json.dumps(host)}")
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']} (n={samples.get(name, 0)})")
    for name, value in extra.items():
        print(f"{name:32s} {value}")
    rate = failed / attempted if attempted else 0.0
    print(f"{'fail_rate':32s} {rate:.6g} ({failed} failed of {attempted} attempted)")
    for problem in problems[:5]:
        print(f"  failed: {problem}")
    if sweep_attempted:
        print(f"{'big_m_sweep.fail_rate':32s} {sweep_failed / sweep_attempted:.6g}"
              f" ({sweep_failed} wrong of {sweep_attempted} in the big_m sweep;"
              " not in failed)")
        for problem in sweep_problems[:5]:
            print(f"  wrong: {problem}")
    print(f"record: {out_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
