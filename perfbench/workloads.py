"""The benchmark's workloads: inputs, timed closed loops and answer checks.

Every workload is a closed loop with one client: a case starts only after
the previous one has finished. Inputs are made from the workload seed during
set-up, and only the instances (for the CLI, the instance seed) reach the
program. Answers are checked after the timed region. A wrong answer or an
exception counts as a failed operation and never stops the run.

* ``day24``: the paper's headline instance, preset 5 (20 stations, 60 zones,
  24 slots, fleet 200) at generator seed 42, solved in-process with both
  models.
* ``tiny-check``: the ``ambuplan check`` corpus over consecutive seeds, each
  instance at three ``big_m`` values, both models, brute force and the exact
  evaluator per case. Fixed per-solve cost dominates here.
* ``cli-pipeline``: subprocess chains generate -> solve 1 -> report ->
  solve 2 -> report on preset 1, where interpreter start and imports dominate.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import ambuplan
from ambuplan import SolveOutcome, SolveStatus, generate, preset, tiny_params

from reference import (BRUTE_FORCE, BUILDERS, EVALUATORS, SOLVERS, Reference,
                       check_outcome, highs_reference)
from spans import MODELS

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(ambuplan.__file__).resolve().parent.parent
DAY24_PRESET = 5
DAY24_SEED = 42                       # the instance of the first preset-5 timings
TINY_SEEDS = 400                      # consecutive corpus seeds per run
TINY_BIG_M = (None, 10**12, 10**18)   # None keeps the generator's default
CLI_PRESET = 1
CLI_CHAINS = 8                        # chains (one seed each) per round
COMMAND_TIMEOUT_S = 150


def subprocess_env() -> dict:
    """Environment for child interpreters: absolute ``src`` first on the path."""
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + rest if rest else "")
    return env


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


@dataclass
class SolveRecord:
    model: str
    seconds: float
    outcome: SolveOutcome | None
    error: str | None


@dataclass
class Pass:
    """What one timed pass produced, before its answers are checked."""

    solve_seconds: dict = field(default_factory=lambda: {m: [] for m in MODELS})
    case_seconds: list = field(default_factory=list)
    timed_seconds: float = 0.0
    peak_rss_mb: float = 0.0
    records: list = field(default_factory=list)


def _tally(answers: dict) -> tuple[int, int, list]:
    problems = [p for p in answers.values() if p is not None]
    return len(answers), len(problems), problems


@dataclass
class Verdict:
    """Checked answers, one per distinct input.

    The engine is deterministic, so an input repeated over rounds is judged
    once, and fails if any of its answers was wrong. The counts then do not
    depend on how many rounds fit in a run. ``sweep`` holds the answers to
    inputs outside the program's default settings (the ``big_m`` sweep of
    ``tiny-check``); they are reported apart and are not in ``failed``.
    """

    answers: dict = field(default_factory=dict)   # key -> first problem or None
    sweep: dict = field(default_factory=dict)

    def add(self, key, problem: str | None, sweep: bool = False) -> None:
        """Record one checked answer; an answer no reference could judge fails."""
        answers = self.sweep if sweep else self.answers
        if answers.get(key) is None:
            answers[key] = problem

    @property
    def counts(self) -> tuple[int, int, list]:
        """(attempted, failed, problems) under the program's defaults."""
        return _tally(self.answers)

    @property
    def sweep_counts(self) -> tuple[int, int, list]:
        return _tally(self.sweep)


def closed_loop(seconds: float, round_cases, tracer,
                span: str = "case") -> tuple[list, float]:
    """Run whole rounds of cases back to back until ``seconds`` have passed.

    Rounds are never cut short, so every count over a run is a whole number
    of passes over the same inputs.
    """
    case_seconds = []
    start = time.perf_counter()
    while True:
        for case in round_cases:
            t = time.perf_counter()
            with tracer.span(span):
                case()
            case_seconds.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return case_seconds, elapsed


def timed_solve(tracer, model: str, inst) -> SolveRecord:
    t = time.perf_counter()
    try:
        with tracer.span("model.solve", model):
            outcome = SOLVERS[model](inst)
        error = None
    except Exception as exc:  # a crash is a failed operation, not a stop
        outcome, error = None, f"{type(exc).__name__}: {exc}"
    return SolveRecord(model, time.perf_counter() - t, outcome, error)


def _highs(tracer, model: str, inst) -> Reference:
    lp, _ = BUILDERS[model](inst)
    with tracer.span("ref.highs", model):
        return highs_reference(lp)


# ---------------------------------------------------------------------------
# day24
# ---------------------------------------------------------------------------

class Day24:
    name = "day24"
    default_seed = DAY24_SEED

    def close(self) -> None:
        pass

    def inputs(self, seed: int, tracer):
        """The headline instance; the same for every ``seed``.

        A run has time for one preset-5 instance (about 35 s for both
        models), and allocation iterations differ by up to a third between
        generator seeds (8,793 to 12,458 over eight seeds), more than a
        run-to-run bound can absorb. The seed-varied workloads cover the
        same engine on other inputs.
        """
        with tracer.span("generator.generate"):
            return generate(preset(DAY24_PRESET), DAY24_SEED)

    def run(self, inst, seconds: float, tracer) -> Pass:
        p = Pass()

        def case():
            for model in MODELS:
                rec = timed_solve(tracer, model, inst)
                p.solve_seconds[model].append(rec.seconds)
                p.records.append(rec)

        p.case_seconds, p.timed_seconds = closed_loop(seconds, [case], tracer)
        p.peak_rss_mb = peak_rss_mb()
        return p

    def check(self, inst, passes, tracer) -> Verdict:
        verdict = Verdict()
        refs = {}
        for model in MODELS:
            try:
                refs[model] = _highs(tracer, model, inst)
            except Exception as exc:
                refs[model] = f"reference failed: {type(exc).__name__}: {exc}"
        for p in passes:
            for rec in p.records:
                ref = refs[rec.model]
                if isinstance(ref, str):
                    problem = ref
                elif rec.error:
                    problem = rec.error
                else:
                    problem = check_outcome(rec.model, inst, rec.outcome, ref)
                verdict.add(rec.model, problem and f"{rec.model}: {problem}")
        return verdict


# ---------------------------------------------------------------------------
# tiny-check
# ---------------------------------------------------------------------------

@dataclass
class TinyCase:
    seed: int
    big_m: int | None            # None: the generator's default
    inst: object


@dataclass
class TinyRecord:
    case: TinyCase
    solve: SolveRecord
    reference: Reference | None
    reference_error: str | None
    evaluation: tuple | None


class TinyCheck:
    name = "tiny-check"
    default_seed = 0

    def close(self) -> None:
        pass

    def inputs(self, seed: int, tracer) -> list[TinyCase]:
        cases = []
        for s in range(seed, seed + TINY_SEEDS):
            with tracer.span("generator.generate"):
                base = generate(tiny_params(s), s)
            for big_m in TINY_BIG_M:
                inst = base if big_m is None else dataclasses.replace(base, big_m=big_m)
                cases.append(TinyCase(s, big_m, inst))
        return cases

    def run(self, cases, seconds: float, tracer) -> Pass:
        p = Pass()

        def check_case(case: TinyCase):
            for model in MODELS:
                rec = timed_solve(tracer, model, case.inst)
                p.solve_seconds[model].append(rec.seconds)
                ref = ref_error = evaluation = None
                try:
                    with tracer.span("oracle.brute_force", model):
                        bf = BRUTE_FORCE[model](case.inst)
                    ref = Reference(bf.status, bf.objective)
                except Exception as exc:
                    ref_error = f"{type(exc).__name__}: {exc}"
                if rec.outcome is not None and rec.outcome.plan is not None:
                    try:
                        with tracer.span("core.evaluate", model):
                            evaluation = EVALUATORS[model](case.inst, rec.outcome.plan)
                    except Exception as exc:
                        rec.error = f"evaluator: {type(exc).__name__}: {exc}"
                    # the evaluation stands in for the plan, which would
                    # otherwise pile up over rounds and count in peak_rss_mb
                    rec.outcome = dataclasses.replace(rec.outcome, plan=None)
                p.records.append(TinyRecord(case, rec, ref, ref_error, evaluation))

        round_cases = [lambda c=c: check_case(c) for c in cases]
        p.case_seconds, p.timed_seconds = closed_loop(seconds, round_cases, tracer)
        p.peak_rss_mb = peak_rss_mb()
        return p

    def check(self, cases, passes, tracer) -> Verdict:
        verdict = Verdict()
        for p in passes:
            for r in p.records:
                key = (r.case.seed, r.case.big_m, r.solve.model)
                label = (f"{r.solve.model} seed {r.case.seed}"
                         f" big_m {r.case.big_m or 'default'}")
                if r.reference is None:
                    problem = f"brute force failed: {r.reference_error}"
                elif r.solve.error:
                    problem = r.solve.error
                else:
                    problem = check_outcome(r.solve.model, r.case.inst,
                                            r.solve.outcome, r.reference,
                                            evaluation=r.evaluation)
                verdict.add(key, problem and f"{label}: {problem}",
                            sweep=r.case.big_m is not None)
        return verdict


# ---------------------------------------------------------------------------
# cli-pipeline
# ---------------------------------------------------------------------------

_SOLVE_LINE = re.compile(r"status=(\S+) objective=(\S+) ")
_CHAIN_MODELS = {1: "alloc", 3: "transfer"}   # step index -> model solved


def chain_steps(seed: int, d: Path) -> list[tuple[str, list[str]]]:
    inst = str(d / "instance.json")
    steps = [("generate", ["generate", "--preset", str(CLI_PRESET), "--seed",
                           str(seed), "--out", inst])]
    for k in (1, 2):
        plan = str(d / f"plan{k}.json")
        steps.append(("solve", ["solve", "--instance", inst, "--model", str(k),
                                "--out", plan]))
        steps.append(("report", ["report", "--instance", inst, "--plan", plan,
                                 "--out", str(d / f"report{k}.txt")]))
    return steps


def run_subprocess(argv: list[str], env: dict) -> tuple[int | None, str, str]:
    try:
        done = subprocess.run([sys.executable, "-m", "ambuplan", *argv],
                              capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        return None, "", f"timed out after {exc.timeout} s"
    return done.returncode, done.stdout, done.stderr


def run_in_process(argv: list[str]) -> tuple[int | None, str, str]:
    from ambuplan.cli import entry
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = entry(argv)
    except Exception as exc:  # an escaped engine error is a failed chain
        return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


@dataclass
class CliInput:
    seed: int
    inst: object
    refs: dict          # model -> HiGHS Reference


@dataclass
class ChainRecord:
    chain: CliInput
    directory: Path
    steps: list = field(default_factory=list)   # (kind, code, stdout, stderr)


class CliPipeline:
    name = "cli-pipeline"
    default_seed = 42

    def __init__(self):
        self.workdir = ROOT / ".perfbench_work" / f"cli-{os.getpid()}"

    def inputs(self, seed: int, tracer, chain_seeds=None) -> list[CliInput]:
        """The first CLI_CHAINS seeds from ``seed`` whose instance both models
        can plan, as HiGHS decides.

        About a quarter of preset-1 instances cannot cover demand under the
        allocation model; ``solve`` then exits 3 and leaves nothing to
        report, which would make the chain a different pipeline.

        Given ``chain_seeds``, the seeds already chosen, only their instances
        are generated, without HiGHS references. The set-up probe does this,
        so that ``setup_s`` does not time the benchmark's own reference work.
        """
        import ambuplan.cli  # noqa: F401  the in-process entry point
        self.workdir.mkdir(parents=True, exist_ok=True)
        if chain_seeds is not None:
            return [CliInput(s, self._generate(s, tracer), {}) for s in chain_seeds]
        chosen = []
        s = seed
        while len(chosen) < CLI_CHAINS:
            inst = self._generate(s, tracer)
            refs = {m: _highs(tracer, m, inst) for m in MODELS}
            if all(r.status is SolveStatus.OPTIMAL for r in refs.values()):
                chosen.append(CliInput(s, inst, refs))
            s += 1
        return chosen

    @staticmethod
    def _generate(seed: int, tracer):
        with tracer.span("generator.generate"):
            return generate(preset(CLI_PRESET), seed)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def run(self, chains, seconds: float, tracer, in_process: bool = False) -> Pass:
        p = Pass()
        env = subprocess_env()
        pass_dir = Path(tempfile.mkdtemp(dir=self.workdir))

        def chain(c: CliInput):
            d = pass_dir / f"{len(p.records)}-{c.seed}"
            d.mkdir()
            rec = ChainRecord(c, d)
            p.records.append(rec)
            for k, (kind, argv) in enumerate(chain_steps(c.seed, d)):
                t = time.perf_counter()
                if in_process:
                    code, out, err = run_in_process(argv)
                else:
                    with tracer.span(f"cli.cmd.{kind}"):
                        code, out, err = run_subprocess(argv, env)
                rec.steps.append((kind, code, out, err))
                if code != 0:
                    return
                if k in _CHAIN_MODELS:
                    # what a CLI user waits for: the whole solve command
                    p.solve_seconds[_CHAIN_MODELS[k]].append(time.perf_counter() - t)

        round_cases = [lambda c=c: chain(c) for c in chains]
        # subprocess chains hold no in-process layer spans, so they are not
        # "case" spans, whose per-case layer totals would otherwise read 0
        p.case_seconds, p.timed_seconds = closed_loop(
            seconds, round_cases, tracer, "case" if in_process else "chain")
        p.peak_rss_mb = peak_rss_mb(resource.RUSAGE_CHILDREN)
        return p

    def startup_probe(self, tracer, repeats: int) -> None:
        env = subprocess_env()
        for _ in range(repeats):
            with tracer.span("cli.startup"):
                subprocess.run([sys.executable, "-c", "import ambuplan.cli"],
                               check=True, env=env, cwd=ROOT,
                               timeout=COMMAND_TIMEOUT_S)

    def check(self, chains, passes, tracer) -> Verdict:
        verdict = Verdict()
        for p in passes:
            for rec in p.records:
                try:
                    problem = self._check_chain(rec)
                except Exception as exc:  # unreadable output files
                    problem = f"chain seed {rec.chain.seed}: {type(exc).__name__}: {exc}"
                verdict.add(rec.chain.seed, problem)
        return verdict

    def _check_chain(self, rec: ChainRecord) -> str | None:
        from ambuplan.cli import load_instance, plan_from_mapping

        c = rec.chain
        label = f"chain seed {c.seed}"
        for kind, code, _, err in rec.steps:
            if code != 0:
                return f"{label}: {kind} exited {code}: {err.strip()[-300:]}"
        if len(rec.steps) != 5:
            return f"{label}: chain stopped after {len(rec.steps)} steps"
        inst = load_instance(str(rec.directory / "instance.json"))
        if inst != c.inst:
            return f"{label}: instance file differs from generate()"
        for k, model in ((1, "alloc"), (2, "transfer")):
            data = json.loads((rec.directory / f"plan{k}.json").read_text())
            _, status, plan = plan_from_mapping(data)
            outcome = SolveOutcome(SolveStatus(status), data["objective"], plan)
            problem = check_outcome(model, inst, outcome, c.refs[model])
            if problem:
                return f"{label}: {model}: {problem}"
            printed = _SOLVE_LINE.search(rec.steps[2 * k - 1][2])
            if printed is None or printed.group(1) != status \
                    or printed.group(2) != str(data["objective"]):
                return f"{label}: {model}: solve output disagrees with its plan file"
            report = (rec.directory / f"report{k}.txt").read_text().splitlines()
            if len(report) != inst.num_slots + 1:
                return f"{label}: report{k} has {len(report)} lines"
        return None


WORKLOADS = {w.name: w for w in (Day24, TinyCheck, CliPipeline)}
