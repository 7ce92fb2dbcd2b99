"""Training half of a run: pipeline → CKG → CKAT (epoch attention) → eval.

Everything is driven through the public API.  The untraced path adds no
instrumentation: epoch wall times come from the engine's own JSONL run log.
The traced path times the same public calls from outside — pipeline stages,
``build_model``, a :class:`TracingExecutor` that runs
:class:`~repro.train.engine.SerialExecutor`'s own epoch with timers around
the calls it makes, and the op profiler of :mod:`repro.analysis.profiler`.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Dict, List

from repro.analysis.profiler import profiled
from repro.eval import RankingEvaluator
from repro.experiments.datasets import BenchmarkDataset
from repro.experiments.runner import build_model, default_fit_config
from repro.pipeline import DatasetPipeline
from repro.serving import ScoreIndex
from repro.train.engine import SerialExecutor
from repro.utils.telemetry import RunLogger, read_run_log

from workloads import EVAL_REPEATS, K

#: Ops whose per-epoch calls and forward/backward seconds the traced run
#: reports.
TRACED_OPS = (
    "spmm",
    "take_rows",
    "concat",
    "matmul",
    "leaky_relu",
    "l2_normalize",
    "dropout",
    "mul",
    "add",
    "transr_energy",
    "edge_attention_scores",
    "optimizer.step",
)
#: Ops with no backward time to report: epoch-mode attention is computed
#: under ``no_grad`` in ``on_epoch_end``, and an optimizer step is not taped.
NO_BACKWARD = ("edge_attention_scores", "optimizer.step")

#: Per-epoch phases timed by :class:`TracingExecutor`, in call order.
PHASES = (
    "train.transr_phase_s",
    "data.sample_s",
    "models.forward_s",
    "autograd.backward_s",
    "autograd.optim_s",
    "train.attention_refresh_s",
)


class SetUp:
    """One cold set-up: pipeline stages, model build, and a freeze of the
    model at its seeded initialisation (the index the server serves;
    serving cost does not depend on training)."""

    def __init__(self, dataset: str, dataset_seed: int, model_seed: int):
        clock = time.perf_counter
        t0 = clock()
        pipeline = DatasetPipeline(dataset, scale="full", seed=dataset_seed, cache_dir=None)
        pipeline.trace()
        t1 = clock()
        self.split = pipeline.split()
        t2 = clock()
        self.ckg = pipeline.ckg()
        t3 = clock()
        graph = pipeline.graph()
        t4 = clock()
        self.model = build_model(
            "CKAT", BenchmarkDataset(pipeline), self.ckg, seed=model_seed, graph=graph
        )
        t5 = clock()
        self.index = ScoreIndex.from_model(self.model, self.split.train)
        t6 = clock()
        self.stages = {
            "pipeline.trace_s": t1 - t0,
            "pipeline.split_s": t2 - t1,
            "pipeline.ckg_s": t3 - t2,
            "pipeline.graph_s": t4 - t3,
            "models.build_s": t5 - t4,
            "serving.freeze_s": t6 - t5,
        }
        self.seconds = t6 - t0


def set_up(dataset: str, dataset_seed: int, model_seed: int, repeats: int):
    """Set up ``repeats`` times from cold.

    Returns the last set-up and the ``(seconds, stages)`` of every one;
    earlier set-ups are released before the next starts, so peak RSS
    reflects one set-up, as in a real run.
    """
    timings = []
    for _ in range(repeats):
        setup = None
        gc.collect()
        setup = SetUp(dataset, dataset_seed, model_seed)
        timings.append((setup.seconds, setup.stages))
    return setup, timings


class TracingExecutor(SerialExecutor):
    """``SerialExecutor`` with timers around the calls its epoch makes.

    ``run_epoch`` is the parent's own, so training is bit-identical to an
    untraced run (checked by the benchmark).  ``bind`` installs the timers
    as instance attributes on the model, the optimizer and the sampler, and
    ``close`` removes them:

    - ``extra_epoch_step`` is the TransR phase; every ``optimizer.step``
      made inside it is a TransR step;
    - each ``next`` on ``epoch_batches`` is sampling;
    - ``batch_loss`` is the forward pass;
    - the gap from ``batch_loss`` returning to the BPR ``optimizer.step``
      starting is ``loss.backward`` (``zero_grad`` runs before
      ``batch_loss``);
    - ``on_epoch_end``, which the engine calls after each epoch, is the
      attention refresh.
    """

    def __init__(self, profile):
        super().__init__()
        self.epochs: List[Dict[str, float]] = []
        self._profile = profile
        self._installed: List[tuple] = []
        # Op counters at the start of each epoch and after its on_epoch_end,
        # so evaluations between epochs stay out of the per-epoch op numbers.
        self.op_starts: List[Dict[str, tuple]] = []
        self.op_ends: List[Dict[str, tuple]] = []

    def _ops(self) -> Dict[str, tuple]:
        return {
            name: (s.calls, s.forward_seconds, s.backward_seconds)
            for name, s in self._profile.stats.items()
        }

    def _install(self, obj, name: str, wrap) -> None:
        setattr(obj, name, wrap(getattr(obj, name)))
        self._installed.append((obj, name))

    def bind(self, model, train, config, sampler, optimizer) -> None:
        super().bind(model, train, config, sampler, optimizer)
        clock = time.perf_counter
        state = {"in_transr": False, "forward_end": 0.0}

        def add(phase: str, seconds: float) -> None:
            self.epochs[-1][phase] += seconds

        def timed_extra_epoch_step(call):
            def wrapper(*args, **kwargs):
                state["in_transr"] = True
                t0 = clock()
                try:
                    return call(*args, **kwargs)
                finally:
                    add("train.transr_phase_s", clock() - t0)
                    state["in_transr"] = False

            return wrapper

        def timed_step(call):
            def wrapper(*args, **kwargs):
                if state["in_transr"]:
                    self.epochs[-1]["train.kg_steps"] += 1
                    return call(*args, **kwargs)
                t0 = clock()
                add("autograd.backward_s", t0 - state["forward_end"])
                try:
                    return call(*args, **kwargs)
                finally:
                    add("autograd.optim_s", clock() - t0)
                    self.epochs[-1]["train.batches"] += 1

            return wrapper

        def timed_batch_loss(call):
            def wrapper(*args, **kwargs):
                t0 = clock()
                try:
                    return call(*args, **kwargs)
                finally:
                    state["forward_end"] = clock()
                    add("models.forward_s", state["forward_end"] - t0)

            return wrapper

        def timed_epoch_batches(call):
            def wrapper(*args, **kwargs):
                batches = iter(call(*args, **kwargs))
                while True:
                    t0 = clock()
                    try:
                        batch = next(batches)
                    except StopIteration:
                        return
                    finally:
                        add("data.sample_s", clock() - t0)
                    yield batch

            return wrapper

        def timed_on_epoch_end(call):
            def wrapper(*args, **kwargs):
                t0 = clock()
                try:
                    return call(*args, **kwargs)
                finally:
                    add("train.attention_refresh_s", clock() - t0)
                    self.op_ends.append(self._ops())

            return wrapper

        self._install(model, "extra_epoch_step", timed_extra_epoch_step)
        self._install(model, "batch_loss", timed_batch_loss)
        self._install(model, "on_epoch_end", timed_on_epoch_end)
        self._install(optimizer, "step", timed_step)
        self._install(sampler, "epoch_batches", timed_epoch_batches)

    def run_epoch(self, epoch, optimizer, rng):
        self.op_starts.append(self._ops())
        self.epochs.append(dict.fromkeys(PHASES + ("train.batches", "train.kg_steps"), 0.0))
        return super().run_epoch(epoch, optimizer, rng)

    def close(self) -> None:
        for obj, name in reversed(self._installed):
            delattr(obj, name)
        self._installed.clear()
        super().close()


class EvalTimer:
    """Evaluation callback for ``fit``: times ``EVAL_REPEATS`` full-ranking evals.

    Run after every epoch (``eval_every=1``), so eval timings are spread
    over the whole training window rather than taken in one burst; ranking
    cost does not depend on the weights.  Traced, it times the two halves
    of ``RankingEvaluator.evaluate_model`` separately: one inference
    propagation (``scoring_factors``), then masked top-k and metric
    accumulation (``evaluate_factors``).
    """

    def __init__(self, setup: SetUp, traced: bool):
        self.model = setup.model
        self.evaluator = RankingEvaluator(setup.split.train, setup.split.test, k=K)
        self.traced = traced
        self.seconds: List[float] = []
        self.factors_s: List[float] = []
        self.rank_s: List[float] = []
        self.stable = True
        self.result = None

    def __call__(self) -> dict:
        clock = time.perf_counter
        results = []
        for _ in range(EVAL_REPEATS):
            t0 = clock()
            if self.traced:
                users, items = self.model.scoring_factors()
                t1 = clock()
                results.append(self.evaluator.evaluate_factors(users, items))
                self.factors_s.append(t1 - t0)
                self.rank_s.append(clock() - t1)
            else:
                results.append(self.evaluator.evaluate_model(self.model))
            self.seconds.append(clock() - t0)
        first = results[0]
        self.stable &= all((r.recall, r.ndcg) == (first.recall, first.ndcg) for r in results)
        self.result = first
        return first.as_dict()


def train(setup: SetUp, epochs: int, model_seed: int, log_path, evals: EvalTimer,
          between_epochs, executor=None):
    """Train the set-up's model, evaluating after every epoch.

    ``between_epochs`` (a serving round) runs after each evaluation.
    Returns the fit result and the engine's own per-epoch wall times, read
    back from its JSONL run log (logged before the epoch's evaluation).
    """
    config = default_fit_config("CKAT", epochs=epochs, seed=model_seed)
    config.eval_every = 1

    def after_epoch() -> dict:
        metrics = evals()
        between_epochs()
        return metrics

    logger = RunLogger(log_path)
    try:
        fit = setup.model.fit(
            setup.split.train, config, eval_callback=after_epoch, logger=logger,
            executor=executor,
        )
    finally:
        logger.close()
    seconds = [e["seconds"] for e in read_run_log(log_path) if e["event"] == "epoch"]
    return fit, seconds


def train_traced(setup: SetUp, epochs: int, model_seed: int, log_path, evals: EvalTimer,
                 between_epochs):
    """Train under the tracing executor and the op profiler."""
    with profiled() as report:
        executor = TracingExecutor(report)
        fit, seconds = train(
            setup, epochs, model_seed, log_path, evals, between_epochs, executor=executor
        )
    return fit, seconds, executor


def per_epoch_ops(executor: TracingExecutor, first: int) -> Dict[str, Dict[str, float]]:
    """Mean per-epoch op counters over epochs ``first..``."""
    spans = list(zip(executor.op_starts, executor.op_ends))[first:]
    totals: Dict[str, List[float]] = {}
    for start, end in spans:
        for name, values in end.items():
            before = start.get(name, (0, 0.0, 0.0))
            total = totals.setdefault(name, [0.0, 0.0, 0.0])
            for i in range(3):
                total[i] += values[i] - before[i]
    return {
        name: {"calls": c / len(spans), "fwd_s": f / len(spans), "bwd_s": b / len(spans)}
        for name, (c, f, b) in totals.items()
    }


def median(values) -> float:
    return float(statistics.median(values))


def mean(values) -> float:
    return float(statistics.fmean(values))
