"""The repository's benchmark: the paper's path end to end, and per layer.

One run = one workload (see ``workloads.py``) at one seed:

    dataset pipeline → CKG → CKAT build → freeze into a ScoreIndex, served
    over HTTP by a separate process; then CKAT training (epoch attention),
    with a full-ranking eval and a serving round (closed, then open loop)
    after every epoch

    python3 perfbench/run.py --workload ooi_ckat --seed 3 --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` is the separate traced run: it first makes the untraced run
as a reference, then times every layer from outside (pipeline
stages, training phases, autograd ops, eval halves, service calls), checks
that traced losses and recall are bit-identical to the reference, and
writes ``perfbench/reports/<workload>.md``.  Both print one human-readable
line per metric, then, as the last line, the JSON result
``{"correct", "attempted", "failed", "metrics"}``.  The full record, stamped
with the environment, goes to ``perfbench/out/``.

``--seconds`` is the total length of the serving rounds.  Training runs the
workload's fixed number of epochs, because recall and ndcg are read after a
fixed number of epochs.

The run is hermetic: ambient ``REPRO_*`` variables are removed (a warm
``REPRO_CACHE_DIR`` would turn set-up into a memory-map load, and
``REPRO_KERNELS`` switches kernel backends), and BLAS runs one thread.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import shutil
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "setup_s": "s",
    "epoch_s": "s",
    "eval_s": "s",
    "recall_at_20": "ratio",
    "ndcg_at_20": "ratio",
    "peak_rss_mb": "MB",
    "server_rss_mb": "MB",
    "serve_rps": "req/s",
    "recommend_p50_ms": "ms",
    "foldin_p50_ms": "ms",
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", ".coverage")):
        return "ratio"
    return "count"


def hermetic_env() -> list:
    """Drop ``REPRO_*`` variables and pin BLAS threads; call before numpy loads."""
    ignored = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in ignored:
        del os.environ[key]
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ["PYTHONPATH"] = str(ROOT / "src")
    return ignored


def stamp(seed: int, ignored: list) -> dict:
    import numpy

    from repro.kernels import dispatch

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "kernel_backend": dispatch.get_backend(),
        "seed": seed,
        "ignored_env": ignored,
    }


def peak_rss_mb() -> float:
    """This process's peak resident set in MB.

    Read from ``VmHWM``, which starts afresh at ``exec``; ``ru_maxrss`` of a
    child process would include the RSS of the parent it was forked from.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


class Ledger:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def check(self, ok: bool, what: str, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            self.reasons.append(what)


def _epoch_checks(ledger: Ledger, fit) -> None:
    for i, (loss, extra) in enumerate(zip(fit.losses, fit.extra_losses)):
        ledger.check(math.isfinite(loss) and math.isfinite(extra),
                     f"epoch {i + 1}: non-finite loss")


def _serving_checks(ledger: Ledger, srv: dict) -> None:
    for phase in ("warmup", "closed", "open"):
        tally = srv[phase]
        ledger.attempted += tally.requests
        ledger.failed += tally.failed
    if srv["errors"]:
        ledger.reasons.extend(srv["errors"])
    ledger.check(srv["mismatches"] == 0, f"{srv['mismatches']} captured responses differ "
                 "from a fresh in-process service", count=max(srv["captured"], 1))


def run_untraced(wl, seed, seconds, work, ledger):
    import cell
    import serve
    from workloads import DATASET_SEED, MODEL_SEED, Traffic

    setup, setups = cell.set_up(wl.dataset, DATASET_SEED, MODEL_SEED, wl.setup_repeats)
    ledger.attempted += len(setups)
    evals = cell.EvalTimer(setup, traced=False)
    traffic = Traffic(seed, setup.index.num_users, setup.index.num_items)
    work.mkdir(parents=True, exist_ok=True)
    with serve.Serving(setup.index, traffic, work, trace=False) as serving:
        fit, epoch_seconds = cell.train(
            setup, wl.epochs, MODEL_SEED, work / "train.jsonl", evals,
            lambda: serving.round(seconds / wl.epochs),
        )
        rss = peak_rss_mb()
    srv = serving.results
    _epoch_checks(ledger, fit)
    ledger.check(evals.stable, "evaluation repeats disagree", count=len(evals.seconds))
    result = evals.result
    _serving_checks(ledger, srv)
    closed, opened = srv["closed"], srv["open"]
    metrics = {
        "setup_s": cell.median([seconds for seconds, _ in setups]),
        "epoch_s": cell.median(epoch_seconds[1:]),
        "eval_s": cell.median(evals.seconds),
        "recall_at_20": result.recall,
        "ndcg_at_20": result.ndcg,
        "peak_rss_mb": rss,
        "server_rss_mb": srv["server_rss_mb"],
        "serve_rps": (closed.requests - closed.failed) / closed.wall,
        "recommend_p50_ms": serve.percentile_ms(opened.recommend, 50),
        "foldin_p50_ms": serve.percentile_ms(opened.foldin, 50),
    }
    samples = {
        "setup_s": len(setups),
        "epoch_s": len(epoch_seconds) - 1,
        "eval_s": len(evals.seconds),
        "serve_rps": closed.requests,
        "recommend_p50_ms": len(opened.recommend),
        "foldin_p50_ms": len(opened.foldin),
    }
    detail = {
        "epoch_seconds": epoch_seconds,
        "losses": fit.losses,
        "extra_losses": fit.extra_losses,
        "eval_users": result.num_users,
        "graph": {
            "users": setup.split.train.num_users,
            "items": setup.split.train.num_items,
            "train_interactions": len(setup.split.train),
            "entities": setup.ckg.num_entities,
            "triples": len(setup.ckg.propagation_store),
        },
        "captured_checked": srv["captured"],
        # Too unsteady on the reference box to bound (see README.md).
        "recommend_p99_ms": serve.percentile_ms(opened.recommend, 99),
    }
    return metrics, samples, detail


def run_traced(wl, seed, seconds, work, ledger):
    import cell
    import serve
    from workloads import DATASET_SEED, MODEL_SEED, Traffic

    # The untraced run with the same seed is the reference: its losses and
    # recall must be matched bit for bit, and its epoch_s, measured with
    # the same evaluations and serving rounds between epochs, is the
    # denominator of the tracing overhead.
    ref, _, ref_detail = run_untraced(wl, seed, seconds, work / "ref", ledger)

    setup, setups = cell.set_up(wl.dataset, DATASET_SEED, MODEL_SEED, wl.setup_repeats)
    ledger.attempted += len(setups)
    evals = cell.EvalTimer(setup, traced=True)
    traffic = Traffic(seed, setup.index.num_users, setup.index.num_items)
    with serve.Serving(setup.index, traffic, work, trace=True) as serving:
        fit, epoch_seconds, executor = cell.train_traced(
            setup, wl.epochs, MODEL_SEED, work / "traced.jsonl", evals,
            lambda: serving.round(seconds / wl.epochs),
        )
    srv = serving.results
    _epoch_checks(ledger, fit)
    ledger.check(
        (fit.losses, fit.extra_losses) == (ref_detail["losses"], ref_detail["extra_losses"]),
        "traced losses differ from the untraced run",
        count=wl.epochs,
    )
    ledger.check(evals.stable, "evaluation repeats disagree", count=len(evals.seconds))
    ledger.check(
        (evals.result.recall, evals.result.ndcg) == (ref["recall_at_20"], ref["ndcg_at_20"]),
        "traced recall/ndcg differ from the untraced run",
    )
    _serving_checks(ledger, srv)

    metrics = {}
    for stage in setups[0][1]:
        metrics[stage] = cell.median([stages[stage] for _, stages in setups])
    timed = executor.epochs[1:]
    wall = cell.mean(epoch_seconds[1:])
    for phase in cell.PHASES:
        metrics[phase] = cell.mean([e[phase] for e in timed])
    metrics["train.other_s"] = wall - sum(metrics[p] for p in cell.PHASES)
    metrics["train.epoch_s"] = wall
    metrics["train.batches"] = cell.mean([e["train.batches"] for e in timed])
    metrics["train.kg_steps"] = cell.mean([e["train.kg_steps"] for e in timed])
    ops = cell.per_epoch_ops(executor, first=1)
    for name in cell.TRACED_OPS:
        stat = ops.get(name, {"calls": 0.0, "fwd_s": 0.0, "bwd_s": 0.0})
        metrics[f"op.{name}.calls"] = stat["calls"]
        metrics[f"op.{name}.fwd_s"] = stat["fwd_s"]
        if name not in cell.NO_BACKWARD:
            metrics[f"op.{name}.bwd_s"] = stat["bwd_s"]
    metrics["op.coverage"] = sum(s["fwd_s"] + s["bwd_s"] for s in ops.values()) / wall
    metrics["eval.factors_s"] = cell.median(evals.factors_s)
    metrics["eval.rank_s"] = cell.median(evals.rank_s)
    metrics["eval.users"] = evals.result.num_users
    metrics.update(serving_layers(srv))
    metrics["trace.overhead_ratio"] = cell.median(epoch_seconds[1:]) / ref["epoch_s"]
    detail = {
        "epoch_seconds": epoch_seconds,
        "untraced_epoch_seconds": ref_detail["epoch_seconds"],
        "untraced_metrics": ref,
        "ops": ops,
        "captured_checked": srv["captured"],
    }
    return metrics, {}, detail


def serving_layers(srv: dict) -> dict:
    """Per-layer serving numbers from the traced server's ``/stats``."""
    import numpy as np

    from cell import median

    before, after = srv["stats_before"], srv["stats_after"]
    # Calls made before the measured phases (warm-up) are left out.
    rec = after["timing"]["recommend_many_s"][len(before["timing"]["recommend_many_s"]):]
    fold = after["timing"]["foldin_s"][len(before["timing"]["foldin_s"]):]
    served = after["requests_served"] - before["requests_served"]
    batches = after["batches"] - before["batches"]
    hits = after["user_cache"]["hits"] - before["user_cache"]["hits"]
    misses = after["user_cache"]["misses"] - before["user_cache"]["misses"]
    opened = srv["open"]
    return {
        "serving.recommend_many_s": median(rec),
        "serving.batch_size_mean": served / batches,
        "serving.foldin_s": median(fold),
        "serving.http_s": median(opened.recommend) - median(rec),
        "serving.user_cache_hit_ratio": hits / (hits + misses),
        "serving.kernel_calls_per_request": (after["kernel_calls"] - before["kernel_calls"])
        / served,
        "serving.generator_lag_ms": float(np.percentile(opened.lag, 99) * 1e3),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    ignored = hermetic_env()
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    work = HERE / ".work" / f"{wl.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    ledger = Ledger()
    try:
        runner = run_traced if args.trace else run_untraced
        metrics, samples, detail = runner(wl, args.seed, args.seconds, work, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env = stamp(args.seed, ignored)
    units = {name: layer_unit(name) for name in metrics} if args.trace else END_TO_END
    record = {
        "workload": wl.name,
        "why": wl.why,
        "trace": args.trace,
        "env": env,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.reasons[:20],
        "metrics": metrics,
        "samples": samples,
        "detail": detail,
    }
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    if args.trace:
        import report

        report.write(HERE / "reports" / f"{wl.name}.md", record, units)
    print(f"# {wl.name} seed={args.seed} trace={args.trace} " + json.dumps(env))
    for name, value in metrics.items():
        n = f" (n={samples[name]})" if name in samples else ""
        print(f"{name:36s} {value:.6g} {units[name]}{n}")
    for reason in ledger.reasons[:20]:
        print(f"FAILED: {reason}")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
