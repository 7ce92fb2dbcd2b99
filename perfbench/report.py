"""Render a traced run's record as the per-workload Markdown report."""

from __future__ import annotations

import pathlib

from cell import NO_BACKWARD, PHASES, TRACED_OPS


def write(path: pathlib.Path, record: dict, units: dict) -> None:
    m = record["metrics"]
    env = record["env"]
    wall = m["train.epoch_s"]
    lines = [
        f"# Traced run: `{record['workload']}` (seed {env['seed']})",
        "",
        f"Why this workload: {record['why']}.",
        "",
        f"Environment: {env['nproc']} cores, {env['blas']} with {env['blas_threads']} "
        f"thread(s), NumPy {env['numpy']}, Python {env['python']}, kernel backend "
        f"`{env['kernel_backend']}`.  Operations: {record['attempted']} attempted, "
        f"{record['failed']} failed.",
        "",
        "## Where the time went (one epoch, mean of all but the first)",
        "",
        "Layer self times plus `train.other_s` sum to the traced epoch wall time.",
        "",
        "| layer | seconds | share |",
        "| --- | ---: | ---: |",
    ]
    for name in PHASES + ("train.other_s",):
        lines.append(f"| `{name}` | {m[name]:.4f} | {100 * m[name] / wall:.1f}% |")
    lines += [
        f"| **epoch wall** | **{wall:.4f}** | 100% |",
        "",
        f"{m['train.batches']:.0f} BPR batches and {m['train.kg_steps']:.0f} TransR steps "
        "per epoch.",
        "",
        "## Autograd and kernel ops (per epoch)",
        "",
        "| op | calls | forward s | backward s | share of epoch |",
        "| --- | ---: | ---: | ---: | ---: |",
    ]
    for name in TRACED_OPS:
        calls, fwd = m[f"op.{name}.calls"], m[f"op.{name}.fwd_s"]
        bwd = m.get(f"op.{name}.bwd_s", 0.0)
        bwd_text = "—" if name in NO_BACKWARD else f"{bwd:.4f}"
        lines.append(
            f"| `{name}` | {calls:.0f} | {fwd:.4f} | {bwd_text} | {100 * (fwd + bwd) / wall:.1f}% |"
        )
    lines += [
        "",
        f"`op.coverage` (all instrumented op time over epoch wall time): "
        f"{100 * m['op.coverage']:.1f}%.",
        "",
        "## Tracing overhead",
        "",
        "Traced `epoch_s` over the `epoch_s` of the untraced reference run made "
        "just before it with the same seed, the same evaluations and the same "
        f"serving rounds between epochs: **{m['trace.overhead_ratio']:.3f}**. "
        "Both come from one run each on a box whose speed drifts, so read "
        "this as a rough figure.",
        "",
        "## Every per-layer metric",
        "",
        "| metric | value | unit |",
        "| --- | ---: | --- |",
    ]
    for name, value in m.items():
        lines.append(f"| `{name}` | {value:.6g} | {units[name]} |")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
