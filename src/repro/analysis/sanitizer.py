"""Runtime numeric sanitizer for the autograd engine.

Static analysis (:mod:`repro.analysis.lint`) catches structural hazards; this
module catches the *numeric* ones that only exist at run time: NaN/Inf values
appearing mid-computation, gradients whose shape has drifted from their
parameter, and silent float64 upcasts leaking into the float32 evaluation
fast path.  When enabled it instruments the engine at four choke points —

- every public op in :mod:`repro.autograd.functional` and every fused Tensor
  op in :mod:`repro.kernels.dispatch` (outputs are checked for non-finite
  values and for all-float32 inputs producing float64);
- :class:`~repro.autograd.tensor.Tensor` construction (data checked unless
  the tensor is being built inside an instrumented op, which already names
  the op);
- :meth:`~repro.autograd.tensor.Tensor.accumulate_grad` (incoming gradients
  checked before they are folded into the buffer);
- :meth:`~repro.autograd.optim.Optimizer.step` (gradient/parameter shape
  agreement and finiteness before the update, parameter finiteness after).

Every violation raises :class:`SanitizerError` carrying the *innermost*
offending op name, so a NaN born in ``log`` is reported as ``log`` even when
it surfaces inside ``bpr_loss``.

Enable with the ``REPRO_SANITIZE=1`` environment variable (checked at
``import repro`` time), the :func:`sanitized` context manager, or explicit
:func:`enable`/:func:`disable` calls.  The sanitizer is one client of
:mod:`repro.analysis.instrument`, the engine's single install point: it
composes with the profiler in any attach/detach order, and once disabled its
wrappers are gone from the call path, so a disabled sanitizer costs nothing.
"""

from __future__ import annotations

import contextlib
import functools
import os
from typing import Callable, Iterator, List

import numpy as np

from repro.analysis import instrument
from repro.autograd.sparse import SparseRowGrad
from repro.autograd.tensor import Tensor

__all__ = [
    "ENV_VAR",
    "SanitizerError",
    "enable",
    "disable",
    "is_enabled",
    "sanitized",
    "install_from_env",
]

ENV_VAR = "REPRO_SANITIZE"


class SanitizerError(RuntimeError):
    """A numeric invariant was violated during an instrumented operation.

    Attributes
    ----------
    op:
        Name of the innermost instrumented operation (e.g. ``"log"``,
        ``"step[fm.v]"``, ``"accumulate_grad[ckat.W0]"``).
    kind:
        One of ``"nan"``, ``"inf"``, ``"upcast"``, ``"shape"``.
    """

    def __init__(self, message: str, op: str, kind: str):
        super().__init__(message)
        self.op = op
        self.kind = kind


# ------------------------------------------------------------------- checks

def _check_finite(arr: np.ndarray, op: str, what: str) -> None:
    """Raise :class:`SanitizerError` if a float array holds NaN or Inf."""
    if not np.issubdtype(arr.dtype, np.floating):
        return
    if np.isfinite(arr).all():
        return
    kind = "nan" if np.isnan(arr).any() else "inf"
    raise SanitizerError(
        f"{kind.upper()} detected in {what} of '{op}'", op=op, kind=kind
    )


def _tensor_args(args, kwargs) -> List[Tensor]:
    """Collect Tensor operands from an op call (one level into sequences)."""
    found: List[Tensor] = []

    def visit(value) -> None:
        if isinstance(value, Tensor):
            found.append(value)
        elif isinstance(value, (list, tuple)):
            for item in value:
                if isinstance(item, Tensor):
                    found.append(item)

    for a in args:
        visit(a)
    for v in kwargs.values():
        visit(v)
    return found


# ----------------------------------------------------------------- wrappers
def _wrap_op(name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        out = fn(*args, **kwargs)
        if isinstance(out, Tensor):
            _check_finite(out.data, name, "output")
            ins = _tensor_args(args, kwargs)
            if (
                ins
                and out.data.dtype == np.float64
                and all(t.data.dtype == np.float32 for t in ins)
            ):
                raise SanitizerError(
                    f"silent float64 upcast in '{name}': every tensor input is "
                    "float32 but the output is float64",
                    op=name,
                    kind="upcast",
                )
        return out

    return wrapped


def _sanitized_tensor_init(original: Callable) -> Callable:
    # Quiet inside an instrumented op: the op wrapper performs the same check
    # on the finished output and, unlike the constructor, knows the op name.
    @functools.wraps(original)
    def wrapped(self, data, requires_grad=False, _parents=(), _backward=None, name=""):
        original(self, data, requires_grad, _parents, _backward, name)
        if instrument.op_depth() == 0:
            label = name or f"Tensor{self.data.shape}"
            _check_finite(self.data, label, "data")

    return wrapped


def _sanitized_accumulate_grad(original: Callable) -> Callable:
    @functools.wraps(original)
    def wrapped(self, grad, owned=False):
        label = self.name or f"tensor{self.data.shape}"
        if isinstance(grad, SparseRowGrad):
            # Check the stored row values directly — np.asarray would
            # densify, defeating the sparse path's whole point.
            _check_finite(grad.values, f"accumulate_grad[{label}]", "sparse gradient")
        else:
            _check_finite(np.asarray(grad), f"accumulate_grad[{label}]", "gradient")
        original(self, grad, owned)

    return wrapped


def _sanitized_step(original: Callable) -> Callable:
    @functools.wraps(original)
    def wrapped(self):
        for p in self.params:
            if p.grad is None:
                continue
            label = p.name or f"param{p.data.shape}"
            if p.grad.shape != p.data.shape:
                raise SanitizerError(
                    f"gradient shape {p.grad.shape} does not match parameter "
                    f"shape {p.data.shape} in 'step[{label}]'",
                    op=f"step[{label}]",
                    kind="shape",
                )
            garr = p.grad.values if isinstance(p.grad, SparseRowGrad) else p.grad
            _check_finite(garr, f"step[{label}]", "gradient")
        original(self)
        for p in self.params:
            if p.grad is not None:
                label = p.name or f"param{p.data.shape}"
                _check_finite(p.data, f"step[{label}]", "updated parameter")

    return wrapped


class _Sanitizer:
    """The sanitizer's :mod:`~repro.analysis.instrument` client."""

    def wrap(self, kind: str, name: str, fn: Callable) -> Callable:
        if kind == "op":
            return _wrap_op(name, fn)
        if kind == "init":
            return _sanitized_tensor_init(fn)
        if kind == "accumulate_grad":
            return _sanitized_accumulate_grad(fn)
        return _sanitized_step(fn)


_CLIENT = _Sanitizer()


def is_enabled() -> bool:
    """Whether the sanitizer is attached to the engine."""
    return _CLIENT in instrument.attached()


def enable() -> None:
    """Attach the sanitizer to the engine (idempotent)."""
    instrument.attach(_CLIENT)


def disable() -> None:
    """Detach the sanitizer, leaving any other instrument attached (idempotent)."""
    instrument.detach(_CLIENT)


@contextlib.contextmanager
def sanitized() -> Iterator[None]:
    """Context manager enabling the sanitizer for the enclosed block.

    Nesting-safe: if the sanitizer was already enabled on entry it stays
    enabled on exit.
    """
    was_enabled = is_enabled()
    enable()
    try:
        yield
    finally:
        if not was_enabled:
            disable()


def install_from_env(environ=None) -> bool:
    """Enable the sanitizer when ``REPRO_SANITIZE`` is set to a truthy value.

    Called once at ``import repro`` time; returns whether it enabled.
    Recognized falsy values: unset, empty, ``0``, ``false``, ``no``, ``off``
    (case-insensitive).
    """
    env = os.environ if environ is None else environ
    value = env.get(ENV_VAR, "").strip().lower()
    if value in ("", "0", "false", "no", "off"):
        return False
    enable()
    return True
