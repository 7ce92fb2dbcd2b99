"""The one install point for runtime instruments on the autograd engine.

The numeric sanitizer (:mod:`repro.analysis.sanitizer`) and the op profiler
(:mod:`repro.analysis.profiler`) watch a run by wrapping the engine's entry
points.  This module is the only code that patches them.  It holds the list
of entry points, captures their pristine callables once at import, and
rebuilds every entry point from those pristine callables whenever a client
attaches or detaches:

- every public op in :mod:`repro.autograd.functional` and every fused Tensor
  op in :data:`repro.kernels.dispatch.TENSOR_OPS` (kind ``"op"``);
- :class:`~repro.autograd.tensor.Tensor` construction (kind ``"init"``);
- :meth:`~repro.autograd.tensor.Tensor.accumulate_grad` (kind
  ``"accumulate_grad"``);
- :meth:`~repro.autograd.optim.Optimizer.step` (kind ``"step"``).

A client is any object with ``wrap(kind, name, fn) -> fn``; it returns
``fn`` itself for the kinds it does not watch.  Attached clients wrap in
attach order, the first attached innermost.  Because every rebuild starts
from the pristine callables, clients may detach in any order, attaching a
client twice is a no-op, and with no client attached the engine is exactly
pristine: no wrapper sits in the call path.

While any client is attached, one innermost wrapper around each op counts
the instrumented ops on the stack (:func:`op_depth`).  The profiler times
only depth-0 calls, so a composite op absorbs the ops it calls; the
sanitizer's constructor check stays quiet inside an op, whose wrapper checks
the finished output under the op's name instead.
"""

from __future__ import annotations

import functools
from typing import Callable, List, Protocol, Tuple

from repro.autograd import functional as F
from repro.autograd import optim as _optim
from repro.autograd.tensor import Tensor
from repro.kernels import dispatch as _dispatch

__all__ = ["Client", "TARGETS", "attach", "detach", "attached", "op_depth"]


class Client(Protocol):
    """Anything that wraps an entry point: return ``fn`` to leave it alone."""

    def wrap(self, kind: str, name: str, fn: Callable) -> Callable: ...


#: ``(owner, attribute, kind, pristine callable)`` for every entry point.
TARGETS: Tuple[Tuple[object, str, str, Callable], ...] = tuple(
    (owner, name, kind, getattr(owner, name))
    for owner, name, kind in (
        *((F, name, "op") for name in F.__all__),
        *((_dispatch, name, "op") for name in _dispatch.TENSOR_OPS),
        (Tensor, "__init__", "init"),
        (Tensor, "accumulate_grad", "accumulate_grad"),
        (_optim.Optimizer, "step", "step"),
    )
)

_clients: List[Client] = []
_depth = 0


def op_depth() -> int:
    """Number of instrumented ops on the stack (0 with no client attached)."""
    return _depth


def _counted(fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        global _depth
        _depth += 1
        try:
            return fn(*args, **kwargs)
        finally:
            _depth -= 1

    return wrapped


def _rebuild() -> None:
    for owner, name, kind, fn in TARGETS:
        if _clients:
            if kind == "op":
                fn = _counted(fn)
            for client in _clients:
                fn = client.wrap(kind, name, fn)
        setattr(owner, name, fn)


def attached() -> Tuple[Client, ...]:
    """The attached clients, in attach order."""
    return tuple(_clients)


def attach(client: Client) -> None:
    """Wrap the engine with ``client`` as the outermost layer (idempotent)."""
    if client not in _clients:
        _clients.append(client)
        _rebuild()


def detach(client: Client) -> None:
    """Remove ``client``'s wrappers, keeping every other client's (idempotent)."""
    if client in _clients:
        _clients.remove(client)
        _rebuild()
