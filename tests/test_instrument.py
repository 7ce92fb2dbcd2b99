"""The engine's single instrumentation install point and its two clients.

Covers the any-order teardown contract of :mod:`repro.analysis.instrument`
(every attach/detach interleaving of the profiler and the sanitizer leaves
the engine pristine) and the profiler's timing semantics.
"""

import itertools

import numpy as np
import pytest

from repro.analysis import instrument, profiler, sanitizer
from repro.autograd import Adam, Parameter, Tensor
from repro.autograd import functional as F
from repro.autograd import optim
from repro.kernels import dispatch


@pytest.fixture(autouse=True)
def _engine_pristine_after():
    yield
    sanitizer.disable()
    assert not instrument.attached()


def assert_pristine():
    for owner, name, _, fn in instrument.TARGETS:
        assert getattr(owner, name) is fn, f"{owner.__name__}.{name} not pristine"


def test_targets_are_the_whole_pristine_engine():
    expected = (
        [(F, name) for name in F.__all__]
        + [(dispatch, name) for name in dispatch.TENSOR_OPS]
        + [(Tensor, "__init__"), (Tensor, "accumulate_grad"), (optim.Optimizer, "step")]
    )
    assert [(owner, name) for owner, name, _, _ in instrument.TARGETS] == expected
    for owner, name, _, fn in instrument.TARGETS:
        assert not hasattr(fn, "__wrapped__"), f"{name} captured as a wrapper"
    assert_pristine()


def _nan_raises() -> bool:
    try:
        with np.errstate(invalid="ignore"):
            F.log(Tensor(np.array([-1.0])))
    except sanitizer.SanitizerError:
        return True
    return False


def _orders():
    """Every interleaving of profiler on/off with sanitizer on/off: six
    orders, four of them not last-in-first-out."""
    events = ("P+", "P-", "S+", "S-")
    for order in itertools.permutations(events):
        if order.index("P+") < order.index("P-") and order.index("S+") < order.index("S-"):
            yield order


ORDERS = list(_orders())


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: "".join(o))
def test_any_teardown_order_restores_the_engine(order):
    profile = profiler.profiled()
    report = None
    for event in order:
        if event == "P+":
            report = profile.__enter__()
        elif event == "P-":
            profile.__exit__(None, None, None)
        elif event == "S+":
            sanitizer.enable()
        else:
            sanitizer.disable()
        assert sanitizer.is_enabled() == _nan_raises(), f"after {event}"
    assert not sanitizer.is_enabled()
    assert not instrument.attached()
    assert_pristine()
    # The finished report no longer records anything.
    frozen = {name: s.calls for name, s in report.stats.items()}
    F.add(Tensor(np.ones(2)), Tensor(np.ones(2)))
    assert {name: s.calls for name, s in report.stats.items()} == frozen


class _DepthRecorder:
    """A minimal client: records each op call's name and the depth it sees."""

    def __init__(self):
        self.calls = []

    def wrap(self, kind, name, fn):
        if kind != "op":
            return fn

        def wrapped(*args, **kwargs):
            self.calls.append((name, instrument.op_depth()))
            return fn(*args, **kwargs)

        return wrapped


def test_client_sees_depth_of_enclosing_ops():
    recorder = _DepthRecorder()
    instrument.attach(recorder)
    try:
        F.bpr_loss(Tensor(np.array([1.0])), Tensor(np.array([0.0])))
    finally:
        instrument.detach(recorder)
    assert recorder.calls[0] == ("bpr_loss", 0)
    nested = recorder.calls[1:]
    assert {"sub", "log_sigmoid", "mean", "neg"} <= {name for name, _ in nested}
    assert all(depth >= 1 for _, depth in nested)
    assert instrument.op_depth() == 0
    assert_pristine()


# ------------------------------------------------------------------ profiler
def test_composite_op_absorbs_nested_ops():
    pos = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    neg = Tensor(np.array([0.5, 0.0]), requires_grad=True)
    with profiler.profiled() as report:
        F.bpr_loss(pos, neg)
    assert set(report.stats) == {"bpr_loss"}
    assert report.stats["bpr_loss"].calls == 1
    assert "log_sigmoid" not in report.stats


def test_backward_seconds_only_for_taped_ops():
    x = Tensor(np.arange(4.0), requires_grad=True)
    const = Tensor(np.ones(4))
    with profiler.profiled() as report:
        F.add(const, const)  # no grad-requiring input: no backward recorded
        F.sum(F.mul(x, x)).backward()
    assert report.stats["mul"].backward_seconds > 0
    assert report.stats["sum"].backward_seconds > 0
    assert report.stats["add"].backward_seconds == 0


def test_optimizer_step_counted_once_per_step():
    W = Parameter(np.ones((3, 2)), name="W")
    opt = Adam([W], lr=0.1)
    with profiler.profiled() as report:
        for _ in range(3):
            opt.zero_grad()
            F.sum(F.mul(W, W)).backward()
            opt.step()
    assert report.stats["optimizer.step"].calls == 3
    assert report.stats["optimizer.step"].backward_seconds == 0


def test_nested_profile_raises():
    with profiler.profiled():
        with pytest.raises(RuntimeError, match="does not nest"):
            with profiler.profiled():
                pass
        assert len(instrument.attached()) == 1
    assert_pristine()


def test_engine_pristine_after_profile_even_on_error():
    with profiler.profiled() as report:
        F.add(Tensor(np.ones(1)), Tensor(np.ones(1)))
    assert report.wall_seconds > 0
    assert_pristine()
    with pytest.raises(ValueError, match="boom"):
        with profiler.profiled():
            raise ValueError("boom")
    assert_pristine()


def test_profile_and_sanitizer_compose():
    with sanitizer.sanitized(), profiler.profiled() as report:
        t = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        F.mean(F.log(t)).backward()
        with pytest.raises(sanitizer.SanitizerError) as exc_info:
            with np.errstate(divide="ignore"):
                F.mean(F.log(Tensor(np.array([0.0]))))
    assert exc_info.value.op == "log"
    assert report.stats["mean"].calls == 1  # the raising call never reached mean
    assert report.stats["log"].backward_seconds > 0
    assert_pristine()
