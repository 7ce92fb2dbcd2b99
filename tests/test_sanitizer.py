"""Runtime numeric sanitizer tests: NaN/Inf injection names the originating
op, shape drift is caught at the optimizer step, float64 upcasts on float32
inputs are reported, and enable/disable fully restores the engine."""

import numpy as np
import pytest

from repro.analysis.sanitizer import (
    SanitizerError,
    _wrap_op,
    disable,
    enable,
    install_from_env,
    is_enabled,
    sanitized,
)
from repro.autograd import Adam, Parameter, SparseRowGrad, Tensor
from repro.autograd import functional as F


@pytest.fixture(autouse=True)
def _sanitizer_off_after():
    yield
    disable()


# ------------------------------------------------------------- NaN injection
def test_nan_from_op_names_the_op():
    with sanitized():
        t = Tensor(np.array([0.0, 1.0]), requires_grad=True)
        with pytest.raises(SanitizerError) as exc_info:
            with np.errstate(divide="ignore"):
                F.mean(F.log(t))
    err = exc_info.value
    assert err.op == "log"  # innermost op, not the enclosing mean
    assert err.kind == "inf"
    assert "log" in str(err)


def test_nan_named_through_composite_loss():
    with sanitized():
        # exp(large) overflows to inf inside 'exp'; bpr_loss never runs.
        big = Tensor(np.array([1e6]))
        with pytest.raises(SanitizerError) as exc_info:
            with np.errstate(over="ignore"):
                F.bpr_loss(F.exp(big), Tensor(np.array([0.0])))
    assert exc_info.value.op == "exp"


def test_tensor_construction_checked():
    with sanitized():
        with pytest.raises(SanitizerError) as exc_info:
            Tensor(np.array([1.0, np.nan]))
    assert exc_info.value.kind == "nan"


def test_accumulate_grad_checked_and_labeled():
    with sanitized():
        p = Parameter(np.ones(3), name="emb.W")
        with pytest.raises(SanitizerError) as exc_info:
            p.accumulate_grad(np.array([1.0, np.nan, 2.0]))
    assert exc_info.value.op == "accumulate_grad[emb.W]"
    assert exc_info.value.kind == "nan"


# ------------------------------------------------------------ optimizer step
def test_step_rejects_shape_mismatch():
    with sanitized():
        p = Parameter(np.ones(3), name="w")
        p.grad = np.ones(2)
        opt = Adam([p])
        with pytest.raises(SanitizerError) as exc_info:
            opt.step()
    assert exc_info.value.kind == "shape"
    assert "step[w]" == exc_info.value.op


def test_step_rejects_nonfinite_gradient():
    with sanitized():
        p = Parameter(np.ones(3), name="w")
        p.grad = np.array([1.0, np.inf, 0.0])
        opt = Adam([p])
        with pytest.raises(SanitizerError) as exc_info:
            opt.step()
    assert exc_info.value.kind == "inf"
    assert exc_info.value.op == "step[w]"


# ------------------------------------------------------------- sparse grads
def test_accumulate_grad_checks_sparse_values():
    with sanitized():
        p = Parameter(np.ones((4, 2)), name="emb.W")
        bad = SparseRowGrad((4, 2), np.array([0, 2]), np.array([[1.0, np.nan], [0.0, 1.0]]))
        with pytest.raises(SanitizerError) as exc_info:
            p.accumulate_grad(bad)
    assert exc_info.value.op == "accumulate_grad[emb.W]"
    assert exc_info.value.kind == "nan"


def test_step_rejects_nonfinite_sparse_gradient():
    with sanitized():
        p = Parameter(np.ones((4, 2)), name="w")
        p.grad = SparseRowGrad((4, 2), np.array([1]), np.array([[np.inf, 0.0]]))
        opt = Adam([p])
        with pytest.raises(SanitizerError) as exc_info:
            opt.step()
    assert exc_info.value.kind == "inf"
    assert exc_info.value.op == "step[w]"


def test_step_rejects_sparse_shape_drift():
    with sanitized():
        p = Parameter(np.ones((4, 2)), name="w")
        p.grad = SparseRowGrad((5, 2), np.array([0]), np.array([[1.0, 1.0]]))
        opt = Adam([p])
        with pytest.raises(SanitizerError) as exc_info:
            opt.step()
    assert exc_info.value.kind == "shape"
    assert exc_info.value.op == "step[w]"


def test_sparse_embedding_training_clean_under_sanitizer():
    rng = np.random.default_rng(1)
    with sanitized():
        W = Parameter(rng.normal(size=(16, 4)), name="W")
        opt = Adam([W], lr=0.01)
        for _ in range(5):
            opt.zero_grad()
            idx = rng.integers(0, 16, size=8)
            loss = F.sum(F.mul(F.take_rows(W, idx), F.take_rows(W, idx)))
            loss.backward()
            assert isinstance(W.grad, SparseRowGrad)
            opt.step()
    assert np.isfinite(W.data).all()


# -------------------------------------------------------------- dtype upcast
def test_float64_upcast_on_float32_inputs_flagged():
    def upcasting_op(a):
        return Tensor(a.data.astype(np.float64))

    wrapped = _wrap_op("upcasting_op", upcasting_op)
    enable()
    with pytest.raises(SanitizerError) as exc_info:
        wrapped(Tensor(np.ones(3, dtype=np.float32)))
    assert exc_info.value.kind == "upcast"
    assert exc_info.value.op == "upcasting_op"


def test_float32_preserving_ops_clean():
    with sanitized():
        a = Tensor(np.ones(3, dtype=np.float32))
        b = Tensor(np.ones(3, dtype=np.float32))
        out = F.add(a, b)
    assert out.dtype == np.float32


# ------------------------------------------------------- install / uninstall
def test_disable_restores_engine_exactly():
    original_add = F.add
    original_init = Tensor.__init__
    enable()
    assert F.add is not original_add
    disable()
    assert F.add is original_add
    assert Tensor.__init__ is original_init
    # Disabled: non-finite tensors are allowed again.
    Tensor(np.array([np.nan]))


def test_double_install_never_double_wraps():
    """A second enable (env install plus an explicit enable) must not stack
    wrappers, and one disable must restore the pristine engine."""
    original_add = F.add
    original_init = Tensor.__init__
    original_step = Adam.step
    enable()
    wrapped_add = F.add
    wrapped_init = Tensor.__init__
    enable()  # second install: no-op
    assert F.add is wrapped_add and Tensor.__init__ is wrapped_init
    # One sanitizer layer plus the op-depth counter sit over the pristine op.
    layers = 0
    fn = F.add
    while hasattr(fn, "__wrapped__"):
        fn, layers = fn.__wrapped__, layers + 1
    assert fn is original_add and layers == 2
    assert Tensor.__init__.__wrapped__ is original_init
    disable()
    assert F.add is original_add
    assert Tensor.__init__ is original_init
    assert Adam.step is original_step
    assert not is_enabled()


def test_nested_enable_disable_restores_exactly():
    originals = {name: getattr(F, name) for name in F.__all__}
    with sanitized():
        with sanitized():
            assert is_enabled()
        assert is_enabled()
    for name, fn in originals.items():
        assert getattr(F, name) is fn, f"{name} not restored"


def test_sanitized_context_is_nesting_safe():
    enable()
    with sanitized():
        assert is_enabled()
    assert is_enabled()  # outer enable survives the context exit
    disable()
    assert not is_enabled()


def test_install_from_env():
    assert install_from_env({"REPRO_SANITIZE": "1"}) is True
    assert is_enabled()
    disable()
    for off in ({}, {"REPRO_SANITIZE": "0"}, {"REPRO_SANITIZE": "false"}):
        assert install_from_env(off) is False
        assert not is_enabled()


# ------------------------------------------------------------ training smoke
def test_training_loop_runs_clean_under_sanitizer():
    rng = np.random.default_rng(0)
    with sanitized():
        W = Parameter(rng.normal(size=(8, 4)), name="W")
        opt = Adam([W], lr=0.01)
        losses = []
        for _ in range(10):
            opt.zero_grad()
            pos = F.take_rows(W, np.array([0, 1, 2]))
            neg = F.take_rows(W, np.array([3, 4, 5]))
            loss = F.bpr_loss(F.sum(pos, axis=1), F.sum(neg, axis=1))
            loss.backward()
            opt.step()
            losses.append(float(loss.item()))
    assert losses[-1] < losses[0]  # optimized, with no sanitizer trips
    assert np.isfinite(W.data).all()
