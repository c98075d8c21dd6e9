"""Finite-difference verification of analytic gradients.

Central differences (f(x+h) - f(x-h)) / 2h computed from forward passes
only, so the check never depends on the backward code it is validating.
All checks run in float64 with the constants below: step h = ``STEP``,
per-op tolerance ``OP_TOL`` and full-model tolerance ``MODEL_TOL``.
Each op check draws its inputs and names its forward; ``_probed`` turns
the output into the one scalar loss the checks share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor, backward

OP_TOL = 1e-4
MODEL_TOL = 1e-3
STEP = 1e-5
SEED = 12345  # the op checks' cases; the model checks draw theirs from SEED + 1


@dataclass
class CheckResult:
    name: str
    max_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_err < self.tol


def finite_difference(loss_fn, tensor: Tensor) -> np.ndarray:
    """Numeric d loss / d tensor via central differences.

    ``loss_fn`` rebuilds the forward pass from current tensor data and
    returns a float.  The tensor is perturbed in place one element at a
    time and restored afterwards.
    """
    if tensor.data.dtype != np.float64:
        raise ValueError("gradient checking requires float64 tensors")
    grad = np.zeros_like(tensor.data)
    flat = tensor.data.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + STEP
        f_plus = loss_fn()
        flat[i] = orig - STEP
        f_minus = loss_fn()
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2.0 * STEP)
    return grad


def rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    return float(np.abs(analytic - numeric).max() / (np.abs(numeric).max() + 1e-12))


def check_grads(inputs: dict[str, Tensor], build_loss) -> float:
    """Max relative error across the given tensors for one loss graph."""
    for t in inputs.values():
        t.zero_grad()
    backward(build_loss())
    worst = 0.0
    for t in inputs.values():
        numeric = finite_difference(lambda: float(build_loss().data), t)
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        worst = max(worst, rel_error(analytic, numeric))
    return worst


def _randn(rng, shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True, dtype=np.float64)


def _probed(rng, inputs: dict[str, Tensor], forward) -> float:
    """``check_grads`` on ``sum(forward() * probe)``.

    The probe is a standard-normal draw of the output's shape, taken after
    the inputs', so every output element carries its own weight.
    """
    probe = Tensor(rng.standard_normal(forward().shape), dtype=np.float64)
    return check_grads(inputs, lambda: T.sum_all(T.mul(forward(), probe)))


def _unary(op: str, draw=lambda rng: rng.standard_normal((2, 3, 4))):
    """The check of the one-input op ``T.<op>``, its input drawn by ``draw(rng)``."""

    def check(rng):
        a = Tensor(draw(rng), requires_grad=True, dtype=np.float64)
        return _probed(rng, {"a": a}, lambda: getattr(T, op)(a))

    return check


def _check_matmul(rng):
    b, n, k, m = rng.integers(1, 4), rng.integers(2, 5), rng.integers(2, 5), rng.integers(2, 5)
    a, w, full = _randn(rng, (b, n, k)), _randn(rng, (k, m)), _randn(rng, (b, k, m))
    return _probed(rng, {"a": a, "w": w, "full": full}, lambda: T.add(T.matmul(a, w), T.matmul(a, full)))


def _check_linear(rng):
    d, k = rng.integers(2, 5), rng.integers(2, 5)
    w = _randn(rng, (d, k))
    b = _randn(rng, (k,))
    w_t = _randn(rng, (k, d))  # read through a transposed view, as the tied output layer reads
    xs = {f"x{n}": _randn(rng, tuple(rng.integers(1, 4, size=n - 1)) + (d,)) for n in (2, 3, 4)}
    probes = [Tensor(rng.standard_normal(x.shape[:-1] + (k,)), dtype=np.float64) for x in xs.values()]

    def loss():
        total = Tensor(np.zeros(()), dtype=np.float64)
        for x, probe in zip(xs.values(), probes):
            out = T.add(T.linear(x, w, b), T.linear(x, T.transpose(w_t)))
            total = T.add(total, T.sum_all(T.mul(out, probe)))
        return total

    return check_grads({"w": w, "b": b, "w_t": w_t, **xs}, loss)


def _check_add_sub(rng):
    a, b, c = _randn(rng, (2, 3, 4)), _randn(rng, (3, 4)), _randn(rng, (2, 1, 4))
    return _probed(rng, {"a": a, "b": b, "c": c}, lambda: T.sub(T.add(a, b), c))


def _check_mul(rng):
    a, b = _randn(rng, (2, 3, 4)), _randn(rng, (1, 3, 1))
    return _probed(rng, {"a": a, "b": b}, lambda: T.mul(a, b))


def _check_scale(rng):
    a, c = _randn(rng, (3, 5)), float(rng.uniform(-2, 2))
    return _probed(rng, {"a": a}, lambda: T.scale(a, c))


def _away_from_zero(rng):
    """Inputs kept off relu's kink at zero, where the derivative jumps."""
    mag = rng.uniform(0.05, 1.5, size=(2, 3, 4))
    return mag * rng.choice([-1.0, 1.0], size=(2, 3, 4))


def _check_softmax_masked(rng):
    a = _randn(rng, (2, 3, 5))
    mask = rng.random((2, 3, 5)) > 0.3
    mask[..., 0] = True
    return _probed(rng, {"a": a}, lambda: T.softmax_rows(a, mask=mask))


def _check_layer_norm(rng):
    a = _randn(rng, (2, 3, 6))
    gain = Tensor(rng.uniform(0.5, 1.5, 6), requires_grad=True, dtype=np.float64)
    bias = _randn(rng, (6,))
    return _probed(rng, {"a": a, "gain": gain, "bias": bias}, lambda: T.layer_norm(a, gain, bias))


def _check_concat_slice(rng):
    a, b = _randn(rng, (2, 3, 4)), _randn(rng, (2, 3, 2))
    return _probed(rng, {"a": a, "b": b}, lambda: T.slice_axis(T.concat([a, b], axis=-1), -1, 1, 4))


def _check_embedding(rng):
    table, ids = _randn(rng, (7, 3)), rng.integers(0, 7, size=(2, 4))
    return _probed(rng, {"table": table}, lambda: T.embedding_lookup(table, ids))


def _check_reshape_broadcast(rng):
    a, b = _randn(rng, (2, 6)), _randn(rng, (1, 3, 1))
    return _probed(rng, {"a": a, "b": b}, lambda: T.mul(T.reshape(a, (2, 3, 2)), T.broadcast_to(b, (2, 3, 2))))


def _check_mean(rng):
    a = _randn(rng, (3, 4))
    return check_grads({"a": a}, lambda: T.mean_all(T.sigmoid(a)))


def _check_nll(rng):
    logits = _randn(rng, (2, 3, 5))
    targets = rng.integers(0, 5, size=(2, 3))
    mask = rng.random((2, 3)) > 0.4
    mask[:, 0] = True
    return check_grads({"logits": logits}, lambda: T.nll_loss(logits, targets, pad_mask=mask))


def _check_dropout(rng):
    a, keep = _randn(rng, (2, 3, 4)), rng.random((2, 3, 4)) >= 0.3
    return _probed(rng, {"a": a}, lambda: T.dropout(a, 0.3, mask=keep))


def _check_lstm_scan(rng):
    b, n, e, d = 3, 4, 3, 2
    x, w_x, w_h, bias = _randn(rng, (b, n, e)), _randn(rng, (e, 4 * d)), _randn(rng, (d, 4 * d)), _randn(rng, (4 * d,))
    lengths = np.array([n, 1, rng.integers(1, n + 1)])  # a full row, a length-1 row, one at random
    mask = np.arange(n)[None, :] < lengths[:, None]
    probe = Tensor(rng.standard_normal((b, n, d)), dtype=np.float64)  # one probe for both directions

    def loss(reverse):
        return T.sum_all(T.mul(T.lstm_scan(x, w_x, w_h, bias, mask, reverse=reverse), probe))

    inputs = {"x": x, "w_x": w_x, "w_h": w_h, "b": bias}
    return max(check_grads(inputs, lambda: loss(reverse)) for reverse in (False, True))


def _check_decoder_scan(rng):
    b, m, n, e, k, d, a, vocab, q = 3, 3, 4, 2, 3, 2, 3, 5, 2
    lengths = np.array([n, 1, rng.integers(1, n + 1)])  # a full row, a 1-token review, one at random
    mask = np.arange(n)[None, :] < lengths[:, None]
    inputs = {name: _randn(rng, shape) for name, shape in (
        ("x", (b, m, e)), ("h_tilde", (b, n, k)), ("s0", (b, d)), ("w_c", (a, k + d)), ("b_c", (a,)),
        ("v", (a, 1)), ("w_x", (e + k, 4 * d)), ("w_h", (d, 4 * d)), ("b", (4 * d,)), ("w_v", (vocab, d)))}
    query = {"h_q": _randn(rng, (b, q)), "w_q": _randn(rng, (a, q))}
    probe = Tensor(rng.standard_normal((b, m, vocab)), dtype=np.float64)  # one probe without and with the query term

    def loss(extra):
        return T.sum_all(T.mul(T.decoder_scan(mask=mask, **inputs, **extra), probe))

    return max(check_grads({**inputs, **extra}, lambda: loss(extra)) for extra in ({}, query))


OP_CHECKS = {
    "matmul": _check_matmul,
    "transpose": _unary("transpose"),
    "add_sub": _check_add_sub,
    "mul": _check_mul,
    "scale": _check_scale,
    "sigmoid": _unary("sigmoid", lambda rng: rng.standard_normal((2, 3, 4)) * 3),
    "tanh": _unary("tanh"),
    "relu": _unary("relu", _away_from_zero),
    "softmax_masked": _check_softmax_masked,
    "softmax": _unary("softmax_rows"),
    "layer_norm": _check_layer_norm,
    "concat_slice": _check_concat_slice,
    "embedding_lookup": _check_embedding,
    "reshape_broadcast": _check_reshape_broadcast,
    "mean_all": _check_mean,
    "nll_loss": _check_nll,
    "dropout": _check_dropout,
    "linear": _check_linear,
    "lstm_scan": _check_lstm_scan,
    "decoder_scan": _check_decoder_scan,
}


def run_op_checks(repeats: int = 20, seed: int = SEED) -> list[CheckResult]:
    results = []
    for index, (name, fn) in enumerate(OP_CHECKS.items()):
        worst = 0.0
        for r in range(repeats):
            rng = np.random.default_rng(seed + 7919 * r + index)
            worst = max(worst, fn(rng))
        results.append(CheckResult(name=f"op:{name}", max_err=worst, tol=OP_TOL))
    return results


def perturb_params(model, seed: int = 77, scale: float = 0.8) -> None:
    """Move a freshly initialized model to a generic parameter point.

    Near tiny-scale init some gradient paths almost cancel (e.g. a term that
    shifts every attention score equally), leaving true gradients in the
    finite-difference roundoff regime; unit-scale noise removes the
    degeneracy without touching what is being verified.
    """
    rng = np.random.default_rng(seed)
    for p in model.params.parameters():
        p.tensor.data += rng.standard_normal(p.tensor.data.shape) * scale


def _model_param_check(model, batch) -> float:
    perturb_params(model)
    params = {p.name: p.tensor for p in model.params.parameters()}

    def loss():
        return model.forward_loss(batch)

    return check_grads(params, loss)


def _tiny_batch(vocab_size: int, rng) -> "object":
    from .corpus import Batch, Triplet, make_batch

    def ids(n, lo=4):
        return tuple(int(x) for x in rng.integers(lo, vocab_size, size=n))

    trips = [
        Triplet(review_ids=ids(4), query_ids=ids(3), tip_ids=(1,) + ids(3) + (2,),
                raw_review="", raw_query="", raw_tip="", record_id="a"),
        Triplet(review_ids=ids(3), query_ids=ids(2), tip_ids=(1,) + ids(2) + (2,),
                raw_review="", raw_query="", raw_tip="", record_id="b"),
    ]
    return make_batch(trips)


def run_model_checks() -> list[CheckResult]:
    from .rnn import QaRnnModel, RnnConfig
    from .transformer import QaTransformerModel, TransformerConfig

    seed = SEED + 1
    rng = np.random.default_rng(seed)
    results = []

    rnn_cfg = RnnConfig(vocab_size=11, emb_dim=3, hidden_dim=2, variant="both", dropout=0.0)
    rnn = QaRnnModel(rnn_cfg, seed=seed, dtype=np.float64)
    results.append(CheckResult("model:rnn_both", _model_param_check(rnn, _tiny_batch(11, rng)), MODEL_TOL))

    tf_cfg = TransformerConfig(vocab_size=11, model_dim=8, num_heads=2, num_layers=2,
                               ffn_dim=16, variant="both", dropout=0.0, max_len=32)
    tf = QaTransformerModel(tf_cfg, seed=seed + 1, dtype=np.float64)
    results.append(CheckResult("model:transformer_both", _model_param_check(tf, _tiny_batch(11, rng)), MODEL_TOL))

    return results


def run_gradient_suite(repeats: int = 20, include_models: bool = True) -> list[CheckResult]:
    results = run_op_checks(repeats=repeats)
    if include_models:
        results.extend(run_model_checks())
    return results


def format_report(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        status = "ok" if r.passed else "FAIL"
        lines.append(f"{status:4s} {r.name:28s} max_rel_err={r.max_err:.3e} tol={r.tol:.0e}")
    return "\n".join(lines)
