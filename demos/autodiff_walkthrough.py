"""A tour of the reverse-mode tape: forward ops, backward, and a numeric check."""

import numpy as np

from qatip.tensor import Tensor, backward, matmul, mean_all, no_grad, sigmoid

rng = np.random.default_rng(0)

# two leaves; only w asks for a gradient
x = Tensor(rng.standard_normal((4, 3)), dtype=np.float64)
w = Tensor(rng.standard_normal((3, 2)), requires_grad=True, dtype=np.float64)

loss = mean_all(sigmoid(matmul(x, w)))
print("loss:", loss.item())

backward(loss)
print("dloss/dw shape:", w.grad.shape)
print("x got no gradient:", x.grad is None)

# central differences on one coordinate agree with the tape
h = 1e-6
probe = w.data.copy()
w.data[0, 0] = probe[0, 0] + h
up = mean_all(sigmoid(matmul(x, w))).item()
w.data[0, 0] = probe[0, 0] - h
down = mean_all(sigmoid(matmul(x, w))).item()
w.data[0, 0] = probe[0, 0]
numeric = (up - down) / (2 * h)
print("tape grad[0,0]:", w.grad[0, 0])
print("numeric      :", numeric)
print("agree to ~1e-9:", abs(w.grad[0, 0] - numeric) < 1e-9)

# a second backward pass accumulates instead of overwriting
first = w.grad.copy()
backward(mean_all(sigmoid(matmul(x, w))))
print("second backward doubles the grad:", np.allclose(w.grad, 2 * first))

# the sweep releases the graph, so the same loss cannot be swept twice
try:
    backward(loss)
except RuntimeError as err:
    print("second backward on the same loss:", err)
print("grad untouched by the refused sweep:", np.allclose(w.grad, 2 * first))

# inside no_grad nothing records a tape
with no_grad():
    silent = mean_all(sigmoid(matmul(x, w)))
print("no_grad output detached:", silent.requires_grad is False)
