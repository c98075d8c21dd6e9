"""Scaled dot-product attention, masking, and the sinusoidal position table."""

import numpy as np

from qatip.attention import (
    causal_mask,
    init_multi_head,
    length_mask,
    multi_head,
    scaled_dot_attention,
    sinusoidal_positions,
)
from qatip.tensor import ParamStore, Tensor

rng = np.random.default_rng(3)

# one batch of two sequences, the second padded after 2 steps
q = Tensor(rng.standard_normal((2, 4, 8)), dtype=np.float64)
k = Tensor(rng.standard_normal((2, 4, 8)), dtype=np.float64)
v = Tensor(rng.standard_normal((2, 4, 8)), dtype=np.float64)
mask = length_mask([4, 2], 4)[:, None, :]  # True marks a real key

out, weights = scaled_dot_attention(q, k, v, mask=mask)
print("attention output shape:", out.shape)
print("rows sum to one:", np.allclose(weights.data.sum(-1), 1.0))
print("padded keys get zero weight:", np.allclose(weights.data[1, :, 2:], 0.0))

# causal masking keeps each position from looking ahead
tri = causal_mask(4)
out, weights = scaled_dot_attention(q, k, v, mask=tri[None, :, :])
print("upper triangle zero under causal mask:",
      np.allclose(np.triu(weights.data[0], k=1), 0.0))

# multi-head wrapper: packed projections, per-head attention, merge
store = ParamStore(np.random.default_rng(7), dtype=np.float64)
params = init_multi_head(store, "demo", 8, 2)
fused, per_head = multi_head(params, q, k, v, mask=mask)
print("multi-head output shape:", fused.shape)
print("per-head weight tensor:", per_head.shape)

# the position table interleaves sines and cosines by frequency
pe = sinusoidal_positions(6, 8)
print("position 0 is [0, 1, 0, 1, ...]:", np.allclose(pe[0, 0::2], 0.0),
      np.allclose(pe[0, 1::2], 1.0))
print("table:\n", np.round(pe, 3))
