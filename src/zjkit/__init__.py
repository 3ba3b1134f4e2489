"""Model reuse engine: structure adaptation, guided tuning, model fusion.

The pipeline has three stages over a small deterministic tensor core:
adapt a pre-trained network's structure from a one-line config, train it
with optional teacher supervision and regularizers, then fuse weights,
features, or predictions of the resulting models.
"""

from .tensor import Tensor, backward, layernorm, matmul, softmax

__all__ = ["Tensor", "backward", "layernorm", "matmul", "softmax"]

__version__ = "0.1.0"
