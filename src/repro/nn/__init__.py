"""Pure-numpy neural-network stack: embeddings with sparse gradients,
LSTM and Recurrent Highway layers, full and sampled softmax losses."""

from . import functional, init
from .batched import BatchedCharLMExecutor, BatchedExecutor
from .dropout import Dropout
from .dtypes import ACC_DTYPE, DTYPE
from .embedding import Embedding
from .linear import Linear
from .lstm import LSTM
from .module import Module
from .parameter import Parameter, SparseGrad
from .rhn import RHN
from .sampled_softmax import LogUniformSampler, SampledSoftmaxLoss
from .softmax import FullSoftmaxLoss

__all__ = [
    "functional",
    "init",
    "DTYPE",
    "ACC_DTYPE",
    "Module",
    "Parameter",
    "SparseGrad",
    "BatchedExecutor",
    "BatchedCharLMExecutor",
    "Embedding",
    "Linear",
    "LSTM",
    "RHN",
    "Dropout",
    "FullSoftmaxLoss",
    "SampledSoftmaxLoss",
    "LogUniformSampler",
]
