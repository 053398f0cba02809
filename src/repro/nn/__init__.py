"""A minimal numpy neural-network framework (autograd, modules, optimizers).

This subpackage is the training substrate for the RTMobile reproduction:
the paper trains its GRU with PyTorch-Kaldi, which is unavailable offline,
so an equivalent (much smaller) framework is provided here.
"""

from repro.nn import functional, init
from repro.nn.fused import fused_gru_layer
from repro.nn.data import Batch, DataLoader, Dataset, SequenceExample, collate, train_test_split
from repro.nn.linear import Linear
from repro.nn.quantize import (
    dequantize_int8,
    int8_round_trip,
    quantization_error,
    quantize_fp16,
    quantize_int8,
    quantize_model,
)
from repro.nn.serialization import load_checkpoint, save_checkpoint
from repro.nn.module import Module, Parameter
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn.rnn import GRU, GRUCell
from repro.nn.tensor import Tensor, as_tensor, concatenate, ones, stack, zeros

__all__ = [
    "Tensor",
    "as_tensor",
    "concatenate",
    "stack",
    "zeros",
    "ones",
    "Module",
    "Parameter",
    "Linear",
    "GRUCell",
    "GRU",
    "SGD",
    "Adam",
    "Optimizer",
    "functional",
    "fused_gru_layer",
    "init",
    "Dataset",
    "DataLoader",
    "SequenceExample",
    "Batch",
    "collate",
    "train_test_split",
    "save_checkpoint",
    "load_checkpoint",
    "quantize_fp16",
    "quantize_int8",
    "dequantize_int8",
    "int8_round_trip",
    "quantization_error",
    "quantize_model",
]
