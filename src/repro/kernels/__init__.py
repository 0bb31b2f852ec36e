"""Kernel library: boundary, filter, structural, and application kernels."""

from .arithmetic import (
    AbsDiffKernel,
    AddKernel,
    BinaryElementwiseKernel,
    ComputeKernel,
    IdentityKernel,
    MultiplyKernel,
    ScaleKernel,
    SubtractKernel,
    ThresholdKernel,
    UnaryElementwiseKernel,
)
from .bayer import BayerDemosaicKernel, LuminanceKernel
from .buffer import BufferKernel
from .downsample import DownsampleKernel
from .dynamic import BlockMatchKernel, VariableWorkKernel
from .feedback import InitialValueKernel
from .filters import (
    ConvolutionKernel,
    GaussianKernel,
    MedianKernel,
    SobelKernel,
    WindowedKernel,
)
from .histogram import HistogramKernel, HistogramMergeKernel, default_bin_edges
from .inset import InsetKernel, PadKernel
from .morphology import DilateKernel, ErodeKernel, add_closing, add_opening
from .sources import ApplicationInput, ApplicationOutput, ConstantSource
from .splitjoin import (
    ColumnSplit,
    CountedJoin,
    ReplicateKernel,
    RoundRobinJoin,
    RoundRobinSplit,
)

__all__ = [
    "AbsDiffKernel",
    "AddKernel",
    "ApplicationInput",
    "ApplicationOutput",
    "BayerDemosaicKernel",
    "BinaryElementwiseKernel",
    "BufferKernel",
    "ColumnSplit",
    "ComputeKernel",
    "ConstantSource",
    "ConvolutionKernel",
    "CountedJoin",
    "default_bin_edges",
    "DownsampleKernel",
    "BlockMatchKernel",
    "VariableWorkKernel",
    "DilateKernel",
    "ErodeKernel",
    "add_closing",
    "add_opening",
    "GaussianKernel",
    "HistogramKernel",
    "HistogramMergeKernel",
    "IdentityKernel",
    "InitialValueKernel",
    "InsetKernel",
    "LuminanceKernel",
    "MedianKernel",
    "MultiplyKernel",
    "PadKernel",
    "ReplicateKernel",
    "RoundRobinJoin",
    "RoundRobinSplit",
    "ScaleKernel",
    "SobelKernel",
    "SubtractKernel",
    "ThresholdKernel",
    "UnaryElementwiseKernel",
    "WindowedKernel",
]
