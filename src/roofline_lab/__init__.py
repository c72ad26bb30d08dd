"""roofline_lab: dual roofline (throughput + energy) cost models for
ML-accelerator loop-nest mappings, with a brute-force enumeration
oracle, quantization / sparsity / in-memory-compute transforms, and a
small reporting CLI.
"""

from .analysis import (
    AnalysisResult,
    analyze_intensities,
    analyze_mapping,
)
from .mapping import (
    AccessProfile,
    LatencyResult,
    OperandTraffic,
    Utilization,
    count_accesses,
    derive_stationarity,
    task_latency,
    utilization,
)
from .model import (
    INPUT,
    OUTPUT,
    OVERLAPPED,
    SERIALIZED,
    ArchSpec,
    ComputeArray,
    InvalidMappingError,
    LoopDim,
    MappingSpec,
    MemoryLevel,
    OperandSpec,
    SpatialUnroll,
    WorkloadSpec,
    validate,
)
from .oracle import (
    CycleSimResult,
    EnumerationTrace,
    IterationCapExceeded,
    enumerate_accesses,
    simulate_cycles,
)
from .roofline import (
    EnergyRoofline,
    OperatingPoint,
    RooflineCurve,
    ThroughputRoofline,
    task_energy,
)
from .transforms import (
    ImcMacro,
    ImcMappingTradeoff,
    QuantConfig,
    SparsityConfig,
    SparsityModel,
    UnsupportedConfigError,
    amdahl_bound,
    apply_imc,
    apply_quantization,
    apply_sparsity,
    imc_dynamic_range,
    imc_mapping_tradeoff,
)

__version__ = "0.1.0"
