"""Metasurface electromagnetic substrate.

Models the LLAMA polarization rotator hardware described in paper
Sections 3.2 and 4: dielectric substrate materials, the SMV1233 varactor
diodes used as tuning elements, varactor-loaded phase-shifter layers,
quarter-wave-plate layers, the assembled metasurface (transmissive and
reflective responses) and the design-space factories used to compare the
Rogers-5880 reference design, the naive FR4 port and the paper's
optimized FR4 design (Figs. 8-10).
"""

from repro.metasurface.materials import (
    SubstrateMaterial,
    FR4,
    ROGERS_5880,
    ROGERS_4350B,
    AIR,
)
from repro.metasurface.varactor import VaractorDiode, SMV1233
from repro.metasurface.two_port import TwoPortNetwork, phase_shifter_bandwidth_hz
from repro.metasurface.phase_shifter import PhaseShifterLayer
from repro.metasurface.layers import QuarterWavePlateLayer, BirefringentLayer
from repro.metasurface.surface import (
    Metasurface,
    PassivityError,
    SurfaceMode,
    SurfaceResponse,
)
from repro.metasurface.design import (
    MetasurfaceDesign,
    llama_design,
    fr4_naive_design,
    rogers_reference_design,
    scaled_design,
    design_cost_usd,
)

__all__ = [
    "SubstrateMaterial",
    "FR4",
    "ROGERS_5880",
    "ROGERS_4350B",
    "AIR",
    "VaractorDiode",
    "SMV1233",
    "TwoPortNetwork",
    "phase_shifter_bandwidth_hz",
    "PhaseShifterLayer",
    "QuarterWavePlateLayer",
    "BirefringentLayer",
    "Metasurface",
    "PassivityError",
    "SurfaceMode",
    "SurfaceResponse",
    "MetasurfaceDesign",
    "llama_design",
    "fr4_naive_design",
    "rogers_reference_design",
    "scaled_design",
    "design_cost_usd",
]
