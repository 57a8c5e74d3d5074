"""Wireless propagation substrate.

Free-space propagation (Friis), antennas with polarization and gain
patterns, thermal noise, Shannon capacity, a ray-based multipath model
with an "absorber" switch matching the paper's test chamber, and the
:class:`~repro.channel.link.WirelessLink` budget used by every
experiment (direct, through-surface and surface-reflected paths).
"""

from repro.channel.geometry import Position, LinkGeometry
from repro.channel.antenna import (
    Antenna,
    dipole_antenna,
    directional_antenna,
    omni_antenna,
    circular_antenna,
)
from repro.channel.freespace import (
    free_space_path_loss_db,
    friis_received_power_dbm,
    range_extension_factor,
)
from repro.channel.noise import thermal_noise_dbm, snr_db
from repro.channel.capacity import (
    shannon_spectral_efficiency,
    shannon_capacity_bps,
    capacity_improvement,
)
from repro.channel.multipath import MultipathEnvironment, Ray
from repro.channel.ensemble import STATION_AXES, LinkEnsemble
from repro.channel.grid import (
    GRID_AXES,
    GridAxis,
    ProbeGrid,
    ProbeGridError,
    SWEEP_AXES,
    VOLTAGE_AXES,
)
from repro.channel.link import (
    DeploymentMode,
    LinkConfiguration,
    LinkReport,
    WirelessLink,
)

__all__ = [
    "GRID_AXES",
    "GridAxis",
    "ProbeGrid",
    "ProbeGridError",
    "SWEEP_AXES",
    "VOLTAGE_AXES",
    "DeploymentMode",
    "Position",
    "LinkGeometry",
    "Antenna",
    "dipole_antenna",
    "directional_antenna",
    "omni_antenna",
    "circular_antenna",
    "free_space_path_loss_db",
    "friis_received_power_dbm",
    "range_extension_factor",
    "thermal_noise_dbm",
    "snr_db",
    "shannon_spectral_efficiency",
    "shannon_capacity_bps",
    "capacity_improvement",
    "MultipathEnvironment",
    "Ray",
    "STATION_AXES",
    "LinkEnsemble",
    "LinkConfiguration",
    "LinkReport",
    "WirelessLink",
]
