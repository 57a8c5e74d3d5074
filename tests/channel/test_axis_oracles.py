"""Oracles for the closed-form distance and orientation axis layer.

``WirelessLink._axis_parameters`` evaluates the distance axis as
closed-form layout geometry and the orientation axes as Jones rotations,
with no per-point Python objects.  These tests check those arrays
against references that never touch the axis layer:

* fresh scalar links whose geometry is built here, from
  :meth:`LinkGeometry.transmissive` / :meth:`LinkGeometry.reflective`,
  and whose antennas come from :meth:`Antenna.rotated`, probed through
  the scalar ``received_power_dbm`` (a 0-d pass with no grid axis);
* physics that holds for any implementation: Malus's law for a rotated
  receive dipole and the -20 dB/decade Friis slope, on a link with no
  surface and no clutter, and the linearity of the whole budget in
  transmit power (+k dB in gives +k dB out) on every layout.
"""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from repro.channel.antenna import (
    circular_antenna,
    dipole_antenna,
    directional_antenna,
)
from repro.channel.geometry import LinkGeometry, Position
from repro.channel.grid import ProbeGrid
from repro.channel.link import DeploymentMode, LinkConfiguration, WirelessLink
from repro.channel.multipath import MultipathEnvironment
from repro.constants import SPEED_OF_LIGHT
from repro.metasurface.design import llama_design
from repro.units import amplitude_to_db, db_to_linear, linear_to_db

TOLERANCE_DB = 1e-9

SURFACE = llama_design().build()

DISTANCES = np.array([0.05, 0.24, 0.5, 1.0, 2.75, 10.0])
ANGLES = np.array([0.0, 15.0, 45.0, 90.0, 137.5, 180.0, 270.0, -30.0,
                   405.0])
BIAS_PAIRS = [(0.0, 0.0), (7.0, 22.0), (30.0, 30.0)]


def _configuration(layout, tx_antenna=None, rx_antenna=None,
                   environment=None):
    """One of the four canonical layouts the distance axis distinguishes."""
    aimed = layout in ("reflective", "aimed-no-surface")
    if tx_antenna is None:
        tx_antenna = (directional_antenna(orientation_deg=20.0) if aimed
                      else dipole_antenna(orientation_deg=20.0))
    if rx_antenna is None:
        rx_antenna = (directional_antenna(orientation_deg=70.0) if aimed
                      else dipole_antenna(orientation_deg=70.0))
    if aimed:
        geometry = LinkGeometry.reflective(0.8, 0.6)
    else:
        geometry = LinkGeometry.transmissive(0.6)
    surface = {
        "transmissive": (SURFACE, DeploymentMode.TRANSMISSIVE),
        "reflective": (SURFACE, DeploymentMode.REFLECTIVE),
        "no-surface": (None, DeploymentMode.NONE),
        "aimed-no-surface": (None, DeploymentMode.NONE),
    }[layout]
    return LinkConfiguration(
        tx_antenna=tx_antenna, rx_antenna=rx_antenna, geometry=geometry,
        environment=environment or MultipathEnvironment.laboratory(),
        metasurface=surface[0], deployment=surface[1],
        aim_at_surface=aimed)


LAYOUTS = ("transmissive", "reflective", "no-surface", "aimed-no-surface")


def _reference_geometry(config, distance_m, surface_fraction=0.5):
    """The layout at one swept distance, built without the link."""
    if (config.aim_at_surface or
            config.deployment is DeploymentMode.REFLECTIVE):
        return LinkGeometry.reflective(config.geometry.direct_distance_m,
                                       distance_m)
    return LinkGeometry.transmissive(distance_m,
                                     surface_fraction=surface_fraction)


def _scalar_power(config, vx=0.0, vy=0.0):
    return WirelessLink(config).received_power_dbm(vx, vy)


def _sweep(config, axis, values, vx=0.0, vy=0.0):
    return WirelessLink(config).evaluate_grid(
        ProbeGrid.aligned(**{axis: values}, vx=vx, vy=vy))


class TestDistanceAxisAgainstScalarGeometry:
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_distance_sweep_matches_fresh_geometries(self, layout):
        config = _configuration(layout)
        for vx, vy in BIAS_PAIRS:
            swept = _sweep(config, "distance", DISTANCES, vx, vy)
            reference = [
                _scalar_power(replace(config, geometry=_reference_geometry(
                    config, float(d))), vx, vy)
                for d in DISTANCES]
            np.testing.assert_allclose(swept, reference, rtol=0,
                                       atol=TOLERANCE_DB)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_distance_plane_keeps_its_shape(self, layout):
        config = _configuration(layout)
        plane = DISTANCES.reshape(2, 3)
        swept = _sweep(config, "distance", plane, 12.0, 3.0)
        assert swept.shape == (2, 3)
        np.testing.assert_allclose(
            swept.ravel(), _sweep(config, "distance", DISTANCES, 12.0, 3.0),
            rtol=0, atol=TOLERANCE_DB)

    @pytest.mark.parametrize("fraction", [0.25, 0.8])
    def test_off_centre_surface_keeps_its_fraction(self, fraction):
        config = replace(_configuration("transmissive"),
                         geometry=LinkGeometry.transmissive(
                             0.8, surface_fraction=fraction))
        swept = _sweep(config, "distance", DISTANCES, 9.0, 27.0)
        reference = [
            _scalar_power(replace(config, geometry=_reference_geometry(
                config, float(d), surface_fraction=fraction)), 9.0, 27.0)
            for d in DISTANCES]
        np.testing.assert_allclose(swept, reference, rtol=0,
                                   atol=TOLERANCE_DB)

    @pytest.mark.parametrize("surface_x", [1.5, -0.4, 0.0])
    def test_non_canonical_surface_falls_back_to_midway(self, surface_x):
        geometry = LinkGeometry(Position(0.0, 0.0), Position(1.0, 0.0),
                                Position(surface_x, 0.0))
        config = replace(_configuration("transmissive"), geometry=geometry)
        swept = _sweep(config, "distance", DISTANCES, 30.0, 0.0)
        reference = [
            _scalar_power(replace(config, geometry=_reference_geometry(
                config, float(d), surface_fraction=0.5)), 30.0, 0.0)
            for d in DISTANCES]
        np.testing.assert_allclose(swept, reference, rtol=0,
                                   atol=TOLERANCE_DB)

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("bad", [0.0, -0.3])
    def test_non_positive_distance_raises_the_geometry_error(self, layout,
                                                             bad):
        config = _configuration(layout)
        with pytest.raises(ValueError) as expected:
            _reference_geometry(config, bad)
        with pytest.raises(ValueError,
                           match=re.escape(str(expected.value))):
            _sweep(config, "distance", np.array([0.5, bad, 1.0]))

    def test_non_positive_separation_raises_the_geometry_error(self):
        geometry = LinkGeometry(Position(0.0, 0.0), Position(0.0, 0.0),
                                Position(0.0, 0.5))
        config = replace(_configuration("aimed-no-surface"),
                         geometry=geometry)
        with pytest.raises(ValueError) as expected:
            LinkGeometry.reflective(geometry.direct_distance_m, 0.5)
        with pytest.raises(ValueError,
                           match=re.escape(str(expected.value))):
            _sweep(config, "distance", np.array([0.5]))

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("axis", ["distance", "rx_orientation",
                                      "tx_orientation"])
    def test_zero_length_axis_evaluates(self, layout, axis):
        swept = _sweep(_configuration(layout), axis, np.array([]))
        assert swept.shape == (0,)


class TestOrientationAxesAgainstRotatedAntennas:
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("end", ["tx", "rx"])
    def test_orientation_sweep_matches_rotated_antennas(self, layout, end):
        config = _configuration(layout)
        field = f"{end}_antenna"
        for vx, vy in BIAS_PAIRS:
            swept = _sweep(config, f"{end}_orientation", ANGLES, vx, vy)
            reference = [
                _scalar_power(replace(config, **{
                    field: getattr(config, field).rotated(float(angle))}),
                    vx, vy)
                for angle in ANGLES]
            np.testing.assert_allclose(swept, reference, rtol=0,
                                       atol=TOLERANCE_DB)

    @pytest.mark.parametrize("end", ["tx", "rx"])
    def test_zero_degrees_is_the_unrotated_base_polarization(self, end):
        # The configured antennas sit at 20/70 degrees; sweeping to 0
        # must give the base polarization, not the configured one.
        config = _configuration("transmissive")
        field = f"{end}_antenna"
        base = replace(getattr(config, field), orientation_deg=0.0)
        swept = _sweep(config, f"{end}_orientation", np.array([0.0]),
                       7.0, 22.0)
        assert swept[0] == pytest.approx(
            _scalar_power(replace(config, **{field: base}), 7.0, 22.0),
            abs=TOLERANCE_DB)

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("end", ["tx", "rx"])
    def test_circular_antenna_rotation(self, layout, end):
        config = _configuration(layout, **{f"{end}_antenna":
                                           circular_antenna()})
        field = f"{end}_antenna"
        swept = _sweep(config, f"{end}_orientation", ANGLES, 30.0, 0.0)
        reference = [
            _scalar_power(replace(config, **{
                field: getattr(config, field).rotated(float(angle))}),
                30.0, 0.0)
            for angle in ANGLES]
        np.testing.assert_allclose(swept, reference, rtol=0,
                                   atol=TOLERANCE_DB)

    def test_rotated_jones_vectors_are_unit_norm(self):
        link = WirelessLink(_configuration("transmissive",
                                           tx_antenna=circular_antenna()))
        angles = np.linspace(-720.0, 720.0, 97).reshape(97, 1)
        jones = link._axis_parameters("tx_orientation", angles)["tx_jones"]
        assert jones.shape == (97, 1, 2)
        np.testing.assert_allclose(np.sum(np.abs(jones) ** 2, axis=-1), 1.0,
                                   rtol=0, atol=1e-12)


class TestPhysicsOracles:
    """Implementation-independent laws on a free-space link."""

    @staticmethod
    def _free_space(isolation_db=25.0, tx_gain_dbi=2.15, rx_gain_dbi=2.15):
        return LinkConfiguration(
            tx_antenna=dipole_antenna(gain_dbi=tx_gain_dbi),
            rx_antenna=dipole_antenna(gain_dbi=rx_gain_dbi,
                                      cross_pol_isolation_db=isolation_db),
            geometry=LinkGeometry.transmissive(1.5),
            tx_power_dbm=10.0,
            environment=MultipathEnvironment(ray_count=0))

    @pytest.mark.parametrize("isolation_db", [12.0, 25.0, 40.0])
    def test_receive_rotation_follows_malus_law(self, isolation_db):
        config = self._free_space(isolation_db=isolation_db)
        angles = np.arange(-180.0, 181.0, 7.5)
        swept = _sweep(config, "rx_orientation", angles)
        aligned = _sweep(config, "rx_orientation", np.array([0.0]))[0]
        floor = db_to_linear(-isolation_db)
        expected = linear_to_db(np.maximum(np.cos(np.radians(angles)) ** 2,
                                           floor))
        np.testing.assert_allclose(swept - aligned, expected, rtol=0,
                                   atol=TOLERANCE_DB)

    def test_aligned_power_is_the_friis_budget(self):
        config = self._free_space()
        wavelength = SPEED_OF_LIGHT / config.frequency_hz
        distances = np.array([0.3, 1.5, 7.0])
        friis = (config.tx_power_dbm + 2 * 2.15 -
                 amplitude_to_db(4.0 * math.pi * distances / wavelength))
        np.testing.assert_allclose(_sweep(config, "distance", distances),
                                   friis, rtol=0, atol=TOLERANCE_DB)

    @pytest.mark.parametrize("layout", ["transmissive", "reflective",
                                        "no-surface"])
    def test_tx_power_steps_pass_through_unchanged(self, layout):
        # Every path — direct, via the surface, multipath clutter — is
        # linear in the transmitted field, so +k dB in is +k dB out.
        config = _configuration(layout)
        steps = np.array([-17.5, -3.0, 0.0, 0.5, 6.0, 20.0])
        powers = config.tx_power_dbm + steps
        for vx, vy in BIAS_PAIRS:
            base = _scalar_power(config, vx, vy)
            fresh = [_scalar_power(config.with_tx_power_dbm(float(power)),
                                   vx, vy) for power in powers]
            np.testing.assert_allclose(np.subtract(fresh, base), steps,
                                       rtol=0, atol=TOLERANCE_DB)
            swept = _sweep(config, "tx_power", powers, vx, vy)
            np.testing.assert_allclose(swept - base, steps, rtol=0,
                                       atol=TOLERANCE_DB)

    def test_a_distance_decade_costs_twenty_db(self):
        config = self._free_space()
        near = np.array([0.1, 0.25, 0.7, 1.0, 3.3])
        powers = _sweep(config, "distance", np.stack([near, 10.0 * near]))
        np.testing.assert_allclose(powers[0] - powers[1], 20.0, rtol=0,
                                   atol=TOLERANCE_DB)
