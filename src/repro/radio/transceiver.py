"""Simulated SDR transmitter and receiver (USRP N210 stand-in).

In the paper the USRP only plays two roles: it radiates a continuous
tone at a configurable power/frequency, and it acts as a calibrated
power meter whose sample stream the controller averages.  The simulated
transceiver reproduces exactly those roles against the
:class:`~repro.channel.link.WirelessLink` channel model, including the
receiver noise floor, so the controller sees realistic (noisy) power
reports rather than exact link-budget numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.channel.grid import ProbeGrid
from repro.channel.link import WirelessLink
from repro.radio.signal import BasebandSignal, cosine_tone
from repro.units import db_to_amplitude, dbm_to_milliwatts, milliwatts_to_dbm


@dataclass(frozen=True)
class SimulatedTransmitter:
    """A tone transmitter with configurable power and frequency.

    Attributes
    ----------
    tx_power_dbm:
        Transmit power fed to the antenna port.
    tone_frequency_hz:
        Baseband tone frequency (paper: 500 kHz).
    sample_rate_hz:
        DAC/ADC sample rate (paper: 1 MHz).
    """

    tx_power_dbm: float = 0.0
    tone_frequency_hz: float = 500e3
    sample_rate_hz: float = 1e6

    def __post_init__(self) -> None:
        if self.tone_frequency_hz <= 0 or self.sample_rate_hz <= 0:
            raise ValueError("tone frequency and sample rate must be positive")

    def transmit(self, duration_s: float = 0.01) -> BasebandSignal:
        """Generate the transmitted baseband waveform."""
        return cosine_tone(frequency_hz=self.tone_frequency_hz,
                           sample_rate_hz=self.sample_rate_hz,
                           duration_s=duration_s,
                           power_dbm=self.tx_power_dbm)


@dataclass(frozen=True)
class ReceivedCapture:
    """A received sample capture plus its summary statistics."""

    signal: BasebandSignal
    mean_power_dbm: float
    true_power_dbm: float
    noise_power_dbm: float

    @property
    def snr_db(self) -> float:
        """Estimated SNR of the capture."""
        return self.mean_power_dbm - self.noise_power_dbm


class SimulatedReceiver:
    """A sampling receiver attached to a :class:`WirelessLink`.

    Parameters
    ----------
    link:
        The channel model whose output the receiver samples.
    sample_rate_hz:
        ADC sample rate (paper: 1 MHz).
    seed:
        Seed of the receiver's thermal-noise generator; captures are
        reproducible given the seed.
    """

    def __init__(self, link: WirelessLink, sample_rate_hz: float = 1e6,
                 seed: int = 7):
        if sample_rate_hz <= 0:
            raise ValueError("sample rate must be positive")
        self.link = link
        self.sample_rate_hz = sample_rate_hz
        self._rng = np.random.default_rng(seed)

    def capture(self, duration_s: float = 0.01, vx: float = 0.0,
                vy: float = 0.0,
                tone_frequency_hz: float = 500e3) -> ReceivedCapture:
        """Capture a noisy sample stream at one bias operating point."""
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        true_power_dbm = self.link.received_power_dbm(vx, vy)
        noise_power_dbm = self.link.noise_power_dbm()
        clean = cosine_tone(frequency_hz=tone_frequency_hz,
                            sample_rate_hz=self.sample_rate_hz,
                            duration_s=duration_s,
                            power_dbm=true_power_dbm)
        noisy = clean.with_noise(noise_power_dbm, rng=self._rng)
        return ReceivedCapture(
            signal=noisy,
            mean_power_dbm=noisy.power_dbm(),
            true_power_dbm=true_power_dbm,
            noise_power_dbm=noise_power_dbm,
        )

    def measure_power_dbm(self, vx: float = 0.0, vy: float = 0.0,
                          duration_s: float = 0.005) -> float:
        """One averaged power report, as the controller consumes them."""
        return self.capture(duration_s=duration_s, vx=vx, vy=vy).mean_power_dbm

    def measure_power_dbm_sweep(self, axis: str, values, vx=0.0, vy=0.0,
                                duration_s: float = 0.005,
                                tone_frequency_hz: float = 500e3) -> np.ndarray:
        """Batched noisy power reports over a whole sweep axis at once.

        Rows of the broadcast ``(values, vx, vy)`` batch are independent
        axis points; columns are sequential probes (a 1-D batch is
        treated as axis points sharing one probe).  One noise
        realisation is drawn from this receiver's generator per probe
        column and shared across rows — exactly the sample streams a
        Python loop of per-point receivers constructed with the same
        seed would observe, so the vectorized sweep reproduces the
        scalar :meth:`measure_power_dbm` loop's reports to
        floating-point round-off, and the returned array keeps the
        broadcast input shape.  The capture itself is evaluated in
        closed form: for a unit tone ``u`` and noise block ``n``, the
        mean power of ``a u + n`` is
        ``a^2 mean|u|^2 + 2 a mean(Re(u conj(n))) + mean|n|^2``,
        so only three reductions per probe column are needed regardless
        of how many axis points share it.
        """
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        raw = self.link.evaluate_grid(
            ProbeGrid.aligned(**{axis: values}, vx=vx, vy=vy))
        if raw.ndim > 2:
            raise ValueError("sweep probe batches must be at most 2-D "
                             "(axis points, probes)")
        true_powers = raw.reshape(-1, 1) if raw.ndim <= 1 else raw
        noise_power_dbm = self.link.noise_power_dbm()
        count = int(round(duration_s * self.sample_rate_hz))
        timestamps = np.arange(count) / self.sample_rate_hz
        tone = np.exp(1j * (2.0 * math.pi * tone_frequency_hz * timestamps))
        tone_power = np.mean(np.abs(tone) ** 2)
        noise_mw = float(dbm_to_milliwatts(noise_power_dbm))
        scale = math.sqrt(noise_mw / 2.0)
        amplitudes = db_to_amplitude(true_powers)
        powers_dbm = np.empty_like(true_powers)
        for column in range(true_powers.shape[1]):
            noise = (self._rng.normal(0.0, scale, count) +
                     1j * self._rng.normal(0.0, scale, count))
            cross = np.mean(np.real(tone * np.conj(noise)))
            noise_power = np.mean(np.abs(noise) ** 2)
            mean_mw = (amplitudes[:, column] ** 2 * tone_power +
                       2.0 * amplitudes[:, column] * cross + noise_power)
            powers_dbm[:, column] = milliwatts_to_dbm(mean_mw)
        return powers_dbm.reshape(raw.shape)

    def measure_average_dbm(self, seconds: float, vx: float = 0.0,
                            vy: float = 0.0, chunk_s: float = 0.01) -> float:
        """Average received power over a longer observation window.

        The paper's baseline measurements average 30 seconds of samples;
        simulating 30 M samples directly would be wasteful, so the window
        is split into chunks and the chunk powers are averaged in the
        linear domain, which is statistically equivalent for a
        stationary link.
        """
        if seconds <= 0 or chunk_s <= 0:
            raise ValueError("durations must be positive")
        chunk_count = max(1, int(round(seconds / chunk_s)))
        # Cap the simulated chunks; beyond a few dozen the average has
        # converged far below the 0.1 dB reporting resolution.
        chunk_count = min(chunk_count, 50)
        powers_mw = []
        for _ in range(chunk_count):
            capture = self.capture(duration_s=chunk_s, vx=vx, vy=vy)
            powers_mw.append(float(dbm_to_milliwatts(capture.mean_power_dbm)))
        return float(milliwatts_to_dbm(np.mean(powers_mw)))


__all__ = ["SimulatedTransmitter", "SimulatedReceiver", "ReceivedCapture"]
