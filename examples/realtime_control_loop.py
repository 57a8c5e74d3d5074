#!/usr/bin/env python3
"""Real-time control walkthrough: supply, VISA, synchronization, Algorithm 1.

The previous examples use the high-level :class:`LlamaSystem` facade.
This one drives the pieces individually, the way the paper's control
script does (Sec. 3.3):

1. talk to the programmable power supply over (simulated) VISA/SCPI,
2. program a linear voltage ramp and label the receiver's samples with
   the bias state that produced them (Eq. 13),
3. run the coarse-to-fine sweep (Algorithm 1) and compare its cost with
   an exhaustive scan.

Run with::

    python examples/realtime_control_loop.py
"""

from repro.api import LinkBackend
from repro.channel.antenna import directional_antenna
from repro.channel.geometry import LinkGeometry
from repro.channel.link import DeploymentMode, LinkConfiguration, WirelessLink
from repro.core.controller import CentralizedController, VoltageSweepConfig
from repro.core.synchronization import SampleVoltageSynchronizer, group_power_by_state
from repro.hardware.power_supply import ProgrammablePowerSupply
from repro.hardware.visa import VisaResourceManager
from repro.metasurface.design import llama_design


def main() -> None:
    surface = llama_design().build()
    link = WirelessLink(LinkConfiguration(
        tx_antenna=directional_antenna(orientation_deg=0.0),
        rx_antenna=directional_antenna(orientation_deg=90.0),
        geometry=LinkGeometry.transmissive(0.42),
        metasurface=surface,
        deployment=DeploymentMode.TRANSMISSIVE,
    ))

    # --- 1. SCPI over simulated VISA -------------------------------------
    supply = ProgrammablePowerSupply()
    manager = VisaResourceManager()
    resource = "USB0::0x05E6::0x2230::SIM::INSTR"
    manager.register(resource, supply.scpi_handler)
    with manager.open_resource(resource) as session:
        print("Instrument:", session.query("*IDN?"))
        session.write("INST:SEL CH1")
        session.write("SOUR:VOLT 12")
        session.write("OUTP ON")
        print("CH1 programmed to", session.query("SOUR:VOLT?"), "V")

    # --- 2. Voltage ramp + Eq. 13 sample labelling ------------------------
    # Ramp Vx from 0 to 30 V in 2 V steps at the 50 Hz switching rate while
    # the receiver samples at 1 kHz (power-report rate).
    synchronizer = SampleVoltageSynchronizer(
        initial_vx=0.0, initial_vy=15.0,
        voltage_step_x=2.0, voltage_step_y=0.0,
        switch_interval_s=supply.switch_interval_s,
        start_offset_s=0.004,
    )
    report_rate_hz = 1000.0
    sample_times = [i / report_rate_hz for i in range(320)]
    states = synchronizer.label_samples(sample_times)
    powers = [link.received_power_dbm(min(state.vx, 30.0), state.vy)
              for state in states]
    per_state = group_power_by_state(states, powers)
    strongest = max(per_state.items(), key=lambda item: item[1])
    print(f"\nRamp labelling: {len(per_state)} distinct bias states observed, "
          f"{synchronizer.samples_per_step(report_rate_hz):.0f} samples/state")
    print(f"Strongest state on the ramp: Vx={strongest[0][0]:.0f} V, "
          f"Vy={strongest[0][1]:.0f} V at {strongest[1]:.1f} dBm")

    # --- 3. Algorithm 1 vs exhaustive scan --------------------------------
    controller = CentralizedController(VoltageSweepConfig(iterations=2,
                                                          switches_per_axis=5))
    backend = LinkBackend(link)
    fast = controller.coarse_to_fine_sweep(backend)
    full = controller.full_sweep(backend, step_v=1.0)
    print("\nSearch-strategy comparison:")
    print(f"  coarse-to-fine : best {fast.best_power_dbm:6.1f} dBm "
          f"with {fast.probe_count:4d} probes (~{fast.duration_s:5.1f} s)")
    print(f"  exhaustive     : best {full.best_power_dbm:6.1f} dBm "
          f"with {full.probe_count:4d} probes (~{full.duration_s:5.1f} s)")
    print(f"  optimality gap : {full.best_power_dbm - fast.best_power_dbm:.2f} dB"
          f"  |  speed-up: {full.duration_s / fast.duration_s:.0f}x")


if __name__ == "__main__":
    main()
