"""
Ground-link degradation and orbital maneuvers
=============================================

Ground-to-satellite radio links degrade in two ways: rain attenuates the
signal (throughput drops to roughly 120/215 of nominal in moderate
rain), and the constant satellite motion forces handovers that show up
as short packet-loss spikes every minute or two.

Satellites also dodge debris: roughly monthly, a satellite raises or
lowers its orbit by 1-3 km for about a day. The script shows why that
barely matters for latency.
"""

import numpy as np

import leofault as lf

# --- rain fade ---

print("precipitation -> downlink throughput multiplier")
for mm_h in (0.0, 1.0, 2.0, 2.5, 3.0, 3.5, 4.0, 8.0):
    print(f"  {mm_h:4.1f} mm/h -> {lf.rain_multiplier(mm_h):.4f}")

# --- handover loss spikes ---

config = lf.FaultModelConfig()
spikes = lf.sample_handover_spikes(config, ["berlin"], 0.0, 3600.0, lf.RandomStreams(1))
gaps = np.diff([0.0] + [e.t_s for e in spikes])
print(f"\none hour of handover spikes for one station: {len(spikes)} events")
print(f"  inter-arrival: {gaps.min():.0f}..{gaps.max():.0f} s "
      f"(drawn uniformly from [60, 120] s)")
print(f"  loss rates: {min(e.params['loss_rate'] for e in spikes):.4f}.."
      f"{max(e.params['loss_rate'] for e in spikes):.4f}")

# the spikes can also be pinned to the geometric handover schedule of a
# station tracking the highest-elevation satellite
shell = lf.ShellSpec(550.0, 53.0, planes=72, sats_per_plane=22)
constellation = lf.build_constellation([shell])
station = lf.GroundStation("mid_lat", latitude_deg=30.0, longitude_deg=0.0)
windows = lf.visibility_windows(station, constellation, 0.0, 1800.0, 10.0)
schedule = lf.handover_schedule(windows, station, constellation, step_s=1.0)
print(f"\ngeometric schedule: {len(windows)} visibility windows, "
      f"{len(schedule)} handovers in 30 min")
geometric = lf.sample_handover_spikes(
    config, [station.id], 0.0, 1800.0, lf.RandomStreams(1),
    mode="geometric", schedules={station.id: [t for t, _, _ in schedule]},
)
print(f"geometric-mode spikes: {len(geometric)} (one per handover)")

# --- conjunction-avoidance maneuvers ---

fleet = sorted(constellation)[:100]
maneuvers = lf.sample_maneuvers(config, fleet, 0.0, 365.25 * 86400.0, lf.RandomStreams(3))
per_sat = len(maneuvers) / len(fleet)
print(f"\nmaneuvers sampled for 100 satellites over one year: {len(maneuvers)}"
      f" ({per_sat:.1f} per satellite)")
print(f"  offsets: {min(e.dh_km for e in maneuvers):+.2f}..{max(e.dh_km for e in maneuvers):+.2f} km")

# a 3 km radial displacement changes any link length by at most 3 km per
# endpoint, i.e. at most ~20 microseconds of one-way delay
worst = 2 * 3.0 / lf.SPEED_OF_LIGHT_KM_S
print(f"  worst-case one-way delay change for +-3 km on both ends: {worst * 1e6:.2f} us")

sat = fleet[0]
active = [m for m in maneuvers if m.sat == sat]
if active:
    m = active[0]
    print(f"  satellite {sat}'s first maneuver at t={m.start_s:.0f} s offsets it "
          f"{m.dh_km:+.2f} km for {m.dwell_s:.0f} s")
