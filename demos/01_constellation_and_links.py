"""
Building a constellation and inspecting its laser links
========================================================

A Walker-style shell is described by four numbers: altitude, inclination,
number of orbital planes, and satellites per plane. This script builds
the dense 72x22 shell at 550 km / 53 deg, propagates a few satellites,
and looks at the +GRID inter-satellite links.
"""

import numpy as np

import leofault as lf

# one shell: 72 planes x 22 satellites
shell = lf.ShellSpec(altitude_km=550.0, inclination_deg=53.0, planes=72, sats_per_plane=22)
constellation = lf.build_constellation([shell])
print(f"satellites: {len(constellation)}")

# orbital period at this altitude
period = lf.orbital_period(550.0)
print(f"orbital period: {period:.1f} s ({period / 60:.1f} min)")

# propagate one satellite for a quarter orbit; the radius stays constant
sat = lf.SatelliteId(shell=0, plane=0, index=0)
for t in np.linspace(0.0, period / 4.0, 5):
    pos = lf.propagate(constellation[sat], float(t))
    print(f"  t={t:7.1f} s  position=({pos[0]:8.1f}, {pos[1]:8.1f}, {pos[2]:8.1f}) km"
          f"  radius={np.linalg.norm(pos):.3f} km")

# each satellite links to 4 neighbors: 2 in its plane, 1 in each adjacent plane
topology = lf.GridTopology(constellation)
neighbors = {b if a == sat else a for a, b in topology.edge_ids if sat in (a, b)}
print(f"\n+GRID neighbors of (plane 0, slot 0): {sorted((n.plane, n.index) for n in neighbors)}")

# a snapshot evaluates grazing altitude and viability for every link
links = topology.snapshot(t_s=0.0, threshold_km=80.0)
print(f"links: {len(links)} (expected 2 * 72 * 22 = {2 * 72 * 22})")

intra = [l.grazing_km for l in links if l.kind == "intra_plane"]
cross = [l.grazing_km for l in links if l.kind == "cross_plane"]
print(f"intra-plane grazing altitude: {min(intra):.1f} .. {max(intra):.1f} km")
print(f"cross-plane grazing altitude: {min(cross):.1f} .. {max(cross):.1f} km")
print(f"all viable at 80 km: {all(l.viable for l in links)}")

# grazing altitude drops fast with the separation angle; beyond ~47 deg the
# segment between two 550 km satellites intersects the Earth
print("\nseparation angle vs grazing altitude at 550 km:")
r = 6371.0 + 550.0
for theta in (10.0, 20.0, 40.0, 60.0):
    p1 = np.array([r, 0.0, 0.0])
    p2 = np.array([r * np.cos(np.radians(theta)), r * np.sin(np.radians(theta)), 0.0])
    print(f"  {theta:5.1f} deg -> {lf.grazing_altitude(p1, p2):8.1f} km")
