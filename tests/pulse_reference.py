"""Test-side reconstruction of `evolve.decompose_pulse` tables.

A pulse table's columns are rebuilt into propagators one step at a time:
after step k, the product of the equatorial rotations so far followed by
one z rotation of the summed z angles.
"""
import numpy as np


def prefix_propagators(pulse):
    """The reconstructed propagator after each step of a pulse table."""
    acc = np.eye(2, dtype=complex)
    theta = 0.0
    out = []
    for duration, z_angle, amplitude, phase in zip(pulse["duration"], pulse["z_angle"],
                                                   pulse["xy_amplitude"], pulse["xy_phase"]):
        gamma = amplitude * duration
        c, s = np.cos(gamma), -1.0j * np.sin(gamma)
        acc = np.array([[c, s * np.exp(-1.0j * phase)], [s * np.exp(1.0j * phase), c]]) @ acc
        theta += z_angle
        out.append(np.diag([np.exp(-1.0j * theta), np.exp(1.0j * theta)]) @ acc)
    return out


def reconstruct_propagator(pulse) -> np.ndarray:
    """The whole run's unitary implied by a pulse table."""
    return prefix_propagators(pulse)[-1]
