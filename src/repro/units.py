"""Physical units, constants, and small conversion helpers.

The SAVAT paper reports its headline quantity in zeptojoules (1 zJ =
1e-21 J) and its spectra in W/Hz, while instruments usually display dBm.
This module centralizes those conversions so magnitudes stay consistent
across the EM model, the instrument models, and the reporting code.
"""

from __future__ import annotations

import math

#: One zeptojoule in joules.  SAVAT values in the paper are O(1) zJ.
ZEPTOJOULE = 1e-21

#: One attojoule in joules (occasionally convenient for larger SAVATs).
ATTOJOULE = 1e-18

#: Boltzmann constant (J/K), used for the thermal noise floor.
BOLTZMANN = 1.380649e-23

#: Reference temperature (K) for thermal noise calculations.
ROOM_TEMPERATURE_K = 290.0

#: Speed of light (m/s), used for near-field/far-field boundary estimates.
SPEED_OF_LIGHT = 299_792_458.0

#: Reference impedance (ohms) used when interpreting antenna voltages as
#: power.  Instruments in this library use a 50-ohm convention.
REFERENCE_IMPEDANCE = 50.0


def watts_to_dbm(power_w: float) -> float:
    """Convert a power in watts to dBm.

    Raises
    ------
    ValueError
        If ``power_w`` is not strictly positive (dBm is undefined).
    """
    if power_w <= 0.0:
        raise ValueError(f"power must be positive to express in dBm, got {power_w!r}")
    return 10.0 * math.log10(power_w / 1e-3)


def thermal_noise_psd(temperature_k: float = ROOM_TEMPERATURE_K) -> float:
    """One-sided thermal noise power spectral density kT in W/Hz.

    At room temperature this is about 4e-21 W/Hz (-174 dBm/Hz), several
    orders of magnitude below the instrument floor the paper reports
    (~6e-18 W/Hz in Figure 8), which is why the instrument floor
    dominates the measured A/A diagonals.
    """
    if temperature_k <= 0.0:
        raise ValueError(f"temperature must be positive, got {temperature_k!r}")
    return BOLTZMANN * temperature_k
