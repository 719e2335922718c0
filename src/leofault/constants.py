"""Physical constants shared across the simulator, and the rule for numbers in text.

All distances are kilometers and all times are seconds unless a name says
otherwise. The Earth is modeled as a sphere of mean radius; functions that
depend on the radius take it as a keyword argument defaulting to
EARTH_RADIUS_KM so alternative reference spheres can be used.
"""

EARTH_RADIUS_KM = 6371.0
MU_EARTH_M3_S2 = 3.986004418e14
SPEED_OF_LIGHT_KM_S = 299792.458
SIDEREAL_DAY_S = 86164.0905
SECONDS_PER_DAY = 86400.0
SECONDS_PER_YEAR = 365.25 * 86400.0


def is_plain_number_text(text: str) -> bool:
    """The rule every reader of numbers in text (flags, TLE, CSV) applies.

    Only ASCII, since int() and float() also read other scripts' digits,
    and no '_', which they read as a digit separator.
    """
    return text.isascii() and "_" not in text
