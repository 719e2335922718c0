"""Physical constants and limits shared across the simulator, and two input rules.

The number-text rule (is_plain_number_text) says which text is a number;
the range rule (_check_range) checks a number against its interval, with
NaN never in range, and names the field and the interval when it fails.

All distances are kilometers and all times are seconds unless a name says
otherwise. The Earth is a sphere. Constellation, ISL and ground geometry
take its radius as earth_radius_km (a simulation passes its config's),
default EARTH_RADIUS_KM, and reject one not in (0, inf); the model
lookups (orbital_period, slant_range_km) use the mean sphere.
"""

import math

EARTH_RADIUS_KM = 6371.0
MU_EARTH_M3_S2 = 3.986004418e14
SPEED_OF_LIGHT_KM_S = 299792.458
SIDEREAL_DAY_S = 86164.0905
SECONDS_PER_DAY = 86400.0
SECONDS_PER_YEAR = 365.25 * 86400.0

# a little over 24 h at 0.1 s; bounds the time grid a scan or schedule steps through
MAX_STEPS = 1_000_000


def is_plain_number_text(text: str) -> bool:
    """The rule every reader of numbers in text (flags, TLE, CSV) applies.

    Only ASCII, since int() and float() also read other scripts' digits,
    and no '_', which they read as a digit separator.
    """
    return text.isascii() and "_" not in text


def _check_range(name: str, value, low, high=math.inf, ends: str = "[]", error: type = ValueError) -> None:
    """The range rule: raise error naming name unless value lies between low and high.

    ends holds the brackets: "(" leaves low out, ")" leaves high out, and an
    included infinite bound leaves that side unbounded. The test asks whether
    value is inside, so NaN, for which every comparison is false, never is.
    Float bounds keep the check cheap; the message drops their ".0".
    """
    if (value > low or value == low and ends[0] == "[") and (value < high or value == high and ends[1] == "]"):
        return
    low_text, high_text = (str(bound).removesuffix(".0") for bound in (low, high))
    if high == math.inf and ends[1] == "]" and low != -math.inf:
        bound = f"{'>=' if ends[0] == '[' else '>'} {low_text}"
    else:
        bound = f"in {ends[0]}{low_text}, {high_text}{ends[1]}"
    raise error(f"{name} must be {bound}, got {value}")
