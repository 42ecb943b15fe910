"""The update randomness of one event key, computed with Python ints.

The scalar formula ``event_stream`` applies through numpy arrays: each
channel is ``mix64`` of the key xor its tag, mapped to (0, 1].  Tests
use ``keyed_randomness`` to draw many independent updates cheaply, and
``tests/test_randomness.py`` checks it against ``event_stream``.
"""

from exactspin.randomness import UpdateRandomness, mix64

_TAGS = (0x3, 0x4, 0x5)  # u_primary, u_refine, u_match


def ref_unit(bits):
    """64 bits to a float in (0, 1]: the top 53 bits, centred."""
    return ((bits >> 11) + 0.5) * (1.0 / (1 << 53))


def keyed_randomness(key):
    return UpdateRandomness(*(ref_unit(mix64(key ^ tag)) for tag in _TAGS), key=key)
