"""Writes ``src/symrec/default_profile.py`` from the profile's compute path.

    PYTHONPATH=src python tests/profile_table.py

``PacketProfile`` reads that module at its default sharpness instead of
computing the constants; ``test_wave_packets`` recomputes them here and
requires the table to match, ``float.hex`` for ``float.hex``.  Any change to
the profile's arithmetic fails that test until this script is rerun.
"""

from __future__ import annotations

import math
from pathlib import Path
from unittest import mock

from symrec import default_profile, wave_packets

HEADER = '''"""Derived constants of the default packet profile; generated, do not edit.

At ``SHARPNESS``, the library and CLI default, ``PacketProfile`` takes its
normalization ``B``, its two radii and its profile on the 512-point y grid,
``CHI_Y`` (in grid order), from here instead of from the Gauss-Legendre
rule, the radius scan and the physical-side cache.  They are that compute
path's output at this sharpness, ``float.hex`` for ``float.hex``.  A change to
the profile's arithmetic must regenerate this file:

    PYTHONPATH=src python tests/profile_table.py
"""
'''


def computed_profile(sharpness: float = 1.0):
    """A profile built by the compute path, even at the tabulated sharpness."""
    with mock.patch.object(default_profile, "SHARPNESS", math.nan):
        return wave_packets.PacketProfile(sharpness)


def constants(profile) -> dict:
    """Each tabulated constant's name and its ``float.hex``."""
    out = {
        "B": float(profile.b).hex(),
        "TAIL_RADIUS": float(profile.tail_radius).hex(),
        "RADIUS_CACHE": float(profile.radius_cache).hex(),
    }
    out.update((f"CHI_Y[{i}]", float(v).hex()) for i, v in enumerate(profile.chi_y))
    return out


def source(profile) -> str:
    """The text of ``default_profile.py`` for this profile."""
    hexes = constants(profile)
    lines = [HEADER, f"SHARPNESS = {profile.sharpness!r}"]
    lines += [f'{name} = float.fromhex("{hexes.pop(name)}")'
              for name in ("B", "TAIL_RADIUS", "RADIUS_CACHE")]
    chi_y = [f'"{h}",' for h in hexes.values()]
    lines.append("CHI_Y = (")
    lines += ["    " + " ".join(chi_y[i : i + 3]) for i in range(0, len(chi_y), 3)]
    lines.append(")")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    path = Path(default_profile.__file__)
    path.write_text(source(computed_profile()), encoding="utf-8")
    print(f"wrote {path}")
