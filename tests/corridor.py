"""The two-surface corridor the unit tests share, read the way a manifest is read.

CORRIDOR holds the layout's geometry and path loss: -20 dB at 1 m,
exponents 2.2 and 2.8, surfaces 10 m to either side at 10 m height, the
user 2 m short of them. corridor_link adds training noise -110 dBm,
receiver noise -90 dBm and transmit power 40 dBm.
"""
import math

from rispilot.cli import _scenario
from rispilot.scenario import dbm_to_watts

CORRIDOR = {"d_v": 10.0, "d_h": 10.0, "d_u": 2.0, "c0_db": -20.0, "alpha_br": 2.2,
            "alpha_ru": 2.8}


def corridor_link(d0, d, m1, m2, p_avg_dbm=-13.0):
    """The link of a corridor of length d0 with the user at offset d."""
    stored = {
        "element_counts": [m1, m2], "p_avg_w": dbm_to_watts(p_avg_dbm),
        "q_w": dbm_to_watts(40.0), "sigma_z_sq_w": dbm_to_watts(-110.0),
        "sigma_n_sq_w": dbm_to_watts(-90.0),
        "geometry": {"d0": d0, "user_y": d, "k_br": math.inf, "k_ru": 0.0, **CORRIDOR},
    }
    return _scenario(stored, "scenario", config=False).link
