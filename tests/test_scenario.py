import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from corridor import CORRIDOR, corridor_link
from rispilot.cli import ScenarioSettings
from rispilot.scenario import (
    Link,
    cascaded_large_scale,
    dbm_to_watts,
    path_loss,
    watts_to_dbm,
)


@pytest.mark.parametrize(
    "dbm,watts",
    [(30.0, 1.0), (-110.0, 1e-14), (40.0, 10.0), (0.0, 1e-3), (-13.0, 5.011872336272725e-05)],
)
def test_dbm_to_watts_reference_points(dbm, watts):
    assert dbm_to_watts(dbm) == pytest.approx(watts, rel=1e-12)


@given(st.floats(min_value=1e-20, max_value=1e3))
def test_dbm_watts_round_trip(p_w):
    assert dbm_to_watts(watts_to_dbm(p_w)) == pytest.approx(p_w, rel=1e-12)


def test_watts_to_dbm_rejects_nonpositive():
    with pytest.raises(ValueError):
        watts_to_dbm(0.0)


def test_path_loss_reference_values():
    assert path_loss(1.0, -20.0, 2.2) == pytest.approx(0.01, rel=1e-12)
    assert path_loss(1.0, 0.0, 3.7) == pytest.approx(1.0, rel=1e-12)
    # frozen from direct evaluation of 1e-2 * 100**-2.2
    assert path_loss(100.0, -20.0, 2.2) == pytest.approx(3.9810717055349695e-07, rel=1e-12)


def test_path_loss_domain_errors():
    with pytest.raises(ValueError):
        path_loss(0.0, -20.0, 2.2)
    with pytest.raises(ValueError):
        path_loss(-3.0, -20.0, 2.2)
    with pytest.raises(ValueError):
        path_loss(5.0, -20.0, 0.0)


@given(
    st.floats(min_value=0.1, max_value=1e4),
    st.floats(min_value=0.1, max_value=1e4),
    st.floats(min_value=0.5, max_value=6.0),
)
# adjacent floats: both distances round to the same path loss
@example(0.1, 0.10000000000000002, 0.5)
def test_path_loss_decreasing_in_distance(d1, d2, alpha):
    lo, hi = sorted((d1, d2))
    assert path_loss(hi, -20.0, alpha) <= path_loss(lo, -20.0, alpha)
    if hi - lo > 1e-12 * lo:
        assert path_loss(hi, -20.0, alpha) < path_loss(lo, -20.0, alpha)


def test_cascaded_gain_is_product_of_link_losses():
    # both hops of surface 1 are 5 m long (3-4-5 triangles): 1e-2 / 25 each;
    # surface 0's user hop is sqrt(3^2 + 6^2 + 4^2) m
    beta_sq = cascaded_large_scale(4.0, 3.0, d_v=3.0, d_h=4.0, d_u=3.0, c0_db=-20.0,
                                   alpha_br=2.0, alpha_ru=2.0)
    assert beta_sq[1] == pytest.approx(1.6e-7, rel=1e-12)
    assert beta_sq[0] == pytest.approx(1e-4 / 25.0 / 61.0, rel=1e-12)
    assert _link(beta_sq, [4, 4]).beta[1] == pytest.approx(4e-4, rel=1e-12)


def test_cascaded_gain_outside_float_range_names_the_surface():
    # the user stands by surface 0, whose gain stays finite; the far
    # surface 1's gain underflows to 0
    steep = {**CORRIDOR, "alpha_ru": 245.0}
    with pytest.raises(ArithmeticError, match="surface 1 is 0.0 "):
        cascaded_large_scale(50.0, -8.0, **steep)
    with pytest.raises(ArithmeticError, match="surface 0 is inf "):
        cascaded_large_scale(50.0, -8.0, **{**steep, "c0_db": 4000.0})


def test_two_ris_layout_symmetric_user_sees_equal_gains():
    link = corridor_link(50.0, 0.0, 100, 100)
    assert link.beta_sq[0] == link.beta_sq[1]


def test_two_ris_layout_user_near_first_surface():
    link = corridor_link(50.0, -10.0, 100, 100)
    assert link.beta_sq[0] > link.beta_sq[1]


@pytest.mark.parametrize("d", [0.0, 4.0, 10.0, 16.0, 7.3])
def test_two_ris_layout_mirror_exchange_is_exact(d):
    plus = corridor_link(50.0, d, 64, 64).beta_sq
    minus = corridor_link(50.0, -d, 64, 64).beta_sq
    assert plus[0] == minus[1]
    assert plus[1] == minus[0]


def test_two_ris_layout_rejects_user_behind_bs():
    with pytest.raises(ValueError):
        cascaded_large_scale(1.0, 0.0, **CORRIDOR)


def _link(beta_sq, counts, **powers):
    fields = dict(sigma_z_sq=1.0, sigma_n_sq=1.0, q=1.0, p_avg=10.0)
    fields.update(powers)
    return Link(counts=counts, beta_sq=beta_sq, **fields)


def test_large_scale_rejects_nonpositive_gains():
    with pytest.raises(ValueError):
        _link([1.0, 0.0], [1, 1])
    with pytest.raises(ValueError):
        _link([-1.0], [1])
    with pytest.raises(ValueError):
        _link([1.0, math.inf], [1, 1])
    with pytest.raises(ValueError):
        _link([math.nan], [1])


def test_link_pins_the_gains_verbatim():
    gains = np.array([1.0, 0.25])
    link = _link(gains, [8, 8])
    assert np.array_equal(link.beta_sq, [1.0, 0.25]) and np.array_equal(link.beta, [1.0, 0.5])
    assert link.num_ris == 2 and type(link.num_ris) is int and list(link.counts) == [8, 8]
    assert math.isinf(link.k_br) and link.k_ru == 0.0
    # a read-only copy: neither the caller's array nor the link's can change it
    gains[0] = 7.0
    assert link.beta_sq[0] == 1.0
    with pytest.raises(ValueError):
        link.beta_sq[0] = 7.0
    with pytest.raises(ValueError):
        _link([1.0], [8, 8])
    with pytest.raises(ValueError):
        _link([1.0, 0.25], [8])


@pytest.mark.parametrize(
    "fields",
    [{"counts": [0, 8]}, {"counts": [8.0, 8.0]}, {"counts": []}, {"sigma_z_sq": -1.0},
     {"sigma_n_sq": 0.0}, {"sigma_z_sq": math.nan}, {"q": 0.0}, {"p_avg": math.inf},
     {"k_br": -1.0}, {"k_ru": math.nan}],
    ids=["zero-count", "float-count", "no-surface", "negative-training-noise",
         "zero-receiver-noise", "nan-training-noise", "zero-q", "infinite-p_avg",
         "negative-k_br", "nan-k_ru"],
)
def test_link_rejects_invalid_fields(fields):
    args = dict(counts=[8, 8], beta_sq=[1.0, 0.25], sigma_z_sq=1.0, sigma_n_sq=1.0,
                q=1.0, p_avg=1.0)
    args.update(fields)
    with pytest.raises(ValueError):
        Link(**args)


def test_settings_links_carry_the_config():
    powers = dict(p_avg_w=2e-3, q_w=10.0, sigma_z_sq_w=1e-14, sigma_n_sq_w=1e-12)
    geometric = ScenarioSettings(
        element_counts=(8, 16), **powers,
        geometry={"d0": 50.0, "user_y": 4.0, "k_br": 3.0, "k_ru": 0.5, **CORRIDOR},
    )
    channel = ScenarioSettings(element_counts=(8, 16, 4), **powers, beta_sq=(1e-9, 4e-10, 1e-11))
    links = [geometric.link_at(-6.0), geometric.fixed_link(), channel.fixed_link()]
    for link, counts, fading in zip(links, ([8, 16], [8, 16], [8, 16, 4]),
                                    ((3.0, 0.5), (3.0, 0.5), (math.inf, 0.0))):
        assert list(link.counts) == counts and (link.k_br, link.k_ru) == fading
        assert (link.p_avg, link.q, link.sigma_z_sq, link.sigma_n_sq) == (
            2e-3, 10.0, 1e-14, 1e-12)
    assert np.array_equal(links[1].beta_sq, cascaded_large_scale(50.0, 4.0, **CORRIDOR))
    assert links[0].beta_sq[0] > links[0].beta_sq[1]
    assert np.array_equal(links[2].beta_sq, [1e-9, 4e-10, 1e-11])
