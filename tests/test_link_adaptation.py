import numpy as np
import pytest

from beamsim.errors import ValidationError
from beamsim.link_adaptation import aggregate, aggregate_policy, cluster_rates
from beamsim.scenario import ModCodTable


@pytest.fixture
def table():
    return ModCodTable(np.array([-2.0, 1.0, 5.0, 9.0]), np.array([0.5, 1.0, 2.0, 3.0]))


def lin(db):
    return 10.0 ** (db / 10.0)


# ---------------------------------------------------------------------------
# cluster rate
# ---------------------------------------------------------------------------

def cluster_rate(member_sinrs, table):
    """Rate of a single cluster through the per-frame `cluster_rates`."""
    rates = cluster_rates(member_sinrs, [len(member_sinrs)], table)
    assert rates.shape == (1,)
    return rates[0]


def test_minimum_member_rules(table):
    # members at 10 dB and 3 dB: the 3 dB user picks the ModCod, not the 10 dB one
    rate = cluster_rate([lin(10.0), lin(3.0)], table)
    assert rate == 1.0          # 3 dB falls in [1, 5)
    assert cluster_rate([lin(10.0)], table) == 3.0
    # a frame of clusters: each cluster's own worst member picks its ModCod
    sinrs = lin(np.array([10.0, 3.0, 20.0, -5.0, 6.0, 9.5, 12.0]))
    assert cluster_rates(sinrs, [2, 1, 1, 3], table).tolist() == [1.0, 3.0, 0.0, 2.0]


def test_outage_below_table(table):
    assert cluster_rate([lin(-5.0), lin(20.0)], table) == 0.0
    assert cluster_rate([0.0], table) == 0.0


def test_exact_threshold_inclusive(table):
    assert cluster_rate([lin(5.0)], table) == 2.0
    assert cluster_rate([lin(-2.0)], table) == 0.5


def test_empty_cluster_rejected(table):
    with pytest.raises(ValidationError):
        cluster_rates([], [0], table)
    with pytest.raises(ValidationError):
        cluster_rates([], [], table)
    with pytest.raises(ValidationError):
        cluster_rates([lin(3.0), lin(4.0)], [2, 0], table)
    with pytest.raises(ValidationError):
        cluster_rates([lin(3.0), lin(4.0)], [1], table)


def test_nan_sinr_rejected(table):
    # a NaN used to sort above every threshold and score the top ModCod
    with pytest.raises(ValidationError, match="NaN"):
        cluster_rates([np.nan, lin(5.0)], [1, 1], table)
    with pytest.raises(ValidationError, match="NaN"):
        cluster_rates([lin(10.0), np.nan], [2], table)
    assert cluster_rates([np.inf, lin(5.0)], [1, 1], table).tolist() == [3.0, 2.0]


def test_rate_monotone_in_member_sinr(table):
    rng = np.random.default_rng(31)
    for _ in range(200):
        members = lin(rng.uniform(-6.0, 14.0, size=4))
        base = cluster_rate(members, table)
        bumped = members.copy()
        i = rng.integers(4)
        bumped[i] *= rng.uniform(1.0, 10.0)
        assert cluster_rate(bumped, table) >= base


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def test_constant_rates(table):
    rates = [np.full((4, 3), 2.5)]
    loss = [np.zeros(4, dtype=bool)]
    agg = aggregate_policy(rates, loss)
    assert agg.eta_bar == 2.5
    assert agg.loss_frame_fraction == 0.0
    assert agg.n_frames == 4


def test_two_frame_mean(table):
    rates = [np.array([[1.0], [3.0]])]
    loss = [np.array([True, False])]
    agg = aggregate_policy(rates, loss)
    assert agg.eta_bar == 2.0
    assert agg.loss_frame_fraction == 0.5


def test_pooled_mean_weights_frames():
    # iterations with different frame counts pool by frame-beam cells
    rates = [np.ones((2, 2)), 3.0 * np.ones((6, 2))]
    loss = [np.zeros(2, dtype=bool), np.ones(6, dtype=bool)]
    agg = aggregate_policy(rates, loss)
    assert agg.eta_bar == pytest.approx((2 * 2 * 1.0 + 6 * 2 * 3.0) / 16.0)
    assert agg.loss_frame_fraction == pytest.approx(6.0 / 8.0)
    assert np.array_equal(agg.per_iteration_eta, [1.0, 3.0])


def test_order_invariance():
    rng = np.random.default_rng(32)
    rates = [rng.uniform(0, 4, size=(5, 3)) for _ in range(6)]
    loss = [rng.uniform(size=5) < 0.3 for _ in range(6)]
    agg = aggregate_policy(rates, loss)
    perm = [4, 2, 0, 5, 1, 3]
    agg_perm = aggregate_policy([rates[i] for i in perm], [loss[i] for i in perm])
    assert agg_perm.eta_bar == pytest.approx(agg.eta_bar, rel=1e-12)
    shuffled = [r[::-1].copy() for r in rates]    # frame order within iterations
    agg_shuf = aggregate_policy(shuffled, loss)
    assert agg_shuf.eta_bar == pytest.approx(agg.eta_bar, rel=1e-12)


def test_cell_report_and_gain():
    rates = {
        "random": [np.full((3, 2), 1.0)],
        "gsa": [np.full((4, 2), 1.3)],
    }
    loss = {
        "random": [np.array([True, True, False])],
        "gsa": [np.array([False, False, False, True])],
    }
    report = aggregate(2, 1e-3, rates, loss)
    assert report.gain == pytest.approx(0.3)
    assert report.policies["random"].loss_frame_fraction == pytest.approx(2.0 / 3.0)
    only_random = aggregate(2, 1e-3, {"random": rates["random"]},
                            {"random": loss["random"]})
    assert only_random.gain is None


def test_empty_aggregation_rejected():
    with pytest.raises(ValidationError):
        aggregate_policy([], [])
