"""Literal pins for the eq2, fig4 and ext_collectives fast outputs.

The shape tests in ``test_drivers.py`` and ``test_extensions.py`` accept
any result within 1% of the model, so a small drift in an engine or an
analysis function would pass them.  These literals were recorded from the
scalar DAG engine's record-building ``simulate``; the drivers must keep
reproducing them within ``GOLDEN_RTOL`` whichever engine they run on.
Floats are compared relatively, integers and labels exactly.
"""

import numpy as np
import pytest

from repro.experiments import run_experiment
from repro.golden import GOLDEN_RTOL


def assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=GOLDEN_RTOL, atol=0.0)


#: (d, direction, protocol, T_exec [ms], msg [B],
#:  measured [ranks/s], Eq. 2 [ranks/s], error [%])
EQ2_ROWS = [
    (1, "uni", "eager", 3.0, 8192, 332.7556761446895, 332.7531597130869, 0.0007562457422704868),
    (1, "uni", "eager", 3.0, 262144, 323.63940468869407, 323.6370242481804, 0.000735527870827338),
    (1, "uni", "rendezvous", 3.0, 8192, 332.7556761446895, 332.7531597130869, 0.0007562457422704868),
    (1, "uni", "rendezvous", 3.0, 262144, 323.63940468869396, 323.6370242481804, 0.0007355278707922101),
    (1, "bi", "eager", 3.0, 8192, 332.7355446158038, 332.7531597130869, 0.005293743055152604),
    (1, "bi", "eager", 3.0, 262144, 323.62036109460183, 323.6370242481804, 0.005148716719691111),
    (1, "bi", "rendezvous", 3.0, 8192, 665.4114256017332, 665.5063194261738, 0.014258891564315656),
    (1, "bi", "rendezvous", 3.0, 262144, 647.1842825515714, 647.2740484963608, 0.013868305858690762),
    (2, "uni", "eager", 3.0, 8192, 665.4272377729898, 665.5063194261738, 0.011882930465972025),
    (2, "uni", "eager", 3.0, 262144, 647.1992403533372, 647.2740484963608, 0.011557414235493623),
    (2, "uni", "rendezvous", 3.0, 8192, 665.4272377729898, 665.5063194261738, 0.011882930465972025),
    (2, "uni", "rendezvous", 3.0, 262144, 647.1992403533374, 647.2740484963608, 0.011557414235476059),
    (2, "bi", "eager", 3.0, 8192, 665.2754545741186, 665.5063194261738, 0.03469010666259046),
    (2, "bi", "eager", 3.0, 262144, 647.0556580107891, 647.2740484963608, 0.033740034237282605),
    (2, "bi", "rendezvous", 3.0, 8192, 1330.3486222909662, 1331.0126388523477, 0.04988807333595272),
    (2, "bi", "rendezvous", 3.0, 262144, 1293.9199563862712, 1294.5480969927216, 0.04852199836449545),
]

#: collective -> (reach_one_step, step_cost [s], excess [s])
COLLECTIVES = {
    "barrier": (15, 0.0030209226666666625, 0.012000000000000018),
    "allreduce_recdoub": (15, 0.0030209226666666625, 0.012000000000000018),
    "allreduce_ring": (15, 0.0031569199999999685, 0.012000000000000084),
    "bcast_tree": (1, 0.003001999999999996, 0.011988269333333332),
}


class TestEq2:
    @pytest.fixture(scope="class")
    def data(self):
        return run_experiment("eq2", fast=True).data

    def test_configurations_in_order(self, data):
        assert [row[:5] for row in data["rows"]] == [row[:5] for row in EQ2_ROWS]
        assert [type(v) for v in data["rows"][0][:5]] == [int, str, str, float, int]

    @pytest.mark.parametrize("column", [5, 6, 7], ids=["measured", "model", "error"])
    def test_column(self, data, column):
        assert_close([row[column] for row in data["rows"]],
                     [row[column] for row in EQ2_ROWS])

    def test_max_error(self, data):
        assert_close(data["max_error_pct"], max(row[7] for row in EQ2_ROWS))


class TestFig4:
    @pytest.fixture(scope="class")
    def data(self):
        return run_experiment("fig4", fast=True).data

    def test_scalars(self, data):
        assert_close(data["speed"], 332.7808424145776)
        assert_close(data["model_speed"], 332.7531597130869)
        assert_close(data["threshold"], 0.0015)
        assert data["downward_reach"] == 0

    def test_front(self, data):
        front = data["front"]
        assert front.source == 5
        assert front.hops.tolist() == [1, 2, 3]
        assert front.ranks.tolist() == [6, 7, 8]
        assert front.arrival_steps.tolist() == [0, 1, 2]
        assert_close(front.arrival_times,
                     [0.0030004999999999997, 0.006005730666666667, 0.009010461333333332])
        assert_close(front.amplitudes,
                     [0.01350473066666667, 0.01350473066666667, 0.013505230666666672])


class TestExtCollectives:
    @pytest.fixture(scope="class")
    def data(self):
        return run_experiment("ext_collectives", fast=True).data

    def test_collectives_in_order(self, data):
        assert list(data) == list(COLLECTIVES)

    @pytest.mark.parametrize("name", sorted(COLLECTIVES))
    def test_collective(self, data, name):
        reach, step_cost, excess = COLLECTIVES[name]
        assert data[name]["reach_one_step"] == reach
        assert_close(data[name]["step_cost"], step_cost)
        assert_close(data[name]["excess"], excess)
