"""ServeCore: tick/epoch slaving, arrival stamping, elastic resizes."""

import pytest

from repro.analysis.placement_audit import audit_placement
from repro.common.errors import ConfigurationError
from repro.serve.core import ServeConfig, ServeCore
from repro.serve.journal import JournalWriter
from repro.serve.replayer import verify_journal

CONFIG = dict(
    num_keys=400, num_nodes=4, strategy="calvin", epoch_us=5_000.0
)

#: The add-then-remove run's final state fingerprint and event digest.
SCALE_IN_FINGERPRINT = 17038013653035715177
SCALE_IN_DIGEST = "95b662eb70915fa267ac1fada06fc0f1"


def requests_for(tick, per_tick=4):
    out = []
    for i in range(per_tick):
        key = (tick * per_tick + i) % 400
        if i % 4 == 3:
            out.append({"reads": [key], "writes": [key]})
        else:
            out.append({"reads": [key, (key + 7) % 400]})
    return out


class TestConfig:
    def test_json_round_trip(self):
        config = ServeConfig(**CONFIG, initial_nodes=3)
        assert ServeConfig.from_json(config.to_json()) == config

    def test_bad_initial_nodes_rejected(self):
        with pytest.raises(ConfigurationError):
            ServeConfig(num_keys=10, num_nodes=4, initial_nodes=5)

    def test_bad_num_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            ServeConfig(num_keys=0)


class TestTicks:
    def test_sim_time_slaved_to_ticks(self):
        # One tick = exactly one sequencer epoch, regardless of load.
        core = ServeCore(ServeConfig(**CONFIG))
        times = [core.tick(requests_for(t)) for t in range(4)]
        assert times == [5_000.0, 10_000.0, 15_000.0, 20_000.0]
        assert core.cluster.kernel.now == 20_000.0

    def test_arrivals_stamped_with_submit_time(self):
        # Latency is measured from arrival: requests folded into tick N
        # must carry tick N's simulated time, not 0.
        core = ServeCore(ServeConfig(**CONFIG))
        seen = []
        core.tick(requests_for(0))
        core.tick(
            requests_for(1),
            callbacks=[
                (lambda rt: seen.append(rt.txn.arrival_time))
            ] * 4,
        )
        core.drain()
        assert seen and all(at == 5_000.0 for at in seen)

    def test_empty_request_rejected(self):
        core = ServeCore(ServeConfig(**CONFIG))
        with pytest.raises(ConfigurationError, match="no reads"):
            core.tick([{}])

    def test_finish_drains_and_seals(self):
        core = ServeCore(ServeConfig(**CONFIG))
        for tick in range(3):
            core.tick(requests_for(tick))
        report = core.finish()
        assert report.ticks == 3
        assert report.accepted == 12
        assert report.commits == 12
        assert core.cluster.inflight == 0
        with pytest.raises(ConfigurationError, match="finished"):
            core.tick([])

    def test_dual_run_bit_identical(self):
        def run():
            core = ServeCore(ServeConfig(**CONFIG))
            for tick in range(5):
                core.tick(requests_for(tick))
            return core.finish()

        first, second = run(), run()
        assert first.fingerprint == second.fingerprint
        assert first.digest == second.digest


class TestElastic:
    def test_journaled_resize_activates_node(self):
        core = ServeCore(
            ServeConfig(**CONFIG, initial_nodes=3)
        )
        assert list(core.cluster.view.active_nodes) == [0, 1, 2]
        core.tick(requests_for(0), resizes=[("add", 3)])
        for tick in range(1, 12):
            core.tick(requests_for(tick))
        report = core.finish()
        assert report.extras["resizes"] == 1
        assert report.extras["active_nodes"] == [0, 1, 2, 3]
        # The newcomer actually received data, not just epoch traffic.
        assert len(core.cluster.nodes[3].store) > 0

    def test_unknown_resize_kind_rejected(self):
        core = ServeCore(ServeConfig(**CONFIG, initial_nodes=3))
        with pytest.raises(ConfigurationError, match="resize"):
            core.tick([], resizes=[("explode", 3)])

    def test_adding_an_active_node_rejected(self):
        core = ServeCore(ServeConfig(**CONFIG, initial_nodes=3))
        with pytest.raises(ConfigurationError, match="already active"):
            core.tick([], resizes=[("add", 2)])

    def test_journaled_scale_in_drains_node(self, tmp_path):
        # Add node 3, let its session drain, then remove it again: the
        # consolidation plan must hand every one of its records back.
        path = str(tmp_path / "scale-in.jsonl")
        core = ServeCore(
            ServeConfig(**CONFIG, initial_nodes=3),
            journal=JournalWriter(path),
        )
        core.tick(requests_for(0), resizes=[("add", 3)])
        for tick in range(1, 12):
            core.tick(requests_for(tick))
        assert not core.elastic.controller.active
        assert len(core.cluster.nodes[3].store) > 0
        core.tick(requests_for(12), resizes=[("remove", 3)])
        for tick in range(13, 24):
            core.tick(requests_for(tick))
        report = core.finish()
        assert report.extras["resizes"] == 2
        assert report.extras["active_nodes"] == [0, 1, 2]
        assert len(core.cluster.nodes[3].store) == 0
        audit = audit_placement(core.cluster, expected_total=400)
        assert audit.ok, audit.describe()
        assert verify_journal(path).ok
        assert report.fingerprint == SCALE_IN_FINGERPRINT
        assert report.digest == SCALE_IN_DIGEST
