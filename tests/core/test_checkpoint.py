"""Tests for fault tolerance: logging, checkpoints, crash recovery."""

import pytest

from repro.core.checkpoint import CheckpointManager
from repro.errors import FaultToleranceError, StreamError

from core.test_engine import QC, build_engine, names


def ft_engine(**overrides):
    overrides.setdefault("fault_tolerance", True)
    overrides.setdefault("checkpoint_interval_ms", 2_000)
    return build_engine(**overrides)


class TestLogging:
    def test_batches_are_logged(self):
        engine = ft_engine()
        engine.run_until(3_000)
        assert engine.checkpoints is not None
        assert engine.checkpoints.logged_for_node(0)
        assert engine.checkpoints.logged_for_node(1)

    def test_logging_adds_delay(self):
        plain = build_engine()
        logged = ft_engine()
        plain.run_until(4_000)
        logged.run_until(4_000)
        pick = lambda eng: [r.total_ms for r in eng.injection_records
                            if r.stream == "Tweet_Stream" and r.num_tuples]
        assert sum(pick(logged)) > sum(pick(plain))
        assert logged.checkpoints.mean_logging_delay_ms() > 0


class TestCheckpoints:
    def test_periodic_checkpoints_happen(self):
        engine = ft_engine()
        engine.run_until(8_000)
        assert engine.checkpoints.num_checkpoints >= 2
        marker = engine.checkpoints.latest_marker
        assert marker.stable_vts["Tweet_Stream"] > 0

    def test_checkpoints_ack_sources(self):
        engine = ft_engine()
        before = engine.sources["Tweet_Stream"].backup_size
        engine.run_until(8_000)
        # Acked batches were trimmed from the upstream-backup buffer.
        source = engine.sources["Tweet_Stream"]
        marker = engine.checkpoints.latest_marker
        assert all(b.batch_no > marker.stable_vts["Tweet_Stream"]
                   for b in source.replay(marker.stable_vts["Tweet_Stream"]))

    def test_checkpoint_pause_charged_in_exact_picoseconds(self):
        # 181 entries on 2 nodes: 91 per node * 180 ns = 16 380 000 ps, a
        # pause whose float ms view does not convert back to whole ps.
        engine = ft_engine()
        handle = engine.register_continuous(QC)
        manager = engine.checkpoints
        checkpoint = manager.checkpoint

        def checkpoint_181(*args):
            manager._entries_since_checkpoint = 181
            return checkpoint(*args)

        manager.checkpoint = checkpoint_181
        engine.run_until(4_000)
        assert manager.num_checkpoints >= 1
        assert manager.last_checkpoint_pause_ps == 16_380_000
        paused = [record.meter._breakdown["checkpoint"]
                  for record in handle.executions
                  if "checkpoint" in record.meter._breakdown]
        assert paused and set(paused) == {16_380_000}

    def test_interval_must_be_positive(self):
        with pytest.raises(FaultToleranceError):
            CheckpointManager(interval_ms=0)


class TestRecovery:
    def test_recovered_node_answers_identically(self):
        engine = ft_engine()
        engine.register_continuous(QC)
        engine.run_until(7_000)
        probe = "SELECT ?X WHERE { Logan po ?X . ?X ht sosp17 }"
        before = names(engine, engine.oneshot(probe, home_node=0).result.rows)

        engine.crash_node(1)
        engine.recover_node(1)
        after = names(engine, engine.oneshot(probe, home_node=0).result.rows)
        assert after == before == [("T-13",), ("T-15",)]

    def test_recovery_restores_every_shard_key(self):
        engine = ft_engine()
        engine.run_until(6_000)
        shard = engine.store.shards[1]
        keys_before = {key: shard.lookup(key) for key in shard.iter_keys()}

        engine.crash_node(1)
        assert engine.store.shards[1].num_keys == 0
        engine.recover_node(1)
        shard = engine.store.shards[1]
        keys_after = {key: shard.lookup(key) for key in shard.iter_keys()}
        assert keys_after == keys_before

    def test_recovery_preserves_stream_index_spans(self):
        engine = ft_engine()
        registered = engine.register_continuous(QC)
        engine.run_until(7_000)
        record_before = engine.continuous.execute_once(registered, 7_000)
        before = names(engine, record_before.result.rows)

        engine.crash_node(0)
        engine.recover_node(0)
        record_after = engine.continuous.execute_once(registered, 7_000)
        assert names(engine, record_after.result.rows) == before

    def test_continuous_processing_continues_after_recovery(self):
        engine = ft_engine()
        engine.register_continuous(QC)
        engine.run_until(5_000)
        engine.crash_node(1)
        engine.recover_node(1)
        records = engine.run_until(10_000)
        latest = {rec.close_ms: names(engine, rec.result.rows)
                  for rec in records}
        assert ("Logan", "Erik", "T-15") in latest[10_000]

    def test_recover_live_node_rejected(self):
        engine = ft_engine()
        engine.run_until(2_000)
        with pytest.raises(FaultToleranceError):
            engine.recover_node(0)

    def test_recover_without_ft_rejected(self):
        engine = build_engine()
        engine.run_until(2_000)
        engine.crash_node(0)
        with pytest.raises(StreamError):
            engine.recover_node(0)
