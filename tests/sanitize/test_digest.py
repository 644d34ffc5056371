"""The event-stream digest: stable rendering, kernel taps, engine taps,
and the disabled-by-default guarantee."""

from repro.api import ExperimentSpec
from repro.sanitize.digest import StreamDigest, capture_digests, stable_repr
from repro.sanitize.replay import run_digest, run_digest_subprocess
from repro.sim.kernel import Kernel, get_digest_factory


def _tiny_spec(**overrides) -> ExperimentSpec:
    base = dict(kind="multitenant", strategies=("calvin",), seed=11)
    base.update(overrides)
    return ExperimentSpec(**base)


class TestStableRepr:
    def test_scalars_render_by_value(self):
        assert stable_repr(7) == "7"
        assert stable_repr("txn-7") == "'txn-7'"
        assert stable_repr(2.5) == "2.5"
        assert stable_repr(None) == "None"

    def test_containers_recurse(self):
        assert stable_repr((1, "a")) == "[1,'a']"
        assert stable_repr([1, [2, 3]]) == "[1,[2,3]]"
        # tuple vs list renders identically: JSON round-trips in the
        # subprocess leg must not change the digest.
        assert stable_repr((1, 2)) == stable_repr([1, 2])

    def test_objects_render_by_type_never_address(self):
        class Widget:
            pass

        a, b = Widget(), Widget()
        assert stable_repr(a) == stable_repr(b) == "Widget"
        assert "0x" not in stable_repr(a)


class TestStreamDigest:
    def test_same_stream_same_digest(self):
        a, b = StreamDigest(), StreamDigest()
        for d in (a, b):
            d.tap(1.0, 1, _tiny_spec, (1, "x"))
            d.note("seq.cut", 1, (4, 5))
        assert a.hexdigest() == b.hexdigest()
        assert a.count == b.count == 2  # one tap + one note

    def test_different_order_different_digest(self):
        a, b = StreamDigest(), StreamDigest()
        a.note("seq.cut", 1, (4, 5))
        b.note("seq.cut", 1, (5, 4))
        assert a.hexdigest() != b.hexdigest()

    def test_record_keeps_lines(self):
        d = StreamDigest(record=True)
        d.note("lock.grant", 3, "X", "k")
        assert d.lines and d.lines[0].startswith("e|lock.grant")

    def test_recording_does_not_change_the_digest(self):
        # Driven through a kernel, so the run loop's two hooks (C-level
        # fold vs recording tap) and its block folding are what differ.
        def drive(record: bool) -> StreamDigest:
            kernel = Kernel()
            kernel.attach_digest(StreamDigest(record=record))

            def grant(i: int) -> None:
                kernel.digest.note("lock.grant", i, "X", ("tenant", i))

            for i in range(3_000):
                kernel.call_later(i * 2.5, grant if i % 3 == 0 else _noop, i)
            kernel.run()
            return kernel.digest

        plain, recording = drive(False), drive(True)
        assert plain.hexdigest() == recording.hexdigest()
        assert plain.count == recording.count == 4_000
        assert len(recording.lines) == 4_000 and not plain.lines

    def test_swapping_same_time_events_changes_the_digest(self):
        a, b = StreamDigest(), StreamDigest()
        a.tap(7.0, 1, _noop, ())
        a.tap(7.0, 2, _noop, ())
        b.tap(7.0, 2, _noop, ())
        b.tap(7.0, 1, _noop, ())
        assert a.hexdigest() != b.hexdigest()

    def test_a_note_is_pinned_to_its_place_among_the_events(self):
        a, b = StreamDigest(), StreamDigest()
        a.tap(1.0, 1, _noop, ())
        a.note("lock.grant", 3, "X", 9)
        a.tap(2.0, 2, _noop, ())
        b.tap(1.0, 1, _noop, ())
        b.tap(2.0, 2, _noop, ())
        b.note("lock.grant", 3, "X", 9)
        assert a.hexdigest() != b.hexdigest()

    def test_block_boundaries_never_show(self):
        # Where pending items get hashed (every 1024 kernel events, at
        # run-loop exit, on hexdigest) must not matter: a serving run
        # and its replay cut their blocks at the same places, but a
        # reader peeking at the digest mid-run must not change it.
        whole, chopped = StreamDigest(), StreamDigest()
        for i in range(2_500):
            for d in (whole, chopped):
                d.tap(float(i), i, _noop, ())
                if i % 7 == 0:
                    d.note("seq.cut", i, (i, i + 1))
            if i % 700 == 0:
                chopped.hexdigest()
            if i % 333 == 0:
                chopped.fold_block()
        assert whole.hexdigest() == chopped.hexdigest()
        assert whole.count == chopped.count


class TestKernelIntegration:
    def test_digest_is_off_by_default(self):
        kernel = Kernel()
        assert kernel.digest is None
        assert get_digest_factory() is None

    def test_attached_digest_counts_events(self):
        kernel = Kernel()
        kernel.attach_digest(StreamDigest())
        hits = []
        for i in range(5):
            kernel.call_later(float(i + 1), hits.append, i)
        kernel.run()
        assert len(hits) == 5
        assert kernel.digest.count == 5

    def test_identical_kernel_runs_match(self):
        def drive() -> str:
            kernel = Kernel()
            kernel.attach_digest(StreamDigest())
            for i in range(20):
                kernel.call_later(float((i * 13) % 7 + 1), _noop, i)
            kernel.run()
            return kernel.digest.hexdigest()

        assert drive() == drive()

    def test_capture_collects_kernels_in_creation_order(self):
        with capture_digests() as digests:
            for rounds in (3, 5):
                kernel = Kernel()
                for i in range(rounds):
                    kernel.call_later(float(i + 1), _noop, i)
                kernel.run()
        assert [d.count for d in digests] == [3, 5]
        assert get_digest_factory() is None


def _noop(*_args) -> None:
    pass


class TestEngineTaps:
    def test_experiment_digest_carries_semantic_taps(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.01")
        result = run_digest(_tiny_spec(), record=True)
        lines = [line for k in result.kernels for line in (k.lines or [])]
        kinds = {line.split("|")[1] for line in lines if line.startswith("e|")}
        assert {"seq.cut", "seq.deliver", "sched.route",
                "sched.dispatch", "lock.grant"} <= kinds

    def test_experiment_digest_is_reproducible(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.01")
        first = run_digest(_tiny_spec())
        second = run_digest(_tiny_spec())
        assert first.combined == second.combined
        assert first.events == second.events > 0

    def test_digest_survives_hash_randomization(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.01")
        first = run_digest_subprocess(_tiny_spec(), hashseed=1)
        second = run_digest_subprocess(_tiny_spec(), hashseed=31337)
        assert first.combined == second.combined
        assert first.events == second.events > 0

    def test_seed_changes_the_digest(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.01")
        a = run_digest(_tiny_spec(seed=11))
        b = run_digest(_tiny_spec(seed=12))
        assert a.combined != b.combined
