"""Unit and property tests for activity traces."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import SimulationError
from repro.uarch.activity import ActivityBlock, ActivityRecorder, ActivityTrace
from repro.uarch.components import Component, COMPONENT_INDEX, NUM_COMPONENTS


class TestActivityRecorder:
    def test_single_event(self):
        recorder = ActivityRecorder(clock_hz=1e9)
        recorder.add(Component.ALU, start_cycle=2, duration=3, amount_per_cycle=1.5)
        trace = recorder.finish(10)
        alu = trace.component(Component.ALU)
        assert alu[1] == 0
        assert list(alu[2:5]) == [1.5, 1.5, 1.5]
        assert alu[5] == 0

    def test_events_accumulate(self):
        recorder = ActivityRecorder(clock_hz=1e9)
        recorder.add(Component.ALU, 0, 2, 1.0)
        recorder.add(Component.ALU, 1, 2, 1.0)
        trace = recorder.finish(4)
        assert list(trace.component(Component.ALU)) == [1.0, 2.0, 1.0, 0.0]

    def test_event_clipped_at_end(self):
        recorder = ActivityRecorder(clock_hz=1e9)
        recorder.add(Component.DIV, 8, 10, 1.0)
        trace = recorder.finish(10)
        assert trace.component(Component.DIV).sum() == pytest.approx(2.0)

    def test_zero_duration_ignored(self):
        recorder = ActivityRecorder(clock_hz=1e9)
        recorder.add(Component.ALU, 0, 0, 1.0)
        assert recorder.finish(4).data.sum() == 0

    def test_negative_start_rejected(self):
        recorder = ActivityRecorder(clock_hz=1e9)
        with pytest.raises(SimulationError):
            recorder.add(Component.ALU, -1, 1, 1.0)

    def test_bad_clock_rejected(self):
        with pytest.raises(SimulationError):
            ActivityRecorder(clock_hz=0)


class TestActivityBlocks:
    def test_extract_and_replay_matches_scalar_adds(self):
        """Replaying a block is bit-identical to re-adding its events."""
        template = ActivityRecorder(clock_hz=1e9)
        template.add(Component.ALU, 0, 1, 0.7)
        template.add(Component.FETCH, 0, 1, 1.1)
        template.add(Component.L2, 1, 14, 0.3)
        block = template.extract_block()
        assert block.num_events == 3
        assert list(block.offsets) == [0, 0, 1]

        replayed = ActivityRecorder(clock_hz=1e9)
        replayed.add_block_batch(block, np.array([0, 5, 20]))

        scalar = ActivityRecorder(clock_hz=1e9)
        for base in (0, 5, 20):
            scalar.add(Component.ALU, base, 1, 0.7)
            scalar.add(Component.FETCH, base, 1, 1.1)
            scalar.add(Component.L2, base + 1, 14, 0.3)

        fast = replayed.finish(40)
        reference = scalar.finish(40)
        assert np.array_equal(fast.data, reference.data)

    def test_negative_block_offset_rejected(self):
        with pytest.raises(SimulationError):
            ActivityBlock(
                components=np.array([0]),
                offsets=np.array([-3]),
                durations=np.array([1]),
                amounts=np.array([1.0]),
            )

    def test_mismatched_block_shapes_rejected(self):
        with pytest.raises(SimulationError):
            ActivityBlock(
                components=np.array([0, 1]),
                offsets=np.array([0]),
                durations=np.array([1, 1]),
                amounts=np.array([1.0, 1.0]),
            )

    def test_finish_is_insertion_order_independent(self):
        """The materialized trace depends only on the event multiset."""
        events = [
            (Component.ALU, 0, 1, 0.1),
            (Component.ALU, 0, 1, 0.3),
            (Component.ALU, 0, 3, 0.7),
            (Component.DRAM, 2, 5, 0.011),
            (Component.ALU, 1, 1, 0.9),
        ]
        forward = ActivityRecorder(clock_hz=1e9)
        for event in events:
            forward.add(*event)
        backward = ActivityRecorder(clock_hz=1e9)
        for event in reversed(events):
            backward.add(*event)
        assert np.array_equal(forward.finish(8).data, backward.finish(8).data)


class TestActivityTrace:
    def _trace(self, cycles=16) -> ActivityTrace:
        data = np.zeros((NUM_COMPONENTS, cycles))
        data[COMPONENT_INDEX[Component.ALU]] = 1.0
        data[COMPONENT_INDEX[Component.DRAM], : cycles // 2] = 2.0
        return ActivityTrace(data, clock_hz=2e9)

    def test_shape_validation(self):
        with pytest.raises(SimulationError):
            ActivityTrace(np.zeros((3, 10)), clock_hz=1e9)

    @pytest.mark.parametrize("clock_hz", [0.0, -1e9, np.nan, np.inf, -np.inf])
    def test_bad_clock_rejected(self, clock_hz):
        with pytest.raises(SimulationError, match="clock"):
            ActivityTrace(np.zeros((NUM_COMPONENTS, 4)), clock_hz=clock_hz)

    def test_duration(self):
        trace = self._trace(16)
        assert trace.duration_s == pytest.approx(8e-9)

    def test_totals(self):
        totals = self._trace(16).totals()
        assert totals[Component.ALU] == pytest.approx(16.0)
        assert totals[Component.DRAM] == pytest.approx(16.0)
        assert totals[Component.MUL] == 0.0

    def test_mean_rates(self):
        rates = self._trace(16).mean_rates()
        assert rates[COMPONENT_INDEX[Component.ALU]] == pytest.approx(1.0)
        assert rates[COMPONENT_INDEX[Component.DRAM]] == pytest.approx(1.0)

    def test_window(self):
        window = self._trace(16).window(0, 8)
        assert window.num_cycles == 8
        assert window.component(Component.DRAM).sum() == pytest.approx(16.0)

    def test_window_bounds_checked(self):
        with pytest.raises(SimulationError):
            self._trace(16).window(8, 4)
        with pytest.raises(SimulationError):
            self._trace(16).window(0, 99)

    def test_downsample_preserves_mean(self):
        trace = self._trace(16)
        coarse = trace.downsample(4)
        assert coarse.num_cycles == 4
        assert coarse.data.mean() == pytest.approx(trace.data.mean())
        assert coarse.clock_hz == pytest.approx(trace.clock_hz / 4)

    def test_downsample_too_short_rejected(self):
        with pytest.raises(SimulationError):
            self._trace(4).downsample(8)

    def test_project_single_mode(self):
        trace = self._trace(8)
        weights = np.zeros(NUM_COMPONENTS)
        weights[COMPONENT_INDEX[Component.ALU]] = 3.0
        projected = trace.project(weights)
        assert projected.shape == (1, 8)
        assert np.allclose(projected, 3.0)

    def test_project_shape_validation(self):
        with pytest.raises(SimulationError):
            self._trace(8).project(np.zeros((2, 3)))


@given(
    events=st.lists(
        st.tuples(
            st.sampled_from(list(Component)),
            st.integers(min_value=0, max_value=50),
            st.integers(min_value=1, max_value=20),
            st.floats(min_value=0.01, max_value=10.0),
        ),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=50, deadline=None)
def test_recorder_conserves_unclipped_activity(events):
    """Property: total recorded activity equals the sum of event masses
    (when the trace is long enough that nothing clips)."""
    recorder = ActivityRecorder(clock_hz=1e9)
    expected = 0.0
    horizon = 0
    for component, start, duration, amount in events:
        recorder.add(component, start, duration, amount)
        expected += duration * amount
        horizon = max(horizon, start + duration)
    trace = recorder.finish(horizon)
    assert trace.data.sum() == pytest.approx(expected, rel=1e-9)


def _oracle_finish(events, replays, num_cycles):
    """Per-event loop materialization in the canonical order.

    ``events`` are ``(component_index, start, duration, amount)`` and
    ``replays`` are ``(block, base_cycle)``.  Every event is clipped to
    ``num_cycles``; each cell then adds its single-cycle events in
    ascending amount, followed by its longer events in (start, length,
    amount) order, one scalar addition at a time.
    """
    expanded = list(events)
    for block, base in replays:
        expanded.extend(
            zip(
                block.components.tolist(),
                (block.offsets + base).tolist(),
                block.durations.tolist(),
                block.amounts.tolist(),
            )
        )
    clipped = [
        (component, start, min(start + duration, num_cycles) - start, amount)
        for component, start, duration, amount in expanded
        if start < num_cycles
    ]
    data = np.zeros((NUM_COMPONENTS, num_cycles))
    for component, start, _length, amount in sorted(e for e in clipped if e[2] == 1):
        data[component, start] += amount
    for component, start, length, amount in sorted(e for e in clipped if e[2] > 1):
        for cycle in range(start, start + length):
            data[component, cycle] += amount
    return data


def _two_pass_finish(recorder, num_cycles):
    """``finish`` as two ``np.add.at`` passes: singles, then longer events.

    The formulation ``finish`` replaced with one ``np.bincount`` stream;
    both add each cell's terms in sequence from 0.0.
    """
    components, starts, durations, amounts = recorder._gather()
    flat = np.zeros(NUM_COMPONENTS * num_cycles)
    visible = starts < num_cycles
    starts, amounts = starts[visible], amounts[visible]
    lengths = np.minimum(starts + durations[visible], num_cycles) - starts
    cells = components[visible] * num_cycles + starts
    single = lengths == 1
    order = np.argsort(amounts[single])
    np.add.at(flat, cells[single][order], amounts[single][order])
    multi = ~single
    order = np.lexsort((amounts[multi], lengths[multi], cells[multi]))
    cells, lengths, amounts = cells[multi][order], lengths[multi][order], amounts[multi][order]
    steps = np.arange(lengths.sum(), dtype=np.int64)
    steps -= np.repeat(np.cumsum(lengths) - lengths, lengths)
    np.add.at(flat, np.repeat(cells, lengths) + steps, np.repeat(amounts, lengths))
    return flat.reshape(NUM_COMPONENTS, num_cycles)


#: Amounts whose float sums depend on addition order, e.g.
#: (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1.
_AMOUNTS = st.one_of(
    st.sampled_from([0.1, 0.2, 0.3, 1.0 / 3.0, 0.7, 1e-3]),
    st.floats(min_value=1e-3, max_value=10.0),
)
#: Few components and a short cycle range, so events pile onto shared
#: (component, cycle) cells and multi-cycle events overlap.
_EVENT = st.tuples(
    st.sampled_from([Component.ALU, Component.L2, Component.FETCH]),
    st.integers(min_value=0, max_value=12),
    st.sampled_from([1, 1, 1, 2, 3, 14]),
    _AMOUNTS,
)


@given(
    events=st.lists(_EVENT, max_size=40),
    block_events=st.lists(_EVENT, max_size=6),
    bases=st.lists(st.integers(min_value=0, max_value=20), max_size=5),
    batched=st.booleans(),
    num_cycles=st.integers(min_value=1, max_value=30),
)
@settings(max_examples=200, deadline=None)
# Order-sensitive cells: (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1 for
# singles, and (0.2 + 0.1) + 0.3 != (0.2 + 0.3) + 0.1 for a single
# followed by two equally long events.
@example(
    events=[(Component.ALU, 0, 1, 0.3), (Component.ALU, 0, 1, 0.1), (Component.ALU, 0, 1, 0.2)],
    block_events=[], bases=[], batched=False, num_cycles=4,
)
@example(
    events=[(Component.ALU, 3, 3, 0.3), (Component.ALU, 3, 1, 0.2), (Component.ALU, 3, 3, 0.1)],
    block_events=[], bases=[], batched=False, num_cycles=8,
)
def test_finish_matches_per_event_oracle(events, block_events, bases, batched, num_cycles):
    """Property: ``finish`` is byte-equal to the per-event loop and to the
    two-pass ``np.add.at`` formulation, including overlapping long
    events, events clipped at ``num_cycles``, several singles on one
    cell (ties included), and block replays."""
    recorder = ActivityRecorder(clock_hz=1e9)
    for event in events:
        recorder.add(*event)
    template = ActivityRecorder(clock_hz=1e9)
    for event in block_events:
        template.add(*event)
    block = template.extract_block()
    if batched:
        recorder.add_block_batch(block, np.array(bases, dtype=np.int64))
    else:
        for base in bases:
            recorder.add_block_batch(block, np.array([base], dtype=np.int64))

    indexed = [
        (COMPONENT_INDEX[component], start, duration, amount)
        for component, start, duration, amount in events
    ]
    expected = _oracle_finish(indexed, [(block, base) for base in bases], num_cycles)
    finished = recorder.finish(num_cycles).data.tobytes()
    assert finished == expected.tobytes()
    assert finished == _two_pass_finish(recorder, num_cycles).tobytes()


@given(factor=st.integers(min_value=1, max_value=16))
@settings(max_examples=20, deadline=None)
def test_downsample_conserves_total(factor):
    """Property: block-averaging preserves total activity (up to the
    dropped remainder block)."""
    rng = np.random.default_rng(7)
    cycles = 64
    data = rng.uniform(0, 2, size=(NUM_COMPONENTS, cycles))
    trace = ActivityTrace(data, clock_hz=1e9)
    coarse = trace.downsample(factor)
    usable = (cycles // factor) * factor
    assert coarse.data.sum() * factor == pytest.approx(data[:, :usable].sum(), rel=1e-9)
