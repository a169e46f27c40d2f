"""Randomized differential tests: every monitor, one verdict multiset.

The repo documents SmtMonitor (unsegmented, unsaturated), FastMonitor,
and the explicit-enumeration baseline as *verdict-multiset-equivalent*;
these property tests make that claim continuously checked instead of
asserted.  The solver backends ("dfs" vs the paper-literal "csp" cut
encoding) are likewise cross-checked.
"""

from __future__ import annotations

import pickle
from contextlib import nullcontext

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.distributed.segmentation import segment_computation

from repro.monitor.baseline import EnumerationMonitor
from repro.monitor.fast import FastMonitor
from repro.monitor.online import OnlineMonitor
from repro.monitor.smt_monitor import SmtMonitor
from repro.monitor.verdicts import MonitorResult
from repro.progression.progressor import close

from tests.conftest import formulas, object_walk, small_computations
from tests.mtl.test_interning import structural_clone

_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(computation=small_computations(), formula=formulas(max_depth=2))
@settings(max_examples=40, **_SETTINGS)
def test_smt_fast_baseline_agree(computation, formula):
    """The three offline monitors produce identical verdict multisets."""
    baseline = EnumerationMonitor(formula).run(computation)
    smt = SmtMonitor(formula, segments=1, saturate=False).run(computation)
    fast = FastMonitor(formula).run(computation)
    assert smt.verdict_counts == baseline.verdict_counts
    assert fast.verdict_counts == baseline.verdict_counts
    assert smt.exhaustive and fast.exhaustive and baseline.exhaustive


@given(computation=small_computations(), formula=formulas(max_depth=2))
@settings(max_examples=20, **_SETTINGS)
def test_csp_backend_agrees_with_dfs(computation, formula):
    """The paper-literal CSP cut encoding enumerates the same multiset."""
    dfs = SmtMonitor(formula, segments=1, saturate=False, backend="dfs").run(computation)
    csp = SmtMonitor(formula, segments=1, saturate=False, backend="csp").run(computation)
    assert csp.verdict_counts == dfs.verdict_counts


@given(computation=small_computations(), formula=formulas(max_depth=2))
@settings(max_examples=40, **_SETTINGS)
def test_interned_equals_structural(computation, formula):
    """Interning is invisible to verdicts: a formula rebuilt through the
    raw (non-interning) constructors produces a bit-identical verdict
    multiset to the canonical instance, across engines and segmentation."""
    clone = structural_clone(formula)
    assert clone == formula
    interned = SmtMonitor(formula, segments=1, saturate=False).run(computation)
    structural = SmtMonitor(clone, segments=1, saturate=False).run(computation)
    assert structural.verdict_counts == interned.verdict_counts
    segmented_interned = SmtMonitor(formula, segments=3, saturate=False).run(computation)
    segmented_structural = SmtMonitor(clone, segments=3, saturate=False).run(computation)
    assert segmented_structural.verdict_counts == segmented_interned.verdict_counts


@given(computation=small_computations(), formula=formulas(max_depth=2))
@settings(max_examples=20, **_SETTINGS)
def test_saturation_is_lossless_for_the_verdict_set(computation, formula):
    """Stopping enumeration once both verdicts are witnessed (the default
    ``saturate=True``) may make counts partial but never changes the
    verdict *set*."""
    exact = SmtMonitor(formula, segments=1, saturate=False).run(computation)
    saturated = SmtMonitor(formula, segments=1, saturate=True).run(computation)
    assert saturated.verdicts == exact.verdicts
    assert saturated.verdict_set_complete


# -- columnar kernel <-> object-walk oracle -------------------------------------------


def _oracle(enabled: bool):
    """The object-walk oracle when ``enabled``, else the shipping kernel;
    either way the block yields the list of oracle calls."""
    return object_walk() if enabled else nullcontext([])


def _traces(reports) -> int:
    return sum(report.traces_enumerated for report in reports)


def _pipeline_trajectory(formula, computation, segments):
    """Verdict counts plus the carried residual dict after *every* segment,
    and the traces the fold progressed.

    Drives the resumable ``step`` API directly so the intermediate
    carried sets — not just the final verdicts — are comparable between
    the columnar kernel and the object-walk oracle.
    """
    engine = SmtMonitor(formula, segments=segments, saturate=False)
    result = MonitorResult(formula)
    hb = computation.happened_before()
    segs = engine.segments_of(computation)
    state = engine.initial_state()
    carried_per_segment = []
    for order in range(len(segs)):
        if not state.carried:
            break
        state = engine.step(hb, segs, order, state, result, computation.epsilon)
        carried_per_segment.append(dict(state.carried))
    for residual, count in state.carried.items():
        result.record(close(residual), count)
    return result.verdict_counts, carried_per_segment, _traces(result.segment_reports)


@given(computation=small_computations(), formula=formulas(max_depth=2))
@settings(max_examples=30, **_SETTINGS)
def test_columnar_equals_object_path(computation, formula):
    """The columnar kernel and the object-walk oracle are bit-identical:
    same verdict multisets AND same carried residual dicts at every
    segment boundary, serial and segmented."""
    for segments in (1, 3):
        col_counts, col_carried, _ = _pipeline_trajectory(
            formula, computation, segments
        )
        with object_walk() as calls:
            obj_counts, obj_carried, traces = _pipeline_trajectory(
                formula, computation, segments
            )
        # Vacuity guard: every trace went through the oracle, not the kernel.
        assert len(calls) == traces > 0
        assert col_counts == obj_counts
        assert col_carried == obj_carried


@given(computation=small_computations(), formula=formulas(max_depth=2))
@settings(max_examples=15, **_SETTINGS)
def test_columnar_snapshot_restores_onto_object_path(computation, formula):
    """A session snapshot taken mid-stream under the columnar kernel
    restores and finishes bit-identically under the object-walk oracle
    (and vice versa): the snapshot wire format carries materialized
    formulas, never arena ids."""
    events = sorted(computation.events, key=lambda e: (e.local_time, e.process, e.seq))
    if len(events) < 2:
        return
    cut = events[len(events) // 2].local_time + 1
    epsilon = computation.epsilon

    def run_split(first_oracle: bool, second_oracle: bool):
        with _oracle(first_oracle) as first_calls:
            origin = OnlineMonitor(formula, epsilon)
            for event in events:
                if event.local_time < cut:
                    origin.observe(event.process, event.local_time, event.props)
            origin.advance_to(cut)
            snapshot = pickle.loads(pickle.dumps(origin.snapshot()))
        split = len(snapshot["result"].segment_reports)
        with _oracle(second_oracle) as second_calls:
            restored = OnlineMonitor.restore(snapshot)
            for event in events:
                if event.local_time >= cut:
                    restored.observe(event.process, event.local_time, event.props)
            result = restored.finish()
        # Vacuity guard: each oracle phase progressed every trace it enumerated.
        if first_oracle:
            assert len(first_calls) == _traces(result.segment_reports[:split]) > 0
        if second_oracle:
            assert len(second_calls) == _traces(result.segment_reports[split:])
        return result

    baseline = run_split(True, True)
    for flags in ((False, False), (False, True), (True, False)):
        result = run_split(*flags)
        assert result.verdict_counts == baseline.verdict_counts
        assert result.verdicts == baseline.verdicts


# -- one fold, offline and online ----------------------------------------------------


@given(
    computation=small_computations(),
    formula=formulas(max_depth=2),
    segments=st.sampled_from((2, 3)),
)
@settings(max_examples=40, **_SETTINGS)
def test_online_stream_matches_offline_fold(computation, formula, segments):
    """An online session advanced at the offline segment boundaries folds
    exactly the segments ``SmtMonitor`` folds: same verdict multiset, same
    exactness flags, same events and traces per segment.

    The stream advances at each segment's upper bound up to the last
    non-empty segment, which ``finish`` consumes; advancing at a trailing
    empty segment's bound would clamp the final segment, which the
    offline fold leaves open.  Residual *structure* in the final segment
    is not compared: its anchor differs (``finish`` pads by epsilon), and
    anchors disappear when the residuals close.
    """
    offline = SmtMonitor(
        formula, segments=segments, saturate=False, max_traces_per_segment=None
    ).run(computation)
    online = OnlineMonitor(formula, computation.epsilon, max_traces_per_segment=None)
    for event in sorted(computation.events, key=lambda e: (e.local_time, e.process, e.seq)):
        online.observe(event.process, event.local_time, event.props)
    chopped = segment_computation(computation, segments)
    last = max(i for i, segment in enumerate(chopped) if segment.events)
    for segment in chopped[:last]:
        online.advance_to(segment.hi)
    result = online.finish()
    assert result.verdict_counts == offline.verdict_counts
    assert result.exhaustive == offline.exhaustive
    assert result.verdict_set_complete == offline.verdict_set_complete

    def shape(reports):
        return [(report.events, report.traces_enumerated) for report in reports]

    # The offline fold stops once nothing is carried; the stream keeps going.
    assert shape(result.segment_reports)[: len(offline.segment_reports)] == shape(
        offline.segment_reports
    )
