"""Encoding a segment's trace set as a constraint problem (paper Section V)."""

from repro.encoding.cut_encoder import encode_segment, timestamp_domain
from repro.encoding.enumerator import count_traces, enumerate_traces
from repro.encoding.trace_extractor import build_trace, model_to_trace
from repro.encoding.verdict_enumerator import SegmentOutcome, enumerate_segment_outcomes

__all__ = [
    "SegmentOutcome",
    "build_trace",
    "count_traces",
    "encode_segment",
    "enumerate_segment_outcomes",
    "enumerate_traces",
    "model_to_trace",
    "timestamp_domain",
]
