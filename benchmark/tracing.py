"""Span recorder for the traced benchmark run.

Spans come only from wrappers installed here around the public names that
``montecarlo``, ``channel`` and ``cli`` import, plus a proxy for
``codec.ReedSolomonErasure``; nothing inside ``src/`` is changed.  Spans are
kept in memory and reduced to self times when the run ends (a span's self
time is its duration minus that of its direct children).  The metrics built
from them are defined in ``layers.py``.
"""

from __future__ import annotations

import time
from collections import defaultdict

from dnachannel import channel, cli, codec, gf, montecarlo

# (module, attribute, span name) for every wrapped call site.
_WRAPPED = [
    (montecarlo, "derive_seed", "rng.derive_seed"),
    (montecarlo, "generator_from_seed", "rng.generator"),
    (montecarlo, "random_message", "codec.random_message"),
    (montecarlo, "encode_message", "codec.encode_message"),
    (montecarlo, "decode_output", "codec.decode_output"),
    (montecarlo, "short_molecule_encode", "codec.short_molecule_encode"),
    (montecarlo, "short_molecule_decode", "codec.short_molecule_decode"),
    (montecarlo, "transmit_traced", "channel.transmit"),
    (channel, "sample_counts", "channel.sample_counts"),
    (channel, "apply_noise", "channel.apply_noise"),
    (montecarlo, "run", "montecarlo.run"),
    (montecarlo, "records_to_jsonl", "montecarlo.records_to_jsonl"),
    (cli, "run", "montecarlo.run"),
    (cli, "records_to_jsonl", "montecarlo.records_to_jsonl"),
    (cli, "main", "cli.main"),
]


class Tracer:
    """Span recorder; ``install`` patches the call sites, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(result, *args)
            return result

        return wrapper

    def install(self):
        observers = {
            "codec.decode_output": self._observe_decode,
            "channel.transmit": self._observe_transmit,
        }
        for module, attr, name in _WRAPPED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, observers.get(name)))
        self._saved.append((codec, "ReedSolomonErasure", codec.ReedSolomonErasure))
        codec.ReedSolomonErasure = self._rs_proxy

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _rs_proxy(self, n, k, w):
        self.counts["rs_init_calls"] += 1
        rs = self.wrap("gf.rs_init", gf.ReedSolomonErasure)(n, k, w)
        rs.encode = self.wrap("gf.rs_encode", rs.encode)
        rs.decode_erasures = self.wrap("gf.rs_decode", rs.decode_erasures)
        return rs

    def _observe_transmit(self, result, *args):
        self.counts["reads"] += result[0].N

    def _observe_decode(self, report, out, cfg):
        self.counts["erasures"] += report.erasures
        self.counts["collisions"] += report.collisions
        self.counts["decoded_molecules"] += cfg.M - report.erasures

    def self_times(self) -> dict[str, float]:
        """Summed self time in seconds per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            totals[name] += (end - start) - child[i]
        return totals
