"""Per-layer metrics of the traced run, and what each one should move.

Layers are the package modules ``rng``, ``channel``, ``codec``, ``gf``,
``montecarlo`` and ``cli`` (``capacity`` is closed-form microsecond work
that no workload stresses).  Times are per-trial means of self time, in ms.

Which end-to-end metric each layer metric should move, and on which
workload, so that a later change can name its claim by metric and workload:

=====================================================  ==========================  ==============================
layer metrics                                          should move                 mainly on
=====================================================  ==========================  ==============================
gf.rs_init_ms, gf.rs_init_calls_per_trial,             trials_per_s, peak_rss_mb   archive-m4096
gf.rs_decode_ms, gf.rs_encode_ms                                                   (deep-pcr-m256 a little)
channel.sample_counts_ms, channel.apply_noise_ms,      trials_per_s                deep-pcr-m256 (short-l4-m64
channel.transmit_self_ms (expand + shuffle),                                       via the inversion branch)
channel.reads_per_trial
codec.decode_output_self_ms (inner decode + dedup),    trials_per_s                deep-pcr-m256, then
codec.encode_message_self_ms, codec.random_message_ms,                             archive-m4096
codec.erasures_per_trial, codec.collisions_per_trial,
codec.useful_read_ratio = (M - erasures) / reads
codec.short_molecule_encode_ms,                        trials_per_s                short-l4-m64
codec.short_molecule_decode_ms
rng.derive_seed_ms, rng.generator_ms,                  trials_per_s, setup_s       short-l4-m64
montecarlo.run_self_ms, montecarlo.records_to_jsonl_ms,
cli.main_self_ms
trace_overhead_ratio = traced / untraced trials_per_s  --                          all
gf.rs_init_ms.m<M>, gf.rs_decode_ms.m<M>,              trials_per_s, peak_rss_mb   RS scaling series,
gf.rs_init_peak_mb.m<M> (tracemalloc)                                              M in 256, 1024, 4096
=====================================================  ==========================  ==============================
"""

from __future__ import annotations

# Per-layer metric -> span whose self time it reports.
SELF_TIME_METRICS = {
    "gf.rs_init_ms": "gf.rs_init",
    "gf.rs_decode_ms": "gf.rs_decode",
    "gf.rs_encode_ms": "gf.rs_encode",
    "channel.sample_counts_ms": "channel.sample_counts",
    "channel.apply_noise_ms": "channel.apply_noise",
    "channel.transmit_self_ms": "channel.transmit",
    "codec.decode_output_self_ms": "codec.decode_output",
    "codec.encode_message_self_ms": "codec.encode_message",
    "codec.random_message_ms": "codec.random_message",
    "codec.short_molecule_encode_ms": "codec.short_molecule_encode",
    "codec.short_molecule_decode_ms": "codec.short_molecule_decode",
    "rng.derive_seed_ms": "rng.derive_seed",
    "rng.generator_ms": "rng.generator",
    "montecarlo.run_self_ms": "montecarlo.run",
    "montecarlo.records_to_jsonl_ms": "montecarlo.records_to_jsonl",
    "cli.main_self_ms": "cli.main",
}


def layer_metrics(self_s: dict, counts: dict, trials: int) -> dict:
    """Per-trial metrics from summed span self times (s) and counters."""
    out = {metric: 1000.0 * self_s.get(span, 0.0) / trials
           for metric, span in SELF_TIME_METRICS.items()}
    reads = counts.get("reads", 0)
    out["gf.rs_init_calls_per_trial"] = counts.get("rs_init_calls", 0) / trials
    out["channel.reads_per_trial"] = reads / trials
    out["codec.erasures_per_trial"] = counts.get("erasures", 0) / trials
    out["codec.collisions_per_trial"] = counts.get("collisions", 0) / trials
    out["codec.useful_read_ratio"] = (
        counts.get("decoded_molecules", 0) / reads if reads else 0.0
    )
    return out


def unit(name: str) -> str:
    if "_mb" in name:
        return "MB"
    if name.endswith("_ms") or "_ms." in name:
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"
