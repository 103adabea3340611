"""Toolkit for the noisy shuffling-sampling storage channel.

Simulates writing data onto many short unordered molecules that are
randomly sampled, bit-flipped, and shuffled on readout; implements the
index-based concatenated codec for that channel; and provides the
closed-form capacity expressions, bounds, and a seeded Monte Carlo harness
that checks them empirically.
"""

from .capacity import (
    CapacityResult,
    TradeoffPoint,
    binary_entropy,
    capacity_upper_bound,
    chernoff_read_error_bound,
    counting_T,
    counting_T_log_upper,
    coupon_tail_bound,
    dmc_capacity_ba,
    hoeffding_seen_fraction_bound,
    in_capacity_region,
    kl_binary,
    noise_free_capacity,
    noisy_capacity,
    optimal_lambda,
    region_boundary,
    scheme_rate,
    sdmc_capacity,
    short_molecule_bound,
    tradeoff_point,
)
from .channel import (
    Bernoulli,
    ChannelOutput,
    ChannelParams,
    CodewordSet,
    CustomPMF,
    Poisson,
    PoissonPCR,
    SamplingSpec,
    apply_noise,
    sample_counts,
    shuffle_reads,
    transmit,
    transmit_traced,
)
from .codec import (
    CodecConfig,
    ConfigError,
    DecodeReport,
    IdentityCode,
    InnerCodeSpec,
    RepetitionCode,
    TableMLCode,
    achieved_rate,
    decode_output,
    encode_message,
    inner_decode,
    inner_encode,
    outer_decode,
    outer_encode,
    parse_reads,
    random_message,
    read_reads_file,
    short_molecule_decode,
    short_molecule_encode,
    dump_reads,
    write_reads_file,
)
from .montecarlo import (
    BoundCheck,
    CouponTail,
    DecodeSuccess,
    EstimateQ0,
    ExperimentSpec,
    RunResult,
    ShortMoleculeSuccess,
    Summary,
    TrialRecord,
    measure_undetected_swaps,
    rate_vs_capacity_sweep,
    records_to_jsonl,
    region_sweep,
    run,
    tradeoff_sweep,
    verify_chernoff,
)

__version__ = "0.1.0"
