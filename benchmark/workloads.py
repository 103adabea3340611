"""The three benchmark workloads and their correctness checks.

Each workload is run in batches.  Batch ``b`` of a run under benchmark seed
``s`` has its own base seed, so an untraced and a traced run of the same
seed execute the same batches and must produce the same JSONL bytes.

* ``archive-m4096``: paper-scale archive (M=4096, identity inner code, RS
  k=3600) at low Bernoulli coverage.  Reed-Solomon construction and erasure
  decoding dominate; the channel barely runs.
* ``deep-pcr-m256``: deep PCR-amplified, noisy coverage (M=256, rep(3),
  poisson_pcr(20, 5), p=0.01).  Per-molecule PCR sampling, inner decode and
  index dedup dominate; RS is a few per cent.
* ``short-l4-m64``: the ``short-l4-m64`` roundtrip preset through the CLI
  in-process.  Thousands of tiny beta<1 trials: harness, rng and the
  short-molecule codec dominate; RS never runs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math

import numpy as np

from dnachannel import cli, montecarlo
from dnachannel.channel import ChannelParams, SamplingSpec, transmit
from dnachannel.codec import (
    CodecConfig,
    InnerCodeSpec,
    decode_output,
    encode_message,
    random_message,
    short_molecule_decode,
    short_molecule_encode,
)

# Fixed inputs of the pinned-digest check (independent of --seed).
REFERENCE_SEED = 12345


def batch_seed(seed: int, batch: int) -> int:
    """Base seed of one batch; batch -1 is the warm-up trial."""
    return seed * 1_000_003 + batch + 1


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class LibraryWorkload:
    """``montecarlo.run`` on a decode-success spec, then JSONL serialisation."""

    def __init__(self, channel, codec, batch_trials, reference_trials, roundtrip_trials):
        self.channel = channel
        self.codec = codec
        self.batch_trials = batch_trials
        self.reference_trials = reference_trials
        self.roundtrip_trials = roundtrip_trials

    def spec(self, trials: int, base_seed: int):
        return montecarlo.ExperimentSpec.decode_success(
            self.channel, self.codec, trials, base_seed, min_rate=1.0
        )

    def run_batch(self, trials, base_seed):
        """One batch; returns (JSONL digest, verdict, trials summarised).

        Module attributes are looked up per call so tracing wrappers apply.
        """
        result = montecarlo.run(self.spec(trials, base_seed), workers=1)
        digest = sha256(montecarlo.records_to_jsonl(result.records))
        return digest, result.summary.verdict, result.summary.trials

    def check_roundtrip(self, seed: int) -> bool:
        """Decoded message equals the message sent, on benchmark-drawn inputs.

        Bit flips can make a decode report success with a wrong message (a
        measured property of the scheme), so this check runs noise-free.
        """
        channel = dataclasses.replace(self.channel, p=0.0)
        for t in range(self.roundtrip_trials):
            rng = np.random.default_rng([seed, t])
            msg = random_message(self.codec, rng)
            out = transmit(encode_message(msg, self.codec), channel, rng)
            report = decode_output(out, self.codec)
            if report.message is None or not np.array_equal(report.message, msg):
                return False
        return True


class CliWorkload:
    """``dnachannel roundtrip --preset short-l4-m64 --strict`` via ``cli.main``."""

    preset = "short-l4-m64"
    M, L = 64, 4
    # The preset's verdict needs success >= 0.99 at ~0.3 % failing trials,
    # so batches must be large for no batch to fail by chance.
    batch_trials = 2000
    reference_trials = 1000
    roundtrip_trials = 200

    def __init__(self, out_path):
        self.out_path = out_path

    def argv(self, trials: int, base_seed: int) -> list[str]:
        return ["roundtrip", "--preset", self.preset, "--strict",
                "--out", self.out_path, "--seed", str(base_seed),
                "--trials", str(trials), "--workers", "1"]

    def run_batch(self, trials, base_seed):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self.argv(trials, base_seed))
        with open(self.out_path) as fh:
            text = fh.read()
        summary = json.loads(text.rstrip("\n").rsplit("\n", 1)[-1])
        verdict = summary.get("verdict") if code == 0 else "FAIL"
        return sha256(text), verdict, summary["trials"]

    def check_roundtrip(self, seed: int) -> bool:
        """Every observed segment decodes to the stored bit (p = 0)."""
        params = ChannelParams(M=self.M, beta=self.L / math.log2(self.M), p=0.0,
                               sampling=SamplingSpec.poisson(1.0), L=self.L)
        K = 1 << (self.L - 1)
        for t in range(self.roundtrip_trials):
            rng = np.random.default_rng([seed, t])
            bits = rng.integers(0, 2, size=K, dtype=np.uint8)
            out = transmit(short_molecule_encode(bits, self.M, self.L), params, rng)
            got = short_molecule_decode(out, self.L)
            seen = got >= 0
            if not np.array_equal(got[seen], bits[seen]):
                return False
        return True


def build(name: str, out_path: str):
    if name == "archive-m4096":
        M, L = 4096, 24
        return LibraryWorkload(
            ChannelParams(M=M, beta=L / math.log2(M), p=0.0,
                          sampling=SamplingSpec.bernoulli(0.05), L=L),
            CodecConfig(M=M, L=L, inner=InnerCodeSpec.identity(), outer_k=3600),
            batch_trials=1, reference_trials=2, roundtrip_trials=1,
        )
    if name == "deep-pcr-m256":
        M, L = 256, 48
        return LibraryWorkload(
            ChannelParams(M=M, beta=L / math.log2(M), p=0.01,
                          sampling=SamplingSpec.poisson_pcr(20.0, 5.0), L=L),
            CodecConfig(M=M, L=L, inner=InnerCodeSpec.repetition(3), outer_k=192),
            batch_trials=10, reference_trials=20, roundtrip_trials=5,
        )
    if name == "short-l4-m64":
        return CliWorkload(out_path)
    raise KeyError(name)


NAMES = ("archive-m4096", "deep-pcr-m256", "short-l4-m64")
