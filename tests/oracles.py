"""Per-call oracles the tests compare the runtime's bulk paths against."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from bfpo.losses import Batch, LossConfig, Method
from bfpo.policy import PolicyParams, Sample
from bfpo.verification import GradientCase


@dataclass(eq=False)
class OracleCase:
    """A gradient case as :func:`random_gradient_case` draws it: its batch
    holds :class:`Sample` objects."""

    batch: Batch
    policy: PolicyParams
    reference: PolicyParams
    config: LossConfig
    delta: float


def random_samples(
    rng: np.random.Generator, vocab: int, count: int, max_len: int = 3
) -> list[Sample]:
    samples = []
    for _ in range(count):
        x = tuple(rng.integers(0, vocab, int(rng.integers(0, 3))).tolist())
        y = tuple(rng.integers(0, vocab, int(rng.integers(1, max_len + 1))).tolist())
        samples.append(Sample(user_id="v", x=x, y=y))
    return samples


def random_gradient_case(method: Method, rng: np.random.Generator) -> OracleCase:
    """One randomized draw, not yet screened or scored, one ``Generator``
    call per value: the stream :func:`bfpo.verification.draw_gradient_cases`
    decodes."""
    vocab = int(rng.integers(3, 6))
    context = int(rng.integers(2, 5))
    policy = PolicyParams(vocab, context, rng.normal(0.0, 1.0, (context, vocab)))
    reference = PolicyParams(vocab, context, rng.normal(0.0, 1.0, (context, vocab)))
    config = LossConfig(
        beta=float(rng.uniform(0.3, 2.0)),
        alpha=float(rng.uniform(0.0, 0.9)),
        pi_n=float(rng.uniform(0.3, 1.0)),
        lambda_d=float(rng.uniform(0.5, 2.0)),
        lambda_u=float(rng.uniform(0.5, 2.0)),
    )
    delta = float(rng.uniform(-1.0, 1.0))
    batch = Batch.of(
        pos=random_samples(rng, vocab, int(rng.integers(1, 4))),
        aux=random_samples(rng, vocab, int(rng.integers(1, 4))),
    )
    if method is Method.DPO:
        # Each preferred completion, and a rejected one for its prompt.
        pos = random_samples(rng, vocab, int(rng.integers(1, 4)))
        aux = [Sample("v", s.x, t.y) for s, t in zip(pos, random_samples(rng, vocab, 3))]
        batch = Batch.of(pos=pos, aux=aux)
    return OracleCase(batch, policy, reference, config, delta)


def batch_of(case: GradientCase) -> Batch:
    """A drawn case's sequences as a batch of :class:`Sample` objects."""
    samples = [Sample("v", x, y) for x, y in case.sequences]
    return Batch.of(pos=samples[: case.n_pos], aux=samples[case.n_pos :])
