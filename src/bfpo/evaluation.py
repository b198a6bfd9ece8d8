"""Held-out metrics for a personalized checkpoint.

Three numbers summarize a run: per-token negative log-likelihood on the target
user's held-out data, the fraction of held-out (target, auxiliary) pairs whose
implicit reward ranks the target sample higher, and the per-token
log-probability shift of the personalized policy over the frozen warm-start
policy on auxiliary held-out data (negative values mean shared preferences
were eroded).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass

from .errors import InputError
from .policy import (
    PolicyParams,
    SampleTable,
    encode_table,
    ordered_sum,
    sequence_log_probs,
    softmax_tables,
)

__all__ = ["EvalReport", "evaluate_policy"]


@dataclass(frozen=True)
class EvalReport:
    heldout_nll: float
    pref_acc: float
    delta_logp_aux: float
    target_user: str
    method: str
    n_tar_heldout: int
    n_aux_heldout: int
    n_pairs: int
    config_hash: str
    checkpoint_step: int

    def to_dict(self) -> dict:
        return asdict(self)


def _pair_accuracy(tar_rewards: list[float], aux_rewards: list[float]) -> float:
    """Fraction of (target, aux) pairs won by the target sample; ties count half."""
    ordered = sorted(aux_rewards)
    score = 0.0
    for r in tar_rewards:
        lo = bisect_left(ordered, r)
        hi = bisect_right(ordered, r)
        score += lo + 0.5 * (hi - lo)
    return score / (len(tar_rewards) * len(aux_rewards))


def evaluate_policy(
    policy: PolicyParams,
    reference: PolicyParams,
    population: dict[str, SampleTable],
    target_user: str,
    aux_user_ids: list[str],
    beta: float,
    method: str = "",
    config_hash: str = "",
    checkpoint_step: int = 0,
) -> EvalReport:
    """Deterministic held-out report for a (policy, reference) pair."""
    if target_user not in population:
        raise InputError(f"target user {target_user!r} missing from corpus")
    for uid in aux_user_ids:
        if uid not in population:
            raise InputError(f"user {uid!r} missing from corpus")
    tables = [population[uid] for uid in [target_user, *aux_user_ids]]
    # The target's held-out rows, then each auxiliary user's in turn.
    held = SampleTable.concat(tables).split_rows("heldout")
    n_tar = int(tables[0].heldout.sum())
    n_aux = len(held) - n_tar
    if not n_tar:
        raise InputError(f"no held-out samples for target user {target_user!r}")
    if not n_aux:
        raise InputError("no held-out samples for the auxiliary users")

    if reference.logits.shape != policy.logits.shape:
        raise InputError(
            f"policy and reference shapes differ: {policy.logits.shape} vs "
            f"{reference.logits.shape}"
        )
    codes = encode_table(held, policy.context_size, policy.vocab_size)
    log_probs = sequence_log_probs(softmax_tables(policy.logits)[0], codes)
    log_ratio = log_probs - sequence_log_probs(softmax_tables(reference.logits)[0], codes)
    tar_tokens = int(codes.lengths[:n_tar].sum())
    aux_tokens = int(codes.lengths[n_tar:].sum())

    nll = -ordered_sum(log_probs[:n_tar]) / tar_tokens
    rewards = (beta * log_ratio).tolist()
    acc = _pair_accuracy(rewards[:n_tar], rewards[n_tar:])
    delta_logp = ordered_sum(log_ratio[n_tar:]) / aux_tokens

    return EvalReport(
        heldout_nll=nll,
        pref_acc=acc,
        delta_logp_aux=delta_logp,
        target_user=target_user,
        method=method,
        n_tar_heldout=n_tar,
        n_aux_heldout=n_aux,
        n_pairs=n_tar * n_aux,
        config_hash=config_hash,
        checkpoint_step=checkpoint_step,
    )

