"""Group-relative policy-optimization math and the gated two-task loss.

Everything here is plain math over logged per-token log-probabilities and
scalar rewards; no model weights are involved.  A group holds K >= 2 sampled
sequences for one prompt.  Advantages are reward z-scores within the group
(population standard deviation, with epsilon added to the denominator), the
KL estimate is the mean per-token log-ratio against a frozen reference, and
the group loss combines both:

    loss = -(1/K) * sum_k [ A_k * l_k - beta * KL_k ]

with l_k the length-normalized current log-probability of sequence k.

`mmtg_loss` is the max-min gated combination of two task losses,

    L = L_max * (2 - gating * tanh(L_min)),

used to keep the harder task dominant while the easier one modulates it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .elements import finite_number, whole_number


@dataclass(frozen=True)
class SequenceLogProbs:
    """Per-token log-probabilities of one sequence under two policies.

    `logp_current` comes from the policy being trained, `logp_reference`
    from the frozen reference.  Both must have the same nonzero length as
    the integer `tokens` and hold finite numbers <= 0.
    """

    tokens: tuple[int, ...]
    logp_current: tuple[float, ...]
    logp_reference: tuple[float, ...]

    def __post_init__(self) -> None:
        for name in ("tokens", "logp_current", "logp_reference"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for v in self.tokens:
            if not whole_number(v):
                raise ValueError(f"tokens must be integers, got {v!r}")
        for name in ("logp_current", "logp_reference"):
            for v in getattr(self, name):
                if not (finite_number(v) and v <= 0.0):
                    raise ValueError(
                        f"{name} entries must be finite numbers <= 0, got {v!r}"
                    )
        t = len(self.tokens)
        if t == 0:
            raise ValueError("sequence must contain at least one token")
        if len(self.logp_current) != t or len(self.logp_reference) != t:
            raise ValueError("tokens and log-prob arrays must share one length")

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class GroupMember:
    """One sampled sequence with its scalar reward."""

    logprobs: SequenceLogProbs
    reward: float

    def __post_init__(self) -> None:
        if not finite_number(self.reward):
            raise ValueError(f"reward must be a finite number, got {self.reward!r}")


DEFAULT_EPSILON = 1e-8  # z-score denominator epsilon


def _check_epsilon(epsilon: float) -> None:
    if not (finite_number(epsilon) and epsilon >= 0.0):
        raise ValueError("epsilon must be finite and >= 0")


@dataclass(frozen=True)
class CandidateGroup:
    """K >= 2 sampled sequences for one prompt."""

    prompt_id: str
    members: tuple[GroupMember, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.prompt_id, str):
            raise ValueError(f"prompt_id must be a string, got {self.prompt_id!r}")
        object.__setattr__(self, "members", tuple(self.members))
        if len(self.members) < 2:
            raise ValueError("a group needs at least two members")

    def rewards(self) -> np.ndarray:
        return np.array([m.reward for m in self.members], dtype=float)


@dataclass(frozen=True)
class GrpoConfig:
    """KL coefficient and the z-score epsilon of the group loss."""

    beta: float = 0.1
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self) -> None:
        if not (finite_number(self.beta) and self.beta >= 0.0):
            raise ValueError("beta must be finite and >= 0")
        _check_epsilon(self.epsilon)


def normalized_logprob(seq: SequenceLogProbs) -> float:
    """Mean per-token current log-probability, (1/T) * sum_t logp_t; <= 0."""
    return float(np.mean(seq.logp_current))


def kl_estimate(seq: SequenceLogProbs) -> float:
    """Mean per-token log-ratio (1/T) * sum_t (logp_cur_t - logp_ref_t).

    Zero when the two policies assigned identical per-token probabilities.
    """
    cur = np.array(seq.logp_current, dtype=float)
    ref = np.array(seq.logp_reference, dtype=float)
    return float(np.mean(cur - ref))


def group_advantages(
    group: CandidateGroup, epsilon: float = DEFAULT_EPSILON
) -> np.ndarray:
    """Reward z-scores within the group: (r_k - mean) / (pop_std + epsilon).

    Uses the population standard deviation.  With all rewards equal the
    numerator is zero for every member, so advantages are all zero whenever
    epsilon > 0 (and defined as zero even at epsilon == 0).
    """
    _check_epsilon(epsilon)
    r = group.rewards()
    mu = float(np.mean(r))
    sigma = float(np.sqrt(np.mean((r - mu) ** 2)))
    denom = sigma + epsilon
    if denom == 0.0:
        return np.zeros(len(r))
    return (r - mu) / denom


def grpo_loss(
    group: CandidateGroup, cfg: GrpoConfig = GrpoConfig()
) -> tuple[float, np.ndarray]:
    """Group loss and per-member contributions.

    Per member: -A_k * l_k + beta * KL_k, with l_k the length-normalized
    current log-probability.  The total is the mean over members.
    """
    *_, per_member = _member_terms(group, cfg)
    return float(np.mean(per_member)), per_member


def _member_terms(
    group: CandidateGroup, cfg: GrpoConfig
) -> tuple[np.ndarray, list[float], list[float], np.ndarray]:
    """Each member's advantage A_k, l_k, KL_k and loss term, each computed once."""
    adv = group_advantages(group, epsilon=cfg.epsilon)
    logp = [normalized_logprob(m.logprobs) for m in group.members]
    kl = [kl_estimate(m.logprobs) for m in group.members]
    per_member = np.array([-a * lp + cfg.beta * k for a, lp, k in zip(adv, logp, kl)])
    return adv, logp, kl, per_member


@dataclass(frozen=True)
class MmtgConfig:
    """Gating strength for the max-min combined loss; in (0, 1]."""

    gating: float = 1.0

    def __post_init__(self) -> None:
        if not (finite_number(self.gating) and 0.0 < self.gating <= 1.0):
            raise ValueError(f"gating must lie in (0, 1], got {self.gating!r}")


def mmtg_loss(
    loss_a: float | np.ndarray,
    loss_b: float | np.ndarray,
    cfg: MmtgConfig = MmtgConfig(),
):
    """Max-min gated combination of two non-negative task losses.

    Computes L_max * (2 - gating * tanh(L_min)) where L_max and L_min are
    the element-wise max and min of the two inputs.  Broadcasts over numpy
    arrays; returns a float for scalar inputs.  The result always lies in
    [L_max, 2 * L_max].
    """
    a = np.asarray(loss_a, dtype=float)
    b = np.asarray(loss_b, dtype=float)
    if np.any(~np.isfinite(a)) or np.any(~np.isfinite(b)):
        raise ValueError("task losses must be finite")
    if np.any(a < 0.0) or np.any(b < 0.0):
        raise ValueError("task losses must be non-negative")
    l_max = np.maximum(a, b)
    l_min = np.minimum(a, b)
    out = l_max * (2.0 - cfg.gating * np.tanh(l_min))
    if out.ndim == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# group records on disk


def group_from_json_dict(obj: dict) -> CandidateGroup:
    """Build a group from one decoded JSON record.

    Expected shape:

        {"prompt_id": str,
         "members": [{"tokens": [int, ...],
                      "logp_current": [float, ...],
                      "logp_reference": [float, ...],
                      "reward": float}, ...]}

    The z-score epsilon is not part of a group: `GrpoConfig.epsilon` (the
    ``grpo`` config's ``epsilon``) sets it, so a record with an "epsilon"
    key is an error.
    """
    if not isinstance(obj, dict):
        raise ValueError("group record must be a JSON object")
    if "epsilon" in obj:
        raise ValueError(
            "group record key 'epsilon' is not supported; set it in the grpo config"
        )
    try:
        prompt_id = obj["prompt_id"]
        raw_members = obj["members"]
    except KeyError as exc:
        raise ValueError(f"group record missing key {exc.args[0]!r}") from None
    if not isinstance(raw_members, list):
        raise ValueError("members must be a list")
    members = []
    for k, raw in enumerate(raw_members):
        if not isinstance(raw, dict):
            raise ValueError(f"member {k} must be a JSON object")
        try:
            seq = SequenceLogProbs(
                tokens=raw.get("tokens", range(len(raw["logp_current"]))),
                logp_current=raw["logp_current"],
                logp_reference=raw["logp_reference"],
            )
            member = GroupMember(logprobs=seq, reward=raw["reward"])
        except KeyError as exc:
            raise ValueError(f"member {k} missing key {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"member {k}: {exc}") from None
        members.append(member)
    return CandidateGroup(prompt_id, tuple(members))


def group_from_json_line(line: str) -> CandidateGroup:
    """Parse one JSONL line into a group; raises ValueError on bad records."""
    try:
        obj = json.loads(line)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"invalid JSON: {exc}") from None
    return group_from_json_dict(obj)


def group_report(group: CandidateGroup, cfg: GrpoConfig = GrpoConfig()) -> dict:
    """Advantages, KL estimates, and losses for one group as a JSON dict."""
    adv, logp, kl, per_member = _member_terms(group, cfg)
    return {
        "prompt_id": group.prompt_id,
        "n_members": len(group.members),
        "rewards": group.rewards().tolist(),
        "advantages": [float(a) for a in adv],
        "normalized_logprob": logp,
        "kl": kl,
        "per_member_loss": [float(v) for v in per_member],
        "loss": float(np.mean(per_member)),
    }


def sequences_from_token_counts(
    theta: Sequence[float],
    theta_ref: Sequence[float],
    tokens: Sequence[int],
) -> SequenceLogProbs:
    """Log-probs of a token sequence under softmax(theta) per position.

    A small helper for toy policies whose per-position distribution is a
    single softmax over the vocabulary; used for gradient checking.
    """
    th = np.asarray(theta, dtype=float)
    th_ref = np.asarray(theta_ref, dtype=float)
    # clamp: rounding can push log-softmax a hair above zero
    logp = np.minimum(th - _logsumexp(th), 0.0)
    logp_ref = np.minimum(th_ref - _logsumexp(th_ref), 0.0)
    toks = tuple(int(t) for t in tokens)
    return SequenceLogProbs(
        tokens=toks,
        logp_current=tuple(float(logp[t]) for t in toks),
        logp_reference=tuple(float(logp_ref[t]) for t in toks),
    )


def _logsumexp(x: np.ndarray) -> float:
    m = float(np.max(x))
    return m + math.log(float(np.sum(np.exp(x - m))))
