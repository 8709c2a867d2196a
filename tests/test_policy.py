"""Group-relative advantages, KL, combined losses, and the gated two-task loss."""

import json
import math

import numpy as np
import pytest

from catloop import policy
from catloop.policy import (
    DEFAULT_EPSILON,
    CandidateGroup,
    GroupMember,
    GrpoConfig,
    MmtgConfig,
    SequenceLogProbs,
    group_advantages,
    group_from_json_dict,
    group_from_json_line,
    group_report,
    grpo_loss,
    kl_estimate,
    mmtg_loss,
    normalized_logprob,
    sequences_from_token_counts,
)

SQRT_1_5 = 1.2247448713915892  # 0.3 / sqrt(0.06), frozen by hand


def seq(cur, ref=None, tokens=None):
    cur = tuple(cur)
    ref = cur if ref is None else tuple(ref)
    toks = tuple(range(len(cur))) if tokens is None else tuple(tokens)
    return SequenceLogProbs(tokens=toks, logp_current=cur, logp_reference=ref)


def group_of(rewards):
    members = tuple(GroupMember(seq([-1.0, -1.0]), r) for r in rewards)
    return CandidateGroup("p", members)


# ---------------------------------------------------------------------------
# advantages


def test_advantages_frozen_example():
    adv = group_advantages(group_of([0.2, 0.8, 0.5]), epsilon=0.0)
    assert adv == pytest.approx([-SQRT_1_5, SQRT_1_5, 0.0], abs=1e-12)


def test_advantages_mean_zero():
    rng = np.random.default_rng(5)
    for _ in range(200):
        k = int(rng.integers(2, 9))
        adv = group_advantages(group_of(rng.normal(size=k).tolist()))
        assert abs(float(np.mean(adv))) <= 1e-9


def test_advantages_equal_rewards_are_zero():
    # 0.5 is exactly representable, so the deviations are literally zero
    assert np.all(group_advantages(group_of([0.5, 0.5, 0.5])) == 0.0)
    # even with epsilon exactly zero the degenerate case is defined as zero
    assert np.all(group_advantages(group_of([0.5, 0.5]), epsilon=0.0) == 0.0)
    # rewards like 0.4 leave ~1e-17 rounding residue in the mean; near-zero only
    assert np.all(np.abs(group_advantages(group_of([0.4, 0.4, 0.4]))) <= 1e-8)


def test_advantages_epsilon_shrinks_magnitude():
    g = group_of([0.0, 1.0])
    a0 = group_advantages(g, epsilon=0.0)
    a1 = group_advantages(g, epsilon=0.5)
    assert abs(a1[1]) < abs(a0[1])
    assert a0[1] == pytest.approx(1.0)  # (1 - 0.5) / 0.5
    assert a1[1] == pytest.approx(0.5)  # (1 - 0.5) / (0.5 + 0.5)


def test_advantages_override_epsilon():
    g = group_of([0.0, 1.0])
    assert group_advantages(g)[1] == 0.5 / (0.5 + DEFAULT_EPSILON)
    assert group_advantages(g, epsilon=0.5)[1] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# per-sequence quantities


def test_normalized_logprob():
    s = seq([-0.5, -1.5], ref=[-1.0, -3.0])
    assert normalized_logprob(s) == pytest.approx(-1.0, abs=1e-15)


def test_kl_estimate_exact():
    assert kl_estimate(seq([-1.0, -1.0], ref=[-2.0, -2.0])) == 1.0
    assert kl_estimate(seq([-1.3, -0.2])) == 0.0  # identical policies


def test_kl_sign():
    # current assigns higher probability than reference -> positive
    assert kl_estimate(seq([-0.5], ref=[-1.5])) > 0
    assert kl_estimate(seq([-1.5], ref=[-0.5])) < 0


# ---------------------------------------------------------------------------
# group loss


def two_member_group(beta_matters=False):
    ref1 = (-1.0, -1.0) if beta_matters else (-0.5, -0.5)
    m1 = GroupMember(seq([-0.5, -0.5], ref=ref1), reward=1.0)
    m2 = GroupMember(seq([-2.0, -2.0]), reward=0.0)
    return CandidateGroup("p", (m1, m2))


def test_grpo_loss_frozen_example():
    total, per = grpo_loss(two_member_group(), GrpoConfig(beta=0.1, epsilon=0.0))
    assert per == pytest.approx([0.5, -2.0], abs=1e-12)
    assert total == pytest.approx(-0.75, abs=1e-12)


def test_grpo_loss_beta_term():
    # member 1 KL = mean(-0.5 - (-1.0)) = 0.5 -> adds beta * 0.5
    total, per = grpo_loss(
        two_member_group(beta_matters=True), GrpoConfig(beta=0.1, epsilon=0.0)
    )
    assert per[0] == pytest.approx(0.5 + 0.05, abs=1e-12)
    assert total == pytest.approx((0.55 - 2.0) / 2.0, abs=1e-12)


def test_grpo_loss_uses_group_epsilon_only_via_config():
    g = group_of([0.0, 1.0])
    total, _ = grpo_loss(g, GrpoConfig(beta=0.0, epsilon=0.0))
    assert total == pytest.approx(-np.mean([-1.0 * -1.0, 1.0 * -1.0]), abs=1e-12)
    # a large config epsilon shrinks the advantages, and so the loss
    damped, _ = grpo_loss(g, GrpoConfig(beta=0.0, epsilon=123.0))
    assert damped == pytest.approx(total / 123.5, abs=1e-12)


def test_equal_rewards_loss_is_pure_kl():
    m = GroupMember(seq([-1.0], ref=[-2.0]), reward=0.5)
    g = CandidateGroup("p", (m, m))
    total, per = grpo_loss(g, GrpoConfig(beta=0.2))
    assert per == pytest.approx([0.2, 0.2], abs=1e-12)
    assert total == pytest.approx(0.2, abs=1e-12)


# ---------------------------------------------------------------------------
# validation


def test_sequence_validation():
    with pytest.raises(ValueError):
        SequenceLogProbs((), (), ())
    with pytest.raises(ValueError):
        SequenceLogProbs((1, 2), (-1.0,), (-1.0, -2.0))
    with pytest.raises(ValueError):
        seq([0.5, -1.0])  # positive log-prob
    with pytest.raises(ValueError):
        seq([-1.0, float("nan")])
    seq([0.0, -1.0])  # exactly zero is allowed


def test_member_and_group_validation():
    with pytest.raises(ValueError):
        GroupMember(seq([-1.0]), reward=float("inf"))
    with pytest.raises(ValueError):
        CandidateGroup("p", (GroupMember(seq([-1.0]), 1.0),))
    with pytest.raises(ValueError):
        group_advantages(group_of([0.0, 1.0]), epsilon=-1e-9)
    with pytest.raises(ValueError):
        group_advantages(group_of([0.0, 1.0]), epsilon=float("inf"))
    with pytest.raises(ValueError):
        GrpoConfig(beta=-0.1)
    with pytest.raises(ValueError):
        GrpoConfig(epsilon=float("nan"))


# ---------------------------------------------------------------------------
# gated two-task loss


def test_mmtg_frozen_example():
    got = mmtg_loss(2.0, 1.0)
    assert isinstance(got, float)
    assert got == pytest.approx(2.4768116880884703, abs=1e-12)


def test_mmtg_symmetric():
    assert mmtg_loss(1.0, 2.0) == mmtg_loss(2.0, 1.0)


def test_mmtg_gating_strength():
    got = mmtg_loss(2.0, 1.0, MmtgConfig(gating=0.5))
    assert got == pytest.approx(2.0 * (2.0 - 0.5 * math.tanh(1.0)), abs=1e-12)


def test_mmtg_zero_min_degenerates_to_double_max():
    assert mmtg_loss(3.0, 0.0) == pytest.approx(6.0, abs=1e-15)
    assert mmtg_loss(0.0, 0.0) == 0.0


def test_mmtg_bounds_random():
    rng = np.random.default_rng(9)
    a = rng.uniform(0, 50, size=10_000)
    b = rng.uniform(0, 50, size=10_000)
    out = mmtg_loss(a, b)
    l_max = np.maximum(a, b)
    assert np.all(out >= l_max - 1e-12)
    assert np.all(out <= 2.0 * l_max + 1e-12)


def test_mmtg_broadcasting():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = mmtg_loss(a, 2.0)
    assert out.shape == (2, 2)
    assert out[0, 0] == pytest.approx(mmtg_loss(1.0, 2.0))
    assert out[1, 1] == pytest.approx(mmtg_loss(4.0, 2.0))
    col = mmtg_loss(a, np.array([1.0, 10.0]))
    assert col.shape == (2, 2)
    assert col[0, 1] == pytest.approx(mmtg_loss(2.0, 10.0))


def test_mmtg_validation():
    with pytest.raises(ValueError):
        mmtg_loss(-0.1, 1.0)
    with pytest.raises(ValueError):
        mmtg_loss(1.0, float("inf"))
    with pytest.raises(ValueError):
        MmtgConfig(gating=0.0)
    with pytest.raises(ValueError):
        MmtgConfig(gating=1.5)


# ---------------------------------------------------------------------------
# gradient check against the toy softmax policy


VOCAB = 3
T = 2
THETA_REF = np.array([0.1, -0.2, 0.3])
TOKEN_SEQS = [(0, 0), (1, 1)]
REWARDS = [1.0, 0.0]
BETA = 0.1


def toy_group(theta):
    members = tuple(
        GroupMember(sequences_from_token_counts(theta, THETA_REF, toks), r)
        for toks, r in zip(TOKEN_SEQS, REWARDS)
    )
    return CandidateGroup("toy", members)


def toy_loss(theta):
    return grpo_loss(toy_group(theta), GrpoConfig(beta=BETA, epsilon=0.0))[0]


def analytic_gradient(theta):
    # d l_k / d theta_v = count_v(y_k) / T - softmax(theta)_v, and the loss is
    # mean_k [-A_k * l_k + beta * (l_k - l_k_ref)] with A independent of theta
    p = np.exp(theta - np.max(theta))
    p /= p.sum()
    adv = group_advantages(toy_group(theta), epsilon=0.0)
    grad = np.zeros(VOCAB)
    for a_k, toks in zip(adv, TOKEN_SEQS):
        counts = np.bincount(np.array(toks), minlength=VOCAB) / T
        grad += (-a_k + BETA) * (counts - p)
    return grad / len(TOKEN_SEQS)


def test_gradient_check_central_differences():
    theta = np.array([0.2, -0.1, 0.4])
    grad = analytic_gradient(theta)
    h = 1e-6
    for v in range(VOCAB):
        e = np.zeros(VOCAB)
        e[v] = h
        fd = (toy_loss(theta + e) - toy_loss(theta - e)) / (2.0 * h)
        denom = max(abs(grad[v]), 1e-8)
        assert abs(fd - grad[v]) / denom <= 1e-5


def test_gradient_descent_reduces_loss():
    theta = np.array([0.0, 0.0, 0.0])
    before = toy_loss(theta)
    for _ in range(25):
        theta = theta - 0.5 * analytic_gradient(theta)
    after = toy_loss(theta)
    assert after < before
    # pushing probability toward the rewarded token raises its logit
    assert theta[0] > theta[1]


# ---------------------------------------------------------------------------
# JSON records


def record():
    obj = {
        "prompt_id": "g1",
        "members": [
            {
                "tokens": [3, 7],
                "logp_current": [-0.5, -0.5],
                "logp_reference": [-0.5, -0.5],
                "reward": 1.0,
            },
            {
                "logp_current": [-2.0, -2.0],
                "logp_reference": [-2.0, -2.0],
                "reward": 0.0,
            },
        ],
    }
    return obj


def test_group_from_json_dict():
    g = group_from_json_dict(record())
    assert g.prompt_id == "g1"
    assert g.members[0].logprobs.tokens == (3, 7)
    # tokens fall back to positional indices when omitted
    assert g.members[1].logprobs.tokens == (0, 1)
    total, _ = grpo_loss(g, GrpoConfig(beta=0.1, epsilon=0.0))
    assert total == pytest.approx(-0.75, abs=1e-12)


def test_group_from_json_dict_rejects_epsilon():
    # the z-score epsilon has one source, GrpoConfig.epsilon (the grpo config)
    for epsilon in (0.0, 0.25, None):
        with pytest.raises(ValueError, match="set it in the grpo config"):
            group_from_json_dict({**record(), "epsilon": epsilon})


def test_group_from_json_line_round_trip():
    g = group_from_json_line(json.dumps(record()))
    assert len(g.members) == 2


@pytest.mark.parametrize(
    "breaker",
    [
        lambda o: o.pop("prompt_id"),
        lambda o: o.pop("members"),
        lambda o: o.__setitem__("members", "nope"),
        lambda o: o["members"][0].pop("reward"),
        lambda o: o["members"][0].pop("logp_reference"),
        lambda o: o["members"][0].__setitem__("logp_current", [0.5]),
        lambda o: o.__setitem__("members", o["members"][:1]),
        # JSON types are kept, never coerced
        lambda o: o["members"][0].__setitem__("reward", True),
        lambda o: o["members"][0].__setitem__("reward", "0.25"),
        lambda o: o["members"][0].__setitem__("reward", 10**400),
        lambda o: o["members"][0].update(
            tokens="abc", logp_current=[-0.5] * 3, logp_reference=[-0.5] * 3
        ),
        lambda o: o["members"][0].__setitem__("tokens", [1.5, 2]),
        lambda o: o.__setitem__("prompt_id", None),
        # false is a bool, not the log-probability 0
        lambda o: o["members"][0]["logp_current"].__setitem__(0, False),
        # a member that is not a JSON object
        lambda o: o["members"].__setitem__(0, [-0.5, -0.5]),
    ],
)
def test_group_from_json_dict_errors(breaker):
    obj = record()
    breaker(obj)
    with pytest.raises(ValueError):
        group_from_json_dict(obj)


def test_group_from_json_line_bad_json():
    with pytest.raises(ValueError, match="invalid JSON"):
        group_from_json_line("{not json")


def test_group_report(monkeypatch):
    group, cfg = two_member_group(), GrpoConfig(beta=0.1, epsilon=0.0)
    calls = []
    for name in ("group_advantages", "normalized_logprob", "kl_estimate"):
        real = getattr(policy, name)
        monkeypatch.setattr(
            policy, name,
            lambda *a, real=real, name=name, **k: calls.append(name) or real(*a, **k),
        )
    rep = group_report(group, cfg)
    # each term is computed once for the group or once per member
    assert sorted(calls) == [
        "group_advantages", "kl_estimate", "kl_estimate",
        "normalized_logprob", "normalized_logprob",
    ]
    monkeypatch.undo()
    total, per_member = grpo_loss(group, cfg)
    assert (rep["loss"], rep["per_member_loss"]) == (total, per_member.tolist())
    assert rep["prompt_id"] == "p"
    assert rep["n_members"] == 2
    assert rep["rewards"] == [1.0, 0.0]
    assert rep["advantages"] == pytest.approx([1.0, -1.0])
    assert rep["normalized_logprob"] == pytest.approx([-0.5, -2.0])
    assert rep["kl"] == [0.0, 0.0]
    assert rep["loss"] == pytest.approx(np.mean(rep["per_member_loss"]), abs=1e-12)
    json.dumps(rep)  # must be serializable as-is
