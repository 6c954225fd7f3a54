"""Exact law of one push-gossip round, checked against every delivery path.

Section 1.3.2's rule: every sender pushes its bit to a uniformly random
other agent, each recipient keeps one message picked uniformly from those
it received, and the channel flips the kept bit with probability
``q = 1/2 - epsilon``.  On three and four
agents the joint law of a round's outcome — which agents accept a message
and which noisy bit each keeps — is enumerated here from that literal rule
(every target assignment, every kept message, every flip), and a
chi-square test compares it with the outcomes of

* serial :meth:`PushGossipNetwork.deliver`,
* fault-free :meth:`PushGossipNetwork.deliver_batch` at one and at eight
  replicates,
* the resilient kernel (``deliver_batch`` with an injector whose fault-prone
  fraction is zero), and
* :meth:`PushGossipNetwork.deliver_reference`, the literal transcription,

over a binary symmetric channel (``q = 3/10``) and over the perfect channel
(``q = 0``, where the count rule skips its noise step).

Every case uses a fixed seed, so the test is deterministic; the threshold
is a p-value of 1e-4, computed with the standard library alone
(:func:`chi_square_survival`).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from repro.substrate.faults import CrashStop, FaultInjector
from repro.substrate.network import PushGossipNetwork
from repro.substrate.noise import BinarySymmetricChannel, PerfectChannel

#: The noisy channel's crossover probability is 1/2 - EPSILON = 3/10.
EPSILON = 0.2
FLIP = Fraction(3, 10)

#: channel label -> (channel, exact crossover probability, seed offset).
CHANNELS = {
    "bsc": (BinarySymmetricChannel(epsilon=EPSILON), FLIP, 0),
    "perfect": (PerfectChannel(), Fraction(0), 10),
}

#: Sampled rounds per case.
ROUNDS = 12_000

#: (n, sender -> bit) cases: everyone speaking, and a partial sender set
#: with both bits present.
CASES = {
    "n3-all": (3, {0: 1, 1: 0, 2: 1}),
    "n4-three": (4, {0: 1, 1: 0, 3: 0}),
}

MIN_P_VALUE = 1e-4


def exact_law(size, sender_bits, flip=FLIP):
    """Outcome -> probability under the literal rule with crossover ``flip``.

    An outcome is a tuple with one entry per agent: -1 if it accepted
    nothing, else the noisy bit it kept.
    """
    senders = sorted(sender_bits)
    choices = [[target for target in range(size) if target != sender] for sender in senders]
    law = Counter()
    for targets in itertools.product(*choices):
        weight = Fraction(1)
        for options in choices:
            weight /= len(options)
        inboxes = {}
        for sender, target in zip(senders, targets):
            inboxes.setdefault(target, []).append(sender_bits[sender])
        recipients = sorted(inboxes)
        # Each recipient keeps one of its N messages, each with probability
        # 1/N, and the channel flips the kept bit with probability flip.
        picks = [
            [(kept, flipped) for kept in range(len(inboxes[r])) for flipped in (0, 1)]
            for r in recipients
        ]
        for choice in itertools.product(*picks):
            probability = weight
            outcome = [-1] * size
            for recipient, (kept, flipped) in zip(recipients, choice):
                inbox = inboxes[recipient]
                probability *= Fraction(1, len(inbox)) * (flip if flipped else 1 - flip)
                outcome[recipient] = inbox[kept] ^ flipped
            law[tuple(outcome)] += probability
    assert sum(law.values()) == 1
    return law


def _outcomes(report):
    """One outcome tuple per row of a report: -1 where nothing was accepted."""
    grid = np.where(report.heard, report.ones, -1)
    return [tuple(row) for row in np.atleast_2d(grid).tolist()]


def _serial_outcomes(method, size, sender_bits, channel, seed):
    network = PushGossipNetwork(size=size)
    rng = np.random.default_rng(size + seed)
    senders = np.array(sorted(sender_bits))
    bits = np.array([sender_bits[sender] for sender in senders], dtype=np.int8)
    deliver = getattr(network, method)
    for _ in range(ROUNDS):
        yield from _outcomes(deliver(senders, bits, channel, rng))


def _batch_outcomes(size, sender_bits, channel, seed, replicates, resilient):
    network = PushGossipNetwork(size=size)
    rng = np.random.default_rng(size + seed + 100 * replicates)
    send_mask = np.zeros((replicates, size), dtype=bool)
    bits = np.zeros((replicates, size), dtype=np.int8)
    for sender, bit in sender_bits.items():
        send_mask[:, sender] = True
        bits[:, sender] = bit
    faults = None
    if resilient:
        faults = FaultInjector(
            CrashStop(fraction=0.0), size, np.random.default_rng(7), num_replicates=replicates
        )
    for _ in range(ROUNDS // replicates):
        yield from _outcomes(network.deliver_batch(send_mask, bits, channel, rng, faults=faults))


PATHS = {
    "deliver": lambda *case: _serial_outcomes("deliver", *case),
    "deliver_reference": lambda *case: _serial_outcomes("deliver_reference", *case),
    "deliver_batch-R1": lambda *case: _batch_outcomes(*case, replicates=1, resilient=False),
    "deliver_batch-R8": lambda *case: _batch_outcomes(*case, replicates=8, resilient=False),
    "resilient-R8": lambda *case: _batch_outcomes(*case, replicates=8, resilient=True),
}


def chi_square_survival(statistic, dof):
    """``P(X >= statistic)`` for ``X`` chi-square with ``dof`` degrees of
    freedom: the regularized upper incomplete gamma ``Q(dof/2, statistic/2)``,
    by its series below ``a + 1`` and its continued fraction above."""
    a, x = dof / 2, statistic / 2
    if x <= 0:
        return 1.0
    scale = math.exp(a * math.log(x) - x - math.lgamma(a))
    if x < a + 1:
        term = total = 1 / a
        denominator = a
        while term > total * 1e-16:
            denominator += 1
            term *= x / denominator
            total += term
        return max(0.0, 1 - scale * total)
    tiny = 1e-300
    b = x + 1 - a
    c, d = 1 / tiny, 1 / b
    fraction = d
    for i in range(1, 1000):
        numerator = -i * (i - a)
        b += 2
        d = numerator * d + b
        d = 1 / (d if abs(d) > tiny else tiny)
        c = b + numerator / c
        c = c if abs(c) > tiny else tiny
        fraction *= d * c
        if abs(d * c - 1) < 1e-16:
            break
    return scale * fraction


def chi_square_p_value(law, observed):
    """p-value of the observed outcome counts under ``law``, with outcomes
    expected fewer than five times pooled into one bin."""
    assert set(observed) <= set(law), "an outcome the rule cannot produce"
    total = sum(observed.values())
    expected, counts = [], []
    pooled_expected = pooled_count = 0.0
    for outcome, probability in law.items():
        mean = float(probability) * total
        if mean < 5:
            pooled_expected += mean
            pooled_count += observed.get(outcome, 0)
        else:
            expected.append(mean)
            counts.append(observed.get(outcome, 0))
    if pooled_expected:
        expected.append(pooled_expected)
        counts.append(pooled_count)
    statistic = sum((count - mean) ** 2 / mean for count, mean in zip(counts, expected))
    return chi_square_survival(statistic, len(expected) - 1)


@pytest.mark.parametrize("statistic", [0.1, 1.0, 3.0, 7.5, 20.0, 60.0])
def test_chi_square_survival_matches_closed_forms(statistic):
    """One, two and four degrees of freedom have closed-form tails."""
    half = statistic / 2
    assert chi_square_survival(statistic, 1) == pytest.approx(math.erfc(math.sqrt(half)), rel=1e-9)
    assert chi_square_survival(statistic, 2) == pytest.approx(math.exp(-half), rel=1e-9)
    assert chi_square_survival(statistic, 4) == pytest.approx(
        math.exp(-half) * (1 + half), rel=1e-9
    )


def test_the_enumerated_law_is_the_count_rule():
    """A lone message is kept and noised; two colliding messages leave the
    recipient's bit a 1 with probability q + (1 - 2q) O / N."""
    law = exact_law(3, {0: 1, 1: 0})
    # Both senders pick agent 2 with probability 1/4: one 1 among two.
    both_to_two = sum(p for outcome, p in law.items() if outcome[:2] == (-1, -1))
    assert both_to_two == Fraction(1, 4)
    assert law[(-1, -1, 1)] == Fraction(1, 4) * (FLIP + (1 - 2 * FLIP) / 2)


@pytest.mark.parametrize("channel", sorted(CHANNELS))
@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("path", sorted(PATHS))
def test_round_outcomes_follow_the_exact_law(path, case, channel):
    size, sender_bits = CASES[case]
    noise, flip, seed = CHANNELS[channel]
    law = exact_law(size, sender_bits, flip)
    observed = Counter(PATHS[path](size, sender_bits, noise, seed))
    p_value = chi_square_p_value(law, observed)
    assert p_value > MIN_P_VALUE, f"{path} on {case} over {channel}: chi-square p = {p_value:.3g}"
