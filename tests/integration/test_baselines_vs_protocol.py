"""Integration tests: the paper's protocol versus the baselines (Section 1.6 story)."""


from repro import solve_noisy_broadcast
from repro.core.theory import expected_relay_depth, hop_correct_probability
from repro.exec.batching import replicate_trial, run_baseline_batch


N = 800
EPSILON = 0.15


def baseline(protocol, seed, **options):
    """One serial trial of a baseline: its rule at ``R = 1`` under ``seed``."""
    return replicate_trial(
        seed, 0, run_baseline_batch, protocol=protocol, n=N, epsilon=EPSILON, **options
    )


class TestProtocolBeatsNaiveStrategies:
    def test_final_fraction_ordering(self):
        """breathe-before-speaking >> immediate forwarding ~ voter ~ 1/2."""
        paper = solve_noisy_broadcast(n=N, epsilon=EPSILON, seed=101)
        forwarding = baseline("immediate-forwarding", 102)
        voter = baseline("noisy-voter", 103, max_rounds=300)

        assert paper.final_correct_fraction == 1.0
        assert forwarding["fraction"] < 0.75
        assert voter["fraction"] < 0.75
        assert paper.final_correct_fraction > forwarding["fraction"] + 0.25
        assert paper.final_correct_fraction > voter["fraction"] + 0.25

    def test_forwarding_unreliability_matches_hop_decay_prediction(self):
        """Section 1.6: the forwarded rumor decays like (2 eps)^depth towards a coin flip."""
        forwarding = baseline("immediate-forwarding", 104)
        depth = int(expected_relay_depth(N))
        predicted_ceiling = hop_correct_probability(EPSILON, max(depth - 4, 1))
        # The measured fraction sits well below even a generous (shallow-depth) prediction
        # and far below the paper protocol's 1.0.
        assert forwarding["fraction"] <= predicted_ceiling + 0.1

    def test_paper_protocol_within_constant_factor_of_direct_reference(self):
        """Theorem 2.17's 'as fast as being told directly' claim, up to constants."""
        paper = solve_noisy_broadcast(n=N, epsilon=EPSILON, seed=105)
        reference_rounds = baseline("direct-source-reference", 106)["rounds_to_all_correct"]
        assert reference_rounds is not None
        assert paper.rounds <= 60 * reference_rounds

    def test_baselines_do_not_even_match_message_efficiency(self):
        """The paper protocol's messages stay within a constant of n log n / eps^2."""
        paper = solve_noisy_broadcast(n=N, epsilon=EPSILON, seed=107)
        # Every agent sends at most one bit per round, so the total is bounded by n * rounds;
        # the protocol actually uses a constant fraction of that budget.
        assert paper.messages_sent <= N * paper.rounds
        assert paper.messages_sent >= 0.2 * N * paper.rounds
