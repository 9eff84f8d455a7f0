"""Tests for the security-policy layer and the covert-channel report."""

import pytest

from oracles.flowgraph import graph_from_edges
from repro.analysis.api import analyze
from repro.errors import PolicyError
from repro.security.policy import (
    Clearance,
    FlowPolicy,
    PUBLIC,
    SECRET,
    TwoLevelPolicy,
    check_policy,
)
from repro.security.report import build_report, output_dependencies
from repro import workloads


class TestPolicies:
    def test_two_level_policy_classification(self):
        policy = TwoLevelPolicy(secret_resources=["key"])
        assert policy.level_of("key") == SECRET
        assert policy.level_of("other") == PUBLIC
        assert policy.secret_resources == {"key"}

    def test_environment_nodes_share_their_resource_level(self):
        policy = TwoLevelPolicy(secret_resources=["key"])
        assert policy.level_of("key○") == SECRET
        assert policy.level_of("key•") == SECRET

    def test_two_level_policy_direction(self):
        policy = TwoLevelPolicy(secret_resources=["key"])
        assert policy.allows(PUBLIC, SECRET)
        assert not policy.allows(SECRET, PUBLIC)
        assert policy.allows(SECRET, SECRET)

    def test_custom_non_transitive_policy(self):
        a, b, c = Clearance(0, "a"), Clearance(1, "b"), Clearance(2, "c")
        policy = FlowPolicy()
        policy.assign("x", a)
        policy.assign("y", b)
        policy.assign("z", c)
        policy.permit(a, b)
        policy.permit(b, c)
        # a -> c is deliberately NOT permitted: channel-control style policy
        assert policy.allows(a, b) and policy.allows(b, c)
        assert not policy.allows(a, c)


class TestCheckPolicy:
    def _graph(self):
        return graph_from_edges([("key", "t"), ("t", "out"), ("plain", "out")])

    def test_direct_edge_checking(self):
        policy = TwoLevelPolicy(secret_resources=["key"])
        violations = check_policy(self._graph(), policy, transitive=False)
        assert len(violations) == 1
        assert (violations[0].source, violations[0].target) == ("key", "t")

    def test_transitive_checking_reports_paths(self):
        policy = TwoLevelPolicy(secret_resources=["key"])
        violations = check_policy(self._graph(), policy, transitive=True)
        targets = {v.target for v in violations}
        assert targets == {"t", "out"}
        witness = next(v for v in violations if v.target == "out")
        assert witness.path == ("key", "t", "out")

    def test_restrict_to_limits_endpoints(self):
        policy = TwoLevelPolicy(secret_resources=["key"])
        violations = check_policy(
            self._graph(), policy, transitive=True, restrict_to=["key", "out"]
        )
        assert len(violations) == 1
        assert violations[0].target == "out"

    def test_violation_description(self):
        policy = TwoLevelPolicy(secret_resources=["key"])
        violation = check_policy(self._graph(), policy, transitive=True)[0]
        assert "key" in violation.describe()
        assert "not permitted" in violation.describe()

    def test_wrong_policy_type_rejected(self):
        with pytest.raises(PolicyError):
            check_policy(self._graph(), object())  # type: ignore[arg-type]

    def test_self_loops_are_ignored(self):
        graph = graph_from_edges([("key", "key")])
        policy = TwoLevelPolicy(secret_resources=["key"])
        assert check_policy(graph, policy) == []


class TestReports:
    def test_challenge_f_is_clean_for_the_overwritten_key(self):
        result = analyze(workloads.challenge_f_program())
        policy = TwoLevelPolicy(secret_resources=["key"])
        report = build_report(result, policy)
        # the only secret-to-public edge is key -> t, and t is overwritten
        # before reaching the output; restricting to ports shows no leak
        port_report = build_report(result, policy, restrict_to_ports=True)
        assert port_report.is_clean
        assert report.output_dependencies == {"leak": ["plain"]}

    def test_leaky_design_is_flagged(self):
        source = """
        entity leaky is
          port( key : in std_logic_vector(7 downto 0);
                leak : out std_logic_vector(7 downto 0) );
        end leaky;
        architecture a of leaky is
        begin
          p : process begin leak <= key; wait on key; end process p;
        end a;
        """
        result = analyze(source)
        policy = TwoLevelPolicy(secret_resources=["key"])
        report = build_report(result, policy)
        assert not report.is_clean
        assert report.output_dependencies == {"leak": ["key"]}
        assert "violation" in report.to_text()

    def test_output_dependencies_uses_direct_edges_only(self):
        result = analyze(workloads.challenge_f_program())
        deps = output_dependencies(result)
        assert deps == {"leak": ["plain"]}

    def test_report_text_lists_dependencies(self):
        result = analyze(workloads.producer_consumer_program())
        policy = TwoLevelPolicy()
        report = build_report(result, policy)
        text = report.to_text()
        assert "result <- left, right" in text
        assert "No policy violations" in text

    def test_mux_output_depends_on_select_and_both_inputs(self):
        result = analyze(workloads.conditional_program())
        deps = output_dependencies(result)
        assert deps == {"y": ["a", "b", "sel"]}
