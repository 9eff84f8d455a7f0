"""Tests for the FlowGraph result type."""

from oracles.flowgraph import graph_from_edges, resource_matrix_edges
from repro.analysis.flowgraph import FlowGraph
from repro.analysis.resource_matrix import (
    Access,
    ResourceMatrix,
    incoming_node,
    outgoing_node,
)


def small_graph():
    return graph_from_edges([("a", "b"), ("b", "c")])


class TestConstruction:
    def test_from_resource_matrix_connects_reads_to_modifications(self):
        matrix = ResourceMatrix()
        matrix.add("a", 1, Access.R0)
        matrix.add("b", 1, Access.M0)
        matrix.add("c", 2, Access.R0)
        matrix.add("d", 2, Access.M1)
        graph = FlowGraph.from_resource_matrix(matrix)
        assert graph.edges == {("a", "b"), ("c", "d")}

    def test_from_resource_matrix_does_not_connect_across_labels(self):
        matrix = ResourceMatrix()
        matrix.add("a", 1, Access.R0)
        matrix.add("b", 2, Access.M0)
        graph = FlowGraph.from_resource_matrix(matrix)
        assert graph.edges == set()
        assert graph.nodes == {"a", "b"}

    def test_self_loops_can_be_excluded(self):
        matrix = ResourceMatrix()
        matrix.add("a", 1, Access.R0)
        matrix.add("a", 1, Access.M0)
        with_loops = FlowGraph.from_resource_matrix(matrix)
        without = FlowGraph.from_resource_matrix(matrix, include_self_loops=False)
        assert ("a", "a") in with_loops.edges
        assert ("a", "a") not in without.edges

    def test_from_edges_registers_nodes(self):
        graph = graph_from_edges([("x", "y")], nodes=["z"])
        assert graph.nodes == {"x", "y", "z"}

    def test_both_construction_paths_agree(self):
        matrix = ResourceMatrix()
        matrix.add("a", 1, Access.R0)
        matrix.add("b", 1, Access.R1)
        matrix.add("c", 1, Access.M0)
        matrix.add("c", 2, Access.R0)
        matrix.add("d", 2, Access.M1)
        matrix.add("lonely", 3, Access.R0)
        bitset = FlowGraph.from_resource_matrix(matrix)
        oracle = graph_from_edges(
            resource_matrix_edges(matrix), nodes=matrix.names()
        )
        assert bitset == oracle
        assert bitset.to_dot() == oracle.to_dot()
        assert bitset.to_adjacency() == oracle.to_adjacency()

    def test_edges_are_decoded_lazily_and_iterable(self):
        graph = small_graph()
        assert sorted(graph.iter_edges()) == [("a", "b"), ("b", "c")]
        assert set(graph) == {("a", "b"), ("b", "c")}
        assert ("a", "b") in graph
        assert ("a", "c") not in graph

    def test_has_node(self):
        graph = small_graph()
        assert graph.has_node("a")
        assert not graph.has_node("nope")


class TestQueries:
    def test_successors_and_predecessors(self):
        graph = small_graph()
        assert graph.successors("a") == {"b"}
        assert graph.predecessors("c") == {"b"}
        assert graph.successors("c") == frozenset()

    def test_reachability(self):
        graph = small_graph()
        assert graph.reachable_from("a") == {"b", "c"}
        assert graph.flows_to("a", "c")
        assert not graph.flows_to("c", "a")

    def test_reachable_with_cycle(self):
        graph = graph_from_edges([("a", "b"), ("b", "a")])
        assert graph.reachable_from("a") == {"a", "b"}

    def test_counts(self):
        graph = small_graph()
        assert graph.node_count() == 3
        assert graph.edge_count() == 2


class TestClosureAndTransitivity:
    def test_transitive_closure_adds_composed_edges(self):
        closed = small_graph().transitive_closure()
        assert ("a", "c") in closed.edges

    def test_is_transitive(self):
        assert not small_graph().is_transitive()
        assert small_graph().transitive_closure().is_transitive()

    def test_closure_is_idempotent(self):
        closed = small_graph().transitive_closure()
        assert closed.transitive_closure().edges == closed.edges


class TestTransformations:
    def test_without_self_loops(self):
        graph = graph_from_edges([("a", "a"), ("a", "b")])
        assert graph.without_self_loops().edges == {("a", "b")}

    def test_restricted_to(self):
        graph = graph_from_edges([("a", "b"), ("b", "c")])
        restricted = graph.restricted_to(["a", "b"])
        assert restricted.edges == {("a", "b")}
        assert restricted.nodes == {"a", "b"}

    def test_renamed_merges_nodes(self):
        graph = graph_from_edges([("a1", "b"), ("a2", "b")])
        merged = graph.renamed({"a1": "a", "a2": "a"})
        assert merged.edges == {("a", "b")}
        assert merged.nodes == {"a", "b"}

    def test_collapse_environment_nodes(self):
        graph = graph_from_edges(
            [(incoming_node("a"), "b"), ("b", outgoing_node("c"))]
        )
        collapsed = graph.collapse_environment_nodes()
        assert collapsed.edges == {("a", "b"), ("b", "c")}

    def test_edge_difference_and_subgraph(self):
        ours = small_graph()
        theirs = ours.transitive_closure()
        assert ours.is_subgraph_of(theirs)
        assert theirs.edge_difference(ours) == {("a", "c")}


class TestExport:
    def test_dot_output_mentions_every_node_and_edge(self):
        dot = small_graph().to_dot()
        assert dot.startswith("digraph")
        assert '"a" -> "b";' in dot
        assert '"b" -> "c";' in dot

    def test_dot_shapes_for_environment_nodes(self):
        graph = graph_from_edges([(incoming_node("a"), outgoing_node("b"))])
        dot = graph.to_dot()
        assert "invhouse" in dot
        assert "house" in dot

    def test_adjacency_rendering(self):
        adjacency = small_graph().to_adjacency()
        assert adjacency == {"a": ["b"], "b": ["c"], "c": []}

    def test_summary_mentions_transitivity(self):
        assert "non-transitive" in small_graph().summary()
        assert "non-transitive" not in small_graph().transitive_closure().summary()
