"""The bitset policy checker against its edge-by-edge oracle.

``check_policy`` works on the flow graph's bitsets and decodes only the
violating edges; ``tests/oracles/policy_check.py`` keeps the checker that
decodes every edge.  The two must agree exactly — the same violations, in
the same order, with the same levels and witness paths — on random graphs
under every policy shape, and the ``check --json`` documents built on them
must be byte-identical.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.policy_check import check_policy_reference
from repro import cli, workloads
from repro.analysis.flowgraph import FlowGraph
from repro.analysis.resource_matrix import incoming_node, outgoing_node
from repro.security import report as report_module
from repro.security.policy import TwoLevelPolicy, check_policy
from repro.security.policy_file import policy_from_dict
from repro.vhdl.elaborate import elaborate_source

#: Base names: exact assignments, pattern matches and names no policy
#: mentions (which fall back to the default level).
BASES = ("a", "b", "key", "k2", "debug_x", "out", "tmp", "zz")

NODES = tuple(
    name
    for base in BASES
    for name in (base, incoming_node(base), outgoing_node(base))
)

#: A multi-level declared policy: exact names win over fnmatch patterns,
#: patterns apply in order, and the permitted relation is non-transitive
#: (low → mid and mid → high, but not low → high).
DECLARED = policy_from_dict(
    {
        "name": "mls",
        "default": "mid",
        "levels": {"low": 0, "mid": 1, "high": 2},
        "resources": {
            "a": "low",
            "key": "high",
            "k*": "mid",
            "debug_*": "low",
            "out": "low",
        },
        "allow": [{"from": "low", "to": "mid"}, {"from": "mid", "to": "high"}],
    }
)

policies = st.one_of(
    st.builds(
        TwoLevelPolicy,
        st.lists(st.sampled_from(BASES), max_size=3, unique=True),
    ),
    st.just(DECLARED),
)

restrictions = st.one_of(
    st.none(),
    st.sets(st.sampled_from(BASES + NODES), max_size=6),
)


@st.composite
def graphs(draw):
    """A random flow graph, with self loops, held in either direction."""
    edges = draw(
        st.lists(st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)), max_size=40)
    )
    isolated = draw(st.lists(st.sampled_from(NODES), max_size=3))
    graph = FlowGraph.from_edges(edges, nodes=isolated)
    if draw(st.booleans()):
        # The predecessor direction, as FlowGraph.from_resource_matrix holds it.
        graph = FlowGraph(
            graph.universe, graph.node_bits, predecessors=graph.predecessor_map()
        )
    return graph


@settings(max_examples=300, deadline=None)
@given(graphs(), policies, st.booleans(), restrictions)
def test_bitset_checker_equals_the_oracle(graph, policy, transitive, restrict):
    expected = check_policy_reference(graph, policy, transitive, restrict)
    assert check_policy(graph, policy, transitive, restrict) == expected


def test_witness_paths_break_ties_by_name_order():
    # Two shortest paths key → out; the one through the smaller name wins.
    edges = [("key", "m2"), ("key", "m1"), ("m1", "out"), ("m2", "out"), ("out", "key")]
    graph = FlowGraph.from_edges(edges)
    policy = TwoLevelPolicy(secret_resources=["key"])
    found = check_policy(graph, policy, transitive=True)
    assert found == check_policy_reference(graph, policy, transitive=True)
    paths = {(v.source, v.target): v.path for v in found}
    assert paths[("key", "out")] == ("key", "m1", "out")
    assert paths[("key", "m1")] == ("key", "m1")


def test_reach_of_few_sources_equals_the_condensed_reach():
    edges = [(NODES[i], NODES[(i * 7 + 3) % len(NODES)]) for i in range(len(NODES))]
    graph = FlowGraph.from_edges(edges)
    full = graph.reach_bits()
    sources = 1 << 0 | 1 << 5
    assert graph.reach_bits(sources) == {index: full[index] for index in (0, 5)}


# -- byte-identical ``check --json`` documents ---------------------------------

#: The paper workloads plus one 32×16 audit chain.
DESIGNS = workloads.batch_workload_sources() + [
    ("chain_32x16", workloads.synthetic_chain_program(32, 16)),
]

VARIANTS = (
    ("direct",),
    ("transitive", "--transitive"),
    ("ports_only", "--ports-only"),
    ("output", "--output"),
)


def _check_json(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        cli.main(argv)
    document = json.loads(buffer.getvalue())
    document.pop("timings")
    return json.dumps(document, indent=2, ensure_ascii=False)


@pytest.mark.parametrize("variant", VARIANTS, ids=[v[0] for v in VARIANTS])
@pytest.mark.parametrize("name,source", DESIGNS, ids=[d[0] for d in DESIGNS])
def test_check_documents_are_byte_identical_to_the_oracle(
    tmp_path, monkeypatch, name, source, variant
):
    design = elaborate_source(source)
    # The port-less paper programs (a) and (b) leak variable a into c.
    secret = design.input_ports[0] if design.input_ports else "a"
    sink = design.output_ports[-1] if design.output_ports else "c"
    path = tmp_path / f"{name}.vhd"
    path.write_text(source, encoding="utf-8")
    argv = ["check", str(path), "--json", "--secret", secret, *variant[1:]]
    if variant[0] == "output":
        argv.append(sink)
    shipped = _check_json(argv)
    monkeypatch.setattr(report_module, "check_policy", check_policy_reference)
    assert _check_json(argv) == shipped
