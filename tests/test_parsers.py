"""Every input to the topology, configuration, script and scenario parsers
either loads or raises one of the errors the command line turns into exit
code 2.  Inputs are well-formed texts with one token replaced, or lines of
random tokens.  Integers stay at most 64, so no input builds a large graph.
"""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from minplus import (
    GenerationError,
    ProcState,
    ScenarioError,
    Topology,
    build,
    config_text,
    make_fault_model,
    parse_config,
    parse_scenario,
    topology_text,
)
from minplus.adversary import parse_script
from minplus.graph import parse_topology

MALFORMED = (ValueError, GenerationError, ScenarioError)

# A token: a small integer, a near-integer, a keyword, any single character
# (a digit of any script among them) or a short string without digits.
TOKENS = st.one_of(
    st.integers(-3, 64).map(str),
    st.sampled_from(
        ["-1", "+1", "01", "1_0", "-0", "0.5", "nan", "inf", "1e3", "byz", "#", "=", ",", ""]
    ),
    st.text(max_size=1),
    st.text(st.characters(exclude_categories=("Nd",)), max_size=3),
)

_SEPARATORS = re.compile(r"([\s,=])")


@st.composite
def one_token_edit(draw, texts, tokens=TOKENS):
    """A text drawn from ``texts``, as it is or with one token or separator
    replaced."""
    parts = _SEPARATORS.split(draw(texts))
    token = draw(st.none() | tokens)
    if token is not None:
        parts[draw(st.integers(0, len(parts) - 1))] = token
    return "".join(parts)


def token_lines(tokens=TOKENS):
    """Up to a dozen lines of separated tokens; a separator never joins two
    integers into a larger one."""
    line = st.tuples(st.lists(tokens, max_size=5), st.sampled_from([" ", "  ", "\t"])).map(
        lambda t: t[1].join(t[0])
    )
    return st.lists(line, max_size=12).map("\n".join)


@st.composite
def topology_texts(draw):
    n = draw(st.integers(1, 8))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    root = draw(st.integers(0, n - 1))
    topo = Topology.from_edges(n, root, draw(st.permutations(edges)))
    others = [v for v in range(n) if v != root]
    byz = draw(st.lists(st.sampled_from(others), unique=True, max_size=3)) if others else []
    return topology_text(topo, make_fault_model(topo, byz))


@st.composite
def config_inputs(draw):
    """A configuration text and the process count it is parsed for."""
    n = draw(st.integers(1, 8))
    cfg = tuple(
        ProcState(draw(st.one_of(st.none(), st.integers(0, n - 1))), draw(st.integers(0, 20)))
        for _ in range(n)
    )
    text = draw(one_token_edit(st.just(config_text(cfg))) | token_lines())
    return text, draw(st.sampled_from([n, n, n, n - 1, n + 1]))


SCRIPT_TEXTS = st.lists(
    st.tuples(st.integers(1, 60), st.integers(0, 8), st.integers(-1, 8), st.integers(0, 20)),
    max_size=6,
).map(lambda items: "".join(f"{s} {b} {p} {level}\n" for s, b, p, level in items))


@st.composite
def scenario_texts(draw):
    kind = draw(st.sampled_from(["line", "hexagon", "path", "grid", "random"]))
    keys = {
        "line": [f"c={draw(st.integers(0, 30))}"],
        "hexagon": [],
        "path": [f"n={draw(st.integers(1, 64))}"],
        "grid": [f"w={draw(st.integers(1, 8))}", f"h={draw(st.integers(1, 8))}"],
        "random": [
            f"n={draw(st.integers(1, 64))}",
            f"p={draw(st.sampled_from(['0.0', '0.1', '0.4', '1.0']))}",
            f"seed={draw(st.integers(0, 99))}",
        ],
    }[kind]
    byz = ""
    if kind not in ("line", "hexagon"):
        byz = draw(
            st.sampled_from(
                ["", f"byz={draw(st.integers(1, 8))}", "byz=1,2", f"byz_count={draw(st.integers(0, 4))}"]
            )
        )
    return " ".join([kind, *keys, byz])


# Scenario values are sizes, so an edit writes at most 8.
SCENARIO_TOKENS = st.one_of(
    st.integers(-3, 8).map(str),
    st.sampled_from(["c", "n", "w", "h", "p", "seed", "byz", "byz_count", "path", "grid"]),
    st.sampled_from(["-1", "+1", "01", "1_0", "0.5", "nan", "inf", "1e3", "=", ",", ""]),
    st.text(st.characters(exclude_categories=("Nd",)), max_size=3),
)


def loads_or_is_malformed(parse, text):
    try:
        parse(text)
    except MALFORMED:
        pass


@settings(max_examples=300, deadline=None)
@given(one_token_edit(topology_texts()) | token_lines())
def test_topology_loads_or_is_malformed(text):
    loads_or_is_malformed(parse_topology, text)


@settings(max_examples=300, deadline=None)
@given(config_inputs())
def test_configuration_loads_or_is_malformed(case):
    text, n = case
    loads_or_is_malformed(lambda t: parse_config(t, n), text)


@settings(max_examples=300, deadline=None)
@given(one_token_edit(SCRIPT_TEXTS) | token_lines())
def test_script_loads_or_is_malformed(text):
    loads_or_is_malformed(parse_script, text)


@settings(max_examples=300, deadline=None)
@given(
    one_token_edit(scenario_texts(), SCENARIO_TOKENS)
    | token_lines(SCENARIO_TOKENS).map(lambda t: t.replace("\n", " "))
)
def test_scenario_builds_or_is_malformed(text):
    loads_or_is_malformed(lambda t: build(parse_scenario(t)), text)
