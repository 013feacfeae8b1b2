"""The call signatures the benchmark's tracer reads its counters from.

``perfbench/tracer.py`` wraps the library's public functions and takes
their arguments by position, or by name when passed by keyword.  A
parameter moved or renamed would make a traced count wrong or fail the
traced run, so the positions and names it reads are pinned here.
"""

import inspect

import pytest

from randattract import cli, evolution, operators, ou, pathwise

# function -> {position: name} of each parameter the tracer reads
TRACED = {
    "evolution.build_chain": (evolution.build_chain, {1: "path", 2: "grid"}),
    "ou.construct_initial": (ou.construct_initial, {1: "path", 2: "a"}),
    "operators.driver_values": (operators.driver_values, {0: "field", 1: "path"}),
    "pathwise.nemytskii": (pathwise.nemytskii, {0: "nonlinearity", 1: "vec"}),
    "cli.OutputSink.write_text": (cli.OutputSink.write_text, {2: "text"}),
}


@pytest.mark.parametrize("name", sorted(TRACED))
def test_traced_parameters_keep_their_positions_and_names(name):
    fn, read = TRACED[name]
    params = list(inspect.signature(fn).parameters)
    for position, param in read.items():
        assert params[position] == param, f"{name}: {params}"
