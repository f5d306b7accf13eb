"""The repository's rules, checked on its files.

One test per rule: its docstring says why the rule holds, and what it
forbids is data.  The files are walked in Python, not with ``git grep``
(a source checkout need not have ``.git``); build outputs, caches and
binary files are skipped, and so is this file, which spells every
pattern it forbids.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[2]
SELF = pathlib.Path(__file__).resolve()

#: directories no rule reads: bytecode, the compiled tick, tool caches
SKIPPED_DIRS = {"__pycache__", "_native", ".pytest_cache", ".hypothesis"}


def _files(paths, suffix=""):
    """The files under *paths* (relative to the repository root) whose
    names end in *suffix*, this one excluded."""
    for name in paths:
        top = ROOT / name
        found = [top] if top.is_file() else sorted(top.rglob("*" + suffix))
        for path in found:
            if (path.is_file() and path != SELF
                    and not SKIPPED_DIRS.intersection(path.parts)):
                yield path


def _matches(patterns, paths):
    """``path:line: text`` of every line under *paths* that one of the
    regular expressions *patterns* finds."""
    regexes = [re.compile(pattern) for pattern in patterns]
    hits = []
    for path in _files(paths):
        try:
            text = path.read_text()
        except UnicodeDecodeError:
            continue  # a binary file
        for number, line in enumerate(text.splitlines(), 1):
            if any(regex.search(line) for regex in regexes):
                hits.append("%s:%d: %s" % (
                    path.relative_to(ROOT), number, line.strip()))
    return hits


#: ``Params`` spellings that are gone: a third knob, the trace switch and
#: the cycle budget as knobs (a quoted "trace_enabled" is a test's
#: unknown-knob row, not a use)
PARAMS_SPELLINGS = [
    r"""(^|[^"'])trace_enabled|Params\.copy|harts_per_core=""",
    r"(Params|\.copy)\([^)]*\b(harts_per_core|rob_size|num_result_buffers"
    r"|alu_latency|mul_latency|div_latency|local_mem_latency"
    r"|bank_access_latency|cv_write_latency|trace_enabled|max_cycles)=",
]
PARAMS_PATHS = ["src", "tests", "benchmarks", "examples", "README.md",
                "DESIGN.md"]


def test_params_has_two_knobs_and_tracing_and_the_budget_are_spelled_once():
    """``Params`` has two knobs (``num_cores``, ``link_hop_latency``); the
    rest are class constants.  A traced machine is ``LBP(params,
    trace=...)`` and the cycle budget is ``run(max_cycles=)``: neither is
    a knob, so no second spelling can drift from the first."""
    assert _matches(PARAMS_SPELLINGS, PARAMS_PATHS) == []


#: the names the Python memory access and the lanes' trace kinds had
#: before each got one owner (``LBP.schedule_access``,
#: ``timeline.LANE_KINDS``)
SECOND_OWNERS = [
    r"schedule_load|schedule_store|core_after|_START_KINDS|_PERFETTO_KINDS",
]
SECOND_OWNER_PATHS = ["src", "tests", "README.md", "DESIGN.md"]


def test_a_memory_access_and_a_lanes_trace_kinds_have_one_owner():
    """The Python memory access is issued by one function,
    ``LBP.schedule_access``, as the compiled window issues it, and a hart
    lane's trace kinds are ``timeline.LANE_KINDS`` alone: a second copy
    of either would be a second spelling to keep in step."""
    assert _matches(SECOND_OWNERS, SECOND_OWNER_PATHS) == []


def _formats_a_string(node):
    """Whether *node* builds text: a ``"..." % x``, a ``.format`` call or
    an f-string."""
    return (isinstance(node, ast.JoinedStr)
            or (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
                and isinstance(node.left, ast.Constant)
                and isinstance(node.left.value, str))
            or (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "format"))


def _is_trace_record(node):
    """A ``trace.record(...)`` or ``<obj>.trace.record(...)`` call."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "record"):
        return False
    owner = node.func.value
    return ((isinstance(owner, ast.Name) and owner.id == "trace")
            or (isinstance(owner, ast.Attribute) and owner.attr == "trace"))


def test_no_trace_record_call_formats_its_args():
    """A trace record is data: the sites pass ints (``p_ret`` its ending
    word) and ``machine/trace.py`` alone words them, so a record costs no
    formatting and the compiled window can one day append the same
    tuples."""
    calls = 0
    hits = []
    for path in _files(["src"], ".py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not _is_trace_record(node):
                continue
            calls += 1
            args = node.args + [keyword.value for keyword in node.keywords]
            if any(_formats_a_string(inner)
                   for arg in args for inner in ast.walk(arg)):
                hits.append("%s:%d" % (path.relative_to(ROOT), node.lineno))
    assert calls, "no trace.record call found: the rule checks nothing"
    assert hits == []
