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
import sys

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
    formatting and the compiled window appends the same tuples."""
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


# ---- names that are gone ----------------------------------------------------
# Each rule is a set of spellings that a deleted knob, path or second
# implementation had, and the files where one of them coming back would
# be that thing coming back.

SHARD_KNOBS = [
    r'LBP_SHARD_TRANSPORT|LBP_SHM_|LBP_AUTOTUNE|LBP_BENCH_SHARDS'
    r'|LBP_REQUIRE_SHARD|LBP_TRACE_OVERHEAD_JOBS|LBP_TRACE_MAX_RATIO'
    r'|shared_memory|shards="auto"']
SHARD_KNOB_PATHS = ["src", "tests", "benchmarks", ".github", "README.md",
                    "DESIGN.md"]


def test_no_second_shard_transport_or_tuner_is_left():
    """The sharded engine has one transport (pipes) and no tuner: no
    environment knob picks a transport, a shared-memory ring, a shard count
    or a trace-overhead ratio."""
    assert _matches(SHARD_KNOBS, SHARD_KNOB_PATHS) == []


SIMULATOR_SELECTORS = [
    r"--sim\b|simulator=|BENCH_perf|LBP_BENCH_JOBS|pytest_benchmark"
    r"|pytest-benchmark"]
SIMULATOR_SELECTOR_PATHS = ["src/repro/cli.py", "src/repro/eval", "examples",
                            "benchmarks", ".github", "README.md",
                            "DESIGN.md", "pyproject.toml"]


def test_no_simulator_selector_or_second_benchmark_harness_is_left():
    """One simulator runs the commands (``repro.fastsim`` is library-only)
    and ``bench/run.py`` is the one harness: no ``--sim`` or
    ``simulator=`` selector, no BENCH_perf file or pytest-benchmark."""
    assert _matches(SIMULATOR_SELECTORS, SIMULATOR_SELECTOR_PATHS) == []


UNTRACED_SERVE = [
    r"--no-trace|run_program|snapshot_bytes=|snapshot_path"
    r"|tracing is disabled"]
UNTRACED_SERVE_PATHS = ["src", "README.md", "DESIGN.md", ".github"]


def test_no_untraced_serve_mode_or_cache_sidecar_is_left():
    """The service always traces and a served job runs one way: no
    ``--no-trace`` switch, no second run entry point, no snapshot sidecar
    beside the cache entry."""
    assert _matches(UNTRACED_SERVE, UNTRACED_SERVE_PATHS) == []


HTTP_FRAMING = [r"HTTP/1\.1"]
HTTP_FRAMING_PATHS = ["src/repro/serve"]
HTTP_FRAMING_HOME = "src/repro/serve/http.py:"


def test_the_wire_format_lives_in_one_module():
    """HTTP framing is ``serve/http.py``'s alone: no other serve module
    writes a status line of its own."""
    hits = _matches(HTTP_FRAMING, HTTP_FRAMING_PATHS)
    assert [hit for hit in hits if not hit.startswith(HTTP_FRAMING_HOME)] \
        == []


DEADLINE_PATHS = [
    r"TaskTimeoutError|TaskFailedError|_run_all_deadlined|repro_pool_busy"]
DEADLINE_PATH_PATHS = ["src/repro/eval", "src/repro/serve"]


def test_no_second_runner_deadline_path_is_left():
    """The experiment runner and the serve pool share one failure path:
    no second set of timeout errors, deadlined runner or busy gauge."""
    assert _matches(DEADLINE_PATHS, DEADLINE_PATH_PATHS) == []


SECOND_KEYS = [r"task_key|cmd_observe|_print_shard_telemetry|repro observe"]
SECOND_KEY_PATHS = ["src", "tests", "benchmarks", "examples", ".github",
                    "README.md", "DESIGN.md"]


def test_one_cache_key_scheme_and_no_metered_run_command():
    """A cache key is ``RunCache.key_for`` alone, a metered run is a
    ``repro run`` flag (there is no ``repro observe``), and no printer of
    shard telemetry is left."""
    assert _matches(SECOND_KEYS, SECOND_KEY_PATHS) == []


PROGRAM_SERIALIZERS = [r"\bprogram_(bytes|digest)\("]
PROGRAM_SERIALIZER_PATHS = ["src/repro/serve"]
#: the memo fill: the one function under serve/ that may serialize
PROGRAM_MEMO_FILL = ("src/repro/serve/jobs.py", "_compiled")


def test_a_served_program_is_serialized_once_at_the_memo_fill():
    """Under ``serve/`` only the compile memo's fill (``jobs._compiled``)
    calls ``program_bytes(`` or ``program_digest(``: a job is keyed by the
    digest the memo holds.  A serialization per request made a warm hit
    cost about 1.8 times as much (``op_cal_ms`` of the ``serve_hit``
    benchmark workload)."""
    path, name = PROGRAM_MEMO_FILL
    tree = ast.parse((ROOT / path).read_text())
    (fill,) = [node for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == name]
    hits = _matches(PROGRAM_SERIALIZERS, PROGRAM_SERIALIZER_PATHS)
    where = [hit.split(":")[:2] for hit in hits]
    outside = [hit for hit, (file, line) in zip(hits, where)
               if file != path
               or not fill.lineno <= int(line) <= fill.end_lineno]
    assert outside == []
    assert hits  # the fill itself still digests the program


HOST_TIME_RECORDERS = [
    r"profile_shard_zero|span_records|transport_table|_profiled|master="]


def test_no_second_shard_selector_or_host_time_recorder_is_left():
    """Spans are recorded one way and shards are picked one way: no
    profiled shard, span-record list, transport table or master switch."""
    assert _matches(HOST_TIME_RECORDERS, ["src"]) == []


SHARDS_FLAG = [r"--shards"]
SHARDS_FLAG_PATHS = ["src", "README.md", "DESIGN.md", ".github"]


def test_no_command_takes_a_shard_count():
    """``LBP(shards=)`` is selected from Python only: no command line has
    a ``--shards`` flag."""
    assert _matches(SHARDS_FLAG, SHARDS_FLAG_PATHS) == []


LOAD_GENERATORS = [r"serve/load[g]en|run_loa[d]|execute_begi[n]|execute_en[d]"]
LOAD_GENERATOR_PATHS = ["src", "tests", "benchmarks"]


def test_no_second_serve_client_or_write_only_flight_note_is_left():
    """``ServeClient`` is the one client in ``src/`` (the load generator
    went), and the flight recorder keeps no note that nothing reads."""
    assert _matches(LOAD_GENERATORS, LOAD_GENERATOR_PATHS) == []


FORKS = [r"os\.fork\(|multiprocessing|\.Process\("]
FORK_PATHS = ["src/repro/serve"]
#: the module whose one function is the body of every forked child
CHILD_BODY_HOME = "src/repro/eval/runner.py"


def _ends_a_process(node):
    """An ``os._exit(...)`` call: what a forked child's body ends with."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "_exit"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "os")


def test_every_forked_child_runs_the_one_child_body():
    """The serve layer forks nothing itself (no ``os.fork(``,
    ``multiprocessing`` or ``.Process(`` under ``serve/``), and the
    runner has one child main loop, the one function that ends a child:
    a ``ForkedTask`` and a warm worker cannot drift apart in how they
    sever the parent's signals and fds or in what they send."""
    assert _matches(FORKS, FORK_PATHS) == []
    tree = ast.parse((ROOT / CHILD_BODY_HOME).read_text())
    bodies = [node.name for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef)
              and any(_ends_a_process(inner) for inner in ast.walk(node))]
    assert len(bodies) == 1, bodies


SNAPSHOT_HEADERS = [r"snapshot_inf[o]"]
SNAPSHOT_HEADER_PATHS = ["src", "README.md", "DESIGN.md"]


def test_no_snapshot_header_reader_is_left():
    """A machine's snapshot is its run-wide fields plus the per-core
    slices: no second reader of a header."""
    assert _matches(SNAPSHOT_HEADERS, SNAPSHOT_HEADER_PATHS) == []


OBSERVER_SERIALIZERS = [r"\.(trace|sanitizer|metrics)\.(load_)?state_dic[t]\("]


def test_no_whole_machine_observer_serializer_is_left():
    """An observer is saved per core (``domain_state_dict``), with the
    core's slice: no whole-machine ``state_dict`` of the trace, the
    sanitizer or the metrics."""
    assert _matches(OBSERVER_SERIALIZERS, ["src"]) == []


OPTIMISATION_SWITCHES = [r"-O[0-9s]\b|optimi[sz]e=|LBP_OPT|NO_OPT"]
OPTIMISATION_SWITCH_PATHS = ["src/repro/cli.py",
                             "src/repro/compiler/frontend.py",
                             "src/repro/serve", "README.md"]
#: the one ``-O2`` that may be named: the compiled tick's own build
TICK_BUILD = "cc -O2"


def test_the_compiler_has_no_optimisation_switch():
    """``compiler/opt.py`` is one always-on pipeline: no ``-O`` level, no
    ``optimize=`` argument and no environment switch turns it off (``cc
    -O2`` is the compiled tick's build, not the compiler's)."""
    hits = _matches(OPTIMISATION_SWITCHES, OPTIMISATION_SWITCH_PATHS)
    assert [hit for hit in hits if TICK_BUILD not in hit] == []


# ---- the compiled kernel's structure ----------------------------------------

KERNEL_DIR = ROOT / "src" / "repro" / "machine"


def _kernel(*names):
    """``(file:line, text)`` of each line of the kernel files *names*."""
    lines = []
    for name in names:
        text = (KERNEL_DIR / name).read_text()
        lines += [("%s:%d" % (name, number), line)
                  for number, line in enumerate(text.splitlines(), 1)]
    return lines


def _span(lines, start, end, keep=True):
    """sed's ``/start/,/end/p`` (*keep*) or ``/start/,/end/d``: each run of
    lines from one that *start* finds through the next one *end* finds
    (to the last line if none does)."""
    kept, inside = [], False
    for where, text in lines:
        opened = not inside and re.search(start, text) is not None
        inside = inside or opened
        if inside == keep:
            kept.append((where, text))
        if inside and not opened and re.search(end, text):
            inside = False
    return kept


def _function(lines, name):
    """A C function of *lines*: from its ``name(`` line to its ``}``."""
    return _span(lines, r"^%s\(" % name, r"^}")


def _hits(lines, pattern):
    return ["%s: %s" % (where, text.strip()) for where, text in lines
            if re.search(pattern, text)]


def _holds(lines, pattern):
    """Whether *pattern* finds a line of *lines*: a rule whose region has
    gone (a function renamed, a section header reworded) checks nothing."""
    return any(re.search(pattern, text) for _where, text in lines)


#: the "core view" section of _window.h, where a view loads and flushes
VIEW_SECTION = (r"^/\* ---- the core view", r"^/\* ---- machine attributes")
#: the "events at rest" section, where an event becomes a tuple
AT_REST_SECTION = (r"^/\* ---- events at rest", r"^/\* ---- the core view")


def _beside_the_view():
    """The kernel but for the core-view section."""
    return _kernel("_tick.c") + _span(_kernel("_window.h"), *VIEW_SECTION,
                                      keep=False)


HEAPQ_CALL = r"heappop|heappush"


def test_the_window_makes_no_heapq_call():
    """The window keeps its pending events in its own heap of C structs:
    ``machine._events`` is touched only on the way in and out, never
    pushed or popped per event."""
    assert _hits(_kernel("_window.h"), HEAPQ_CALL) == []


LINK_PORT_READ = r"PyList_GET_ITEM"
LINK_KEY_MADE = r"PyLong_From|PyTuple_Pack|PyDict_"


def test_a_link_port_is_a_list_slot():
    """A link's port is a list slot: ``link_port`` boxes no index, packs
    no ``(tag, index)`` key and probes no dict on any hop."""
    lines = _function(_kernel("_window.h"), "link_port")
    assert _holds(lines, LINK_PORT_READ)
    assert _hits(lines, LINK_KEY_MADE) == []


VIEW_LOAD = r"^view_load\("
VIEW_SLOT = (
    r"\b(C\.(index|active|idle_since|sleep_until|_seq|_tag|_rr_[a-z]+"
    r"|_rob_size|_wb_wake|harts)|H\.(pc|awaiting_nextpc|fetch_ready_at"
    r"|syncm_block|outstanding_mem|reserved|pred_done|fetch_ok|n_ready|gid"
    r"|index|regs|rename|it|rob|rb|stats|fetch_buf)|S\.[a-z_]+|K\.[a-z_]+)\b")


def test_only_the_core_view_names_a_pipeline_scalar_slot():
    """A core's pipeline scalars live in its view while C runs: only the
    view's load and flush (the "core view" section of _window.h) name
    their slots, so no second path reads or writes them there."""
    assert _holds(_kernel("_window.h"), VIEW_LOAD)
    assert _hits(_beside_the_view(), VIEW_SLOT) == []


RING_SLOT = r"\b[ER]\.[a-z_]+\b"


def test_only_the_ring_names_an_entry_or_result_buffer_slot():
    """An in-flight instruction lives in its hart's ring while C runs: only
    the view's load and flush name an Entry's or a ResultBuffer's slots
    (and the lists the ring is the at-rest form of, checked with the core
    view)."""
    assert _holds(_kernel("_window.h"), VIEW_LOAD)
    assert _hits(_beside_the_view(), RING_SLOT) == []


RENAME_PUSHES = r"ring_push"
COMMIT_POPS = r"ring_pop"
OBJECT_MADE = r"PyList_Append|PyObject_GC_New|PyLong_FromLongLong"


def test_rename_and_commit_make_no_object_and_box_no_int():
    """Rename pushes a record on the ring and commit pops one: neither
    makes an object or boxes an int per instruction."""
    tick = _kernel("_tick.c")
    rename = _function(tick, "rename_into")
    commit = _function(tick, "stage_commit")
    assert _holds(rename, RENAME_PUSHES) and _holds(commit, COMMIT_POPS)
    assert _hits(rename + commit, OBJECT_MADE) == []


CYCLE_LOOP = (r"while \(cycle < barrier\)",
              r"what the Python loop leaves behind")
LOOP_DISPATCHES = r"dispatch\(&w\)"
INT_BOXED = r"PyLong_FromLongLong"


def test_the_cycle_loop_boxes_no_int():
    """The cycle loop boxes no int: "now" is boxed when a call or a flush
    needs it, not per cycle."""
    loop = _span(_function(_kernel("_window.h"), "machine_simulate"),
                 *CYCLE_LOOP)
    assert _holds(loop, LOOP_DISPATCHES)
    assert _hits(loop, INT_BOXED) == []


CALL_HANDLER = r"^call_handler\("
TUPLE_MADE = r"PyTuple_(Pack|New)"


def test_an_event_tuple_is_made_only_at_rest():
    """An event the window posts holds its args typed: a tuple is made
    only where one leaves C, the "events at rest" section of _window.h
    (``event_out``, ``event_args``, ``call_handler``)."""
    window = _kernel("_window.h")
    assert _holds(_span(window, *AT_REST_SECTION), CALL_HANDLER)
    assert _hits(_span(window, *AT_REST_SECTION, keep=False),
                 TUPLE_MADE) == []


COMPILED_HANDLER = (r"^ev_[a-z_]*\(", r"^}")
ARGS_TUPLE_READ = r"PyTuple_GET_ITEM"


def test_a_compiled_handler_reads_its_typed_args_alone():
    """Each compiled ``ev_*`` handler reads the event's typed args, never
    an args tuple."""
    handlers = _span(_kernel("_window.h"), *COMPILED_HANDLER)
    assert _holds(handlers, r"^ev_load_read\(")
    assert _hits(handlers, ARGS_TUPLE_READ) == []


CURSORS_FLUSH = r"^cursors_flush\("
MEMORY_SLOT = r"\b(P\.next_free|[BM]\.[a-z_]+)\b"


def test_only_the_memory_view_names_a_port_or_bank_slot():
    """A Port's ``next_free`` is a cursor and a bank a pointer while C
    runs: only the view's load and flush name a Port's, a Bank's or a
    CoreMemory's slots."""
    assert _holds(_kernel("_window.h"), CURSORS_FLUSH)
    assert _hits(_beside_the_view(), MEMORY_SLOT) == []


# ---- the assembly language ---------------------------------------------------

#: an operand string read outside ``isa/spec.py``: the attribute, or a shape
#: spelled as a string literal (what a per-shape ladder compares against)
OPERAND_STRING = [
    r"\.operands\b",
    r"""["'](rd|rs[12]|imm|label)(,(rd|rs[12]|imm|label|imm\(rs1\)))+["']""",
]
OPERAND_STRING_OWNER = "src/repro/isa/spec.py:"


def _operand_string_reads():
    return [hit for hit in _matches(OPERAND_STRING, ["src"])
            if not hit.startswith(OPERAND_STRING_OWNER)]


def test_only_the_isa_table_reads_an_operand_string():
    """``isa/spec.py`` parses each instruction's and pseudo-instruction's
    operand string once, into a tuple of fields; the assembler reads and
    the disassembler prints by walking that tuple.  A second reader of the
    string is a second spelling of the operand syntax, free to drift from
    the first."""
    assert _operand_string_reads() == []


def test_the_operand_string_rule_finds_a_planted_ladder(monkeypatch, tmp_path):
    """The rule is not vacuous: a per-shape ladder planted in a copy of
    ``isa/disasm.py`` is found, its attribute read and its shape."""
    disasm = pathlib.Path("src", "repro", "isa", "disasm.py")
    planted = tmp_path / disasm
    planted.parent.mkdir(parents=True)
    planted.write_text((ROOT / disasm).read_text() + (
        "\n\ndef ladder(ins, spec):\n"
        "    shape = spec.operands\n"
        "    if shape == 'rd,rs1':\n"
        "        return ins.rd, ins.rs1\n"))
    monkeypatch.setattr(sys.modules[__name__], "ROOT", tmp_path)
    assert [hit.split(": ", 1)[1] for hit in _operand_string_reads()] == [
        "shape = spec.operands", "if shape == 'rd,rs1':"]
