"""Source invariants of the tree, checked on its syntax trees.

Each ``check_*`` function takes ``(path, tree)`` pairs and returns the
offending sites as ``"path:line: why"`` strings.  Its test runs it over
the files the invariant covers and expects nothing, then over a snippet
that breaks the invariant and expects a flag, so a check that silently
stops seeing anything fails too.  The checks are syntactic and
name-based: where a construct is ambiguous they let it pass rather than
flag good code.
"""

from __future__ import annotations

import ast
import re
import struct
import textwrap
from fnmatch import fnmatch
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
TREE_FILES = sorted(
    path.relative_to(ROOT).as_posix()
    for base in ("src/repro", "benchmarks")
    for path in (ROOT / base).rglob("*.py")
    if "__pycache__" not in path.parts
) + ["tests/helpers.py"]


@cache
def _parse(rel: str) -> ast.Module:
    return ast.parse((ROOT / rel).read_text(encoding="utf-8"), filename=rel)


def scope(*globs: str) -> list[tuple[str, ast.Module]]:
    """Every tree file matching a glob (``*`` also matches ``/``)."""
    files = [rel for rel in TREE_FILES if any(fnmatch(rel, glob) for glob in globs)]
    assert files, globs
    return [(rel, _parse(rel)) for rel in files]


def snippet(source: str, path: str = "fixture.py") -> list[tuple[str, ast.Module]]:
    return [(path, ast.parse(textwrap.dedent(source)))]


def _parents(tree: ast.AST) -> dict[ast.AST, ast.AST]:
    return {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}


def _enclosing(node, parents, kinds):
    node = parents.get(node)
    while node is not None and not isinstance(node, kinds):
        node = parents.get(node)
    return node


def _statements(body):
    """Statements in source order, nested function and class bodies left out."""
    for stmt in body:
        if not isinstance(stmt, (*FUNCS, ast.ClassDef)):
            yield stmt
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, (ast.excepthandler, ast.match_case)):
                    yield from _statements(child.body)
                elif isinstance(child, ast.stmt):
                    yield from _statements([child])


def _own_nodes(stmt: ast.stmt):
    """``stmt`` and everything in it but the statements nested in it."""
    yield stmt
    for child in ast.iter_child_nodes(stmt):
        if not isinstance(child, (ast.stmt, ast.excepthandler, ast.match_case)):
            yield from ast.walk(child)


def _dotted(node) -> str | None:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def _imported(tree: ast.Module):
    """A function giving a call target's dotted path through the imports."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head = alias.name if alias.asname else alias.name.split(".")[0]
                aliases[alias.asname or head] = head
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").lstrip(".")
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{module}.{alias.name}".lstrip(".")

    def resolve(func) -> str | None:
        name = _dotted(func)
        if name is None:
            return None
        head, dot, tail = name.partition(".")
        return aliases.get(head, head) + dot + tail

    return resolve


def _mentions(expr: ast.AST, tokens: tuple[str, ...]) -> bool:
    """Does any name or attribute under ``expr`` contain one of ``tokens``?"""
    return any(
        token in (node.id if isinstance(node, ast.Name) else node.attr).lower()
        for node in ast.walk(expr)
        if isinstance(node, (ast.Name, ast.Attribute))
        for token in tokens
    )


def _str(node) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


# -- guarded telemetry and tracing ------------------------------------------

TEL_GUARDS = ("tel_on", "enabled", "telemetry", "null_registry")
PER_RUN = frozenset({"__init__", "refresh_telemetry", "snapshot", "finish", "merge", "record"})
EXITS = (ast.Return, ast.Raise, ast.Continue, ast.Break)


def _guarded(node, function, parents, tokens) -> bool:
    """Under an ``if`` whose test names a guard, or after an early-exit one."""
    while node is not function:
        parent = parents[node]
        if isinstance(parent, (ast.If, ast.IfExp)) and _mentions(parent.test, tokens):
            return True
        bodies = [f for _, f in ast.iter_fields(parent) if isinstance(f, list) and node in f]
        for earlier in bodies[0][: bodies[0].index(node)] if isinstance(node, ast.stmt) else []:
            if isinstance(earlier, ast.If) and isinstance(earlier.body[-1], EXITS):
                if _mentions(earlier.test, tokens):
                    return True
        node = parent
    return False


def _unguarded_calls(files, wanted, tokens) -> list[str]:
    found = []
    for path, tree in files:
        parents = _parents(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                function = _enclosing(node, parents, FUNCS)
                if wanted(node.func) and function and function.name not in PER_RUN:
                    if not _guarded(node, function, parents, tokens):
                        found.append(f"{path}:{node.lineno}: unguarded .{node.func.attr}()")
    return found


def check_telemetry_guard(files) -> list[str]:
    """Hot-path instrument updates cost one branch when telemetry is off
    (the <= 1.15x gate of ``benchmarks/bench_telemetry_overhead.py``).
    ``.set()`` on a bare name is a threading event, not an instrument."""
    return _unguarded_calls(
        files,
        lambda func: func.attr in {"inc", "dec", "set", "observe", "record"}
        and not (func.attr == "set" and isinstance(func.value, ast.Name)),
        TEL_GUARDS,
    )


def test_hot_path_telemetry_is_guarded():
    files = scope("src/repro/core/*.py", "src/repro/match/*.py", "src/repro/streams/*.py")
    assert check_telemetry_guard(files) == []
    bad = """
        class E:
            def process(self, pkt):
                self._c_packets.inc()
    """
    assert check_telemetry_guard(snippet(bad)) == ["fixture.py:4: unguarded .inc()"]


def check_trace_guard(files) -> list[str]:
    """Span and journal emission costs one boolean when tracing is off
    (the <= 1.15x gate of ``benchmarks/bench_trace_overhead.py``)."""
    return _unguarded_calls(
        files,
        lambda func: func.attr in {"record", "record_system", "event"}
        and _mentions(func.value, ("trace", "journal")),
        TEL_GUARDS + ("trace",),
    )


def test_trace_emission_is_guarded():
    files = scope("src/repro/core/*.py", "src/repro/match/*.py", "src/repro/runtime/*.py")
    assert check_trace_guard(files) == []
    bad = """
        class W:
            def drain(self, batch):
                self.tracer.record_system('runtime', 'quarantine')
                self.registry.journal.event('divert', flow='x')
    """
    assert len(check_trace_guard(snippet(bad))) == 2


# -- deterministic merge ------------------------------------------------------

WALL_READS = frozenset({
    "time.time", "time.time_ns", "time.ctime", "time.localtime", "time.gmtime",
    "datetime.datetime.now", "datetime.datetime.utcnow", "datetime.datetime.today",
    "datetime.date.today", "os.urandom",
})
ENTROPY = ("random", "secrets", "uuid")
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _unordered(expr: ast.expr) -> bool:
    func = getattr(expr, "func", None)
    return isinstance(expr, (ast.Set, ast.SetComp)) or (
        (isinstance(func, ast.Name) and func.id in ("set", "frozenset"))
        or (isinstance(func, ast.Attribute) and func.attr == "keys")
    )


def check_determinism(files) -> list[str]:
    """The serial == parallel digest and every benchmark figure derive only
    from packet timestamps and seeded streams: no wall clock, no entropy
    (a seeded ``random.Random(seed)`` is the one allowed idiom), no
    iteration over a set or ``.keys()`` without ``sorted``."""
    found = []
    for path, tree in files:
        resolve = _imported(tree)
        for node in ast.walk(tree):
            iters = []
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [node.module or ""] if isinstance(node, ast.ImportFrom) else node.names
                if {getattr(n, "name", n).split(".")[0] for n in names} & {"secrets", "uuid"}:
                    found.append(f"{path}:{node.lineno}: imports an entropy module")
            elif isinstance(node, ast.Call):
                name = resolve(node.func) or ""
                seeded = name == "random.Random" and len(node.args) == 1 and not node.keywords
                if (name in WALL_READS or name.split(".")[0] in ENTROPY) and not seeded:
                    found.append(f"{path}:{node.lineno}: calls {name}()")
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                iters = [node.iter]
            elif isinstance(node, COMPREHENSIONS):
                iters = [generator.iter for generator in node.generators]
            unordered = [it for it in iters if _unordered(it)]
            found += [f"{path}:{it.lineno}: iterates a set unsorted" for it in unordered]
    return found


def test_merge_and_benchmarks_are_deterministic():
    files = scope(
        "src/repro/runtime/report.py", "src/repro/telemetry/registry.py",
        "benchmarks/*.py", "tests/helpers.py",
    )
    assert check_determinism(files) == []
    bad = """
        import random, secrets, time
        def merge(xs):
            for x in set(xs):
                random.choice(xs)
            return time.time()
    """
    assert len(check_determinism(snippet(bad))) == 4


# -- spawn-safe workers -------------------------------------------------------


def check_picklable_handoffs(files) -> list[str]:
    """Only module-level functions and plain data cross a worker boundary:
    lambdas, closures and bound methods break under the spawn start method."""
    found = []
    for path, tree in files:
        parents = _parents(tree)
        local = {
            node.name for node in ast.walk(tree)
            if isinstance(node, FUNCS) and _enclosing(node, parents, FUNCS)
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name, sent = getattr(node.func, "attr", getattr(node.func, "id", None)), []
            if name == "Process":
                for keyword in node.keywords:
                    if keyword.arg == "target" and isinstance(keyword.value, ast.Attribute):
                        found.append(f"{path}:{node.lineno}: bound method as a Process target")
                    sent += [keyword.value] if keyword.arg == "target" else []
                    if keyword.arg == "args" and isinstance(keyword.value, ast.Tuple):
                        sent += keyword.value.elts
            elif name in ("put", "put_nowait", "enqueue"):
                sent = node.args
            for value in sent:
                if isinstance(value, ast.Lambda) or getattr(value, "id", None) in local:
                    found.append(f"{path}:{node.lineno}: lambda or closure sent to a worker")
    return found


def test_worker_handoffs_are_picklable():
    assert check_picklable_handoffs(scope("src/repro/runtime/*.py")) == []
    bad = """
        from multiprocessing import Process
        def feed(queue):
            def handler(batch):
                return batch
            queue.put_nowait(handler)
            queue.put(lambda b: b)
        class Runner:
            def launch(self):
                return Process(target=self.work)
    """
    assert len(check_picklable_handoffs(snippet(bad))) == 3


# -- clock families -----------------------------------------------------------

WALL_CLOCKS = {f"time.{c}{ns}" for c in ("perf_counter", "monotonic", "time") for ns in ("", "_ns")}
CPU_CLOCKS = {f"time.{c}{ns}" for c in ("process_time", "thread_time") for ns in ("", "_ns")}


def _names(target) -> list[str]:
    if isinstance(target, (ast.Tuple, ast.List)):
        return [name for element in target.elts for name in _names(element)]
    return [getattr(target, "id", None) or getattr(target, "attr", None) or ""]


def check_clock_families(files) -> list[str]:
    """``busy`` accounting reads CPU time (a wall clock books preemption as
    shard load) and ``wall`` fields read a wall clock, also through a
    local fed by one (``t0 = perf_counter_ns()``)."""
    found = []
    for path, tree in files:
        resolve, taint = _imported(tree), {}

        def clocks(expr: ast.expr) -> set[str]:
            out = {taint[n.id] for n in ast.walk(expr) if getattr(n, "id", None) in taint}
            for name in (resolve(n.func) for n in ast.walk(expr) if isinstance(n, ast.Call)):
                out |= {"wall"} if name in WALL_CLOCKS else {"cpu"} if name in CPU_CLOCKS else set()
            return out

        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
                if len(node.targets) == 1 and len(fed := clocks(node.value)) == 1:
                    taint[node.targets[0].id] = fed.pop()
        for node in ast.walk(tree):
            named = [(k.arg, k.value) for k in getattr(node, "keywords", []) if k.arg]
            if isinstance(node, ast.Assign):
                named = [(name, node.value) for target in node.targets for name in _names(target)]
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)) and node.value is not None:
                named = [(name, node.value) for name in _names(node.target)]
            for name, value in named:
                fed, name = clocks(value), name.lower()
                if ("busy" in name and "wall" in fed) or ("wall" in name and "cpu" in fed):
                    found.append(f"{path}:{node.lineno}: {name} fed by the wrong clock")
    return found


def test_busy_and_wall_read_their_clocks():
    files = scope("src/repro/runtime/*.py", "benchmarks/*.py", "tests/helpers.py")
    assert check_clock_families(files) == []
    bad = """
        from time import monotonic_ns, process_time
        class Shard:
            def feed(self, batch):
                t0 = monotonic_ns()
                self.busy_ns += compute() - t0
        def run(report_cls, start):
            return report_cls(wall_seconds=process_time() - start)
    """
    assert len(check_clock_families(snippet(bad))) == 2


# -- byte hygiene -------------------------------------------------------------

STRUCT_CALLS = {f"struct.{f}" for f in "Struct calcsize pack pack_into unpack unpack_from".split()}
MIXING = (ast.Eq, ast.NotEq, ast.In, ast.NotIn)


def _zeros(fmt: str) -> tuple | None:
    """A zero value per field a ``struct`` format packs, None if it does not parse."""
    try:
        return struct.unpack(fmt, bytes(struct.calcsize(fmt)))
    except struct.error:
        return None


def _literal(node) -> type | None:
    value = "" if isinstance(node, ast.JoinedStr) else getattr(node, "value", None)
    is_literal = isinstance(node, (ast.Constant, ast.JoinedStr)) and isinstance(value, (str, bytes))
    return type(value) if is_literal else None


def check_byte_hygiene(files) -> list[str]:
    """No str literal meets a bytes literal (``+``, ``%``, ``==``, ``in``),
    every literal ``struct`` format parses, and ``pack`` of a known format
    takes its argument count and its literal arguments as they stand."""
    found = []
    for path, tree in files:
        resolve, bound = _imported(tree), {}
        for node in tree.body:  # module-level NAME = struct.Struct("fmt")
            call = getattr(node, "value", None)
            constant = isinstance(node, ast.Assign) and resolve(getattr(call, "func", None))
            if constant == "struct.Struct":
                bound[_dotted(node.targets[0])] = _str(call.args[0]) and call.args[0].value
        for node in ast.walk(tree):
            sides = [node.left, *node.comparators] if isinstance(node, ast.Compare) else []
            ops = getattr(node, "ops", [])
            pairs = [(a, b) for a, b, op in zip(sides, sides[1:], ops) if isinstance(op, MIXING)]
            if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Mod)):
                pairs = [(node.left, node.right)]
            if any({_literal(a), _literal(b)} == {str, bytes} for a, b in pairs):
                found.append(f"{path}:{node.lineno}: mixes str and bytes")
            name = resolve(getattr(node, "func", None)) or ""
            direct = name in STRUCT_CALLS and node.args and _str(node.args[0])
            fmt = node.args[0].value if direct else bound.get(name.rpartition(".")[0])
            zeros, method = _zeros(fmt or ""), name.rpartition(".")[2]
            skip = {"pack": 0, "pack_into": 2}.get(method)
            if direct and zeros is None:
                found.append(f"{path}:{node.lineno}: struct format {fmt!r} does not parse")
            if not fmt or zeros is None or skip is None:
                continue
            args = node.args[skip + bool(direct) :]
            values = [getattr(a, "value", "") if _literal(a) else z for a, z in zip(args, zeros)]
            try:  # literals as written, a zero of the field's type for everything else
                if not any(isinstance(a, ast.Starred) for a in args):
                    struct.pack(fmt, *values, *args[len(zeros) :])
            except struct.error as error:
                found.append(f"{path}:{node.lineno}: packing {fmt!r}: {error}")
    return found


def test_packet_layer_keeps_bytes_and_struct_formats_straight():
    files = scope("src/repro/packet/*.py", "src/repro/pcap/*.py", "benchmarks/*.py")
    assert check_byte_hygiene(files + scope("tests/helpers.py")) == []
    bad = """
        FMT = struct.Struct('!ZZ')
        _HDR = struct.Struct('!HHI')
        if b'GET' == 'GET' or b'host' + 'name':
            _HDR.pack(a, b) + struct.pack('!4s', 'abcd') + struct.pack('!2Hx4s', a, b, b'')
    """
    assert len(check_byte_hygiene(snippet(bad))) == 5


# -- worker status ------------------------------------------------------------


def check_worker_status(files) -> list[str]:
    """In a function speaking the worker protocol (it takes ``out_queue``),
    an ``except`` handler that leaves the worker puts a status message or
    re-raises first: a silent exit reads as a crash and loses the traceback."""
    found = []
    for path, tree in files:
        for function in (n for n in ast.walk(tree) if isinstance(n, FUNCS)):
            if "out_queue" not in [a.arg for a in function.args.args + function.args.kwonlyargs]:
                continue
            for handler in (n for n in ast.walk(function) if isinstance(n, ast.ExceptHandler)):
                inner = list(ast.walk(handler))
                calls = [n.func for n in inner if isinstance(n, ast.Call)]
                exits = any(isinstance(n, ast.Return) for n in inner) or any(
                    _dotted(func) in ("sys.exit", "os._exit") for func in calls
                )
                reports = any(isinstance(n, ast.Raise) for n in inner) or any(
                    getattr(func, "attr", None) in ("put", "put_nowait") for func in calls
                )
                if exits and not reports:
                    found.append(f"{path}:{handler.lineno}: {function.name} exits silently")
    return found


def test_worker_handlers_report_before_exiting():
    assert check_worker_status(scope("src/repro/runtime/worker*.py")) == []
    bad = """
        def shard_worker_main(shard, in_queue, out_queue):
            try:
                batch = in_queue.get()
            except Exception:
                return
            out_queue.put(('ok', shard, 0, batch))
    """
    assert check_worker_status(snippet(bad)) == ["fixture.py:5: shard_worker_main exits silently"]


# -- service timeouts ---------------------------------------------------------


def check_service_timeouts(files) -> list[str]:
    """The serve loop always comes back to its stop and reload events:
    queue ``get``/``put`` and thread ``join`` pass ``timeout=`` (or
    ``block=False``), and socket waits sit in a class or function that
    calls ``settimeout``."""
    found = []
    for path, tree in files:
        parents = _parents(tree)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            attr, keywords = node.func.attr, {k.arg: k.value for k in node.keywords}
            block = getattr(keywords.get("block"), "value", None)
            bounded = "timeout" in keywords or block is False
            if attr in ("get", "put") and _mentions(node.func.value, ("queue",)) and not bounded:
                found.append(f"{path}:{node.lineno}: queue .{attr}() without timeout=")
            elif attr == "join" and _mentions(node.func.value, ("thread",)) and not bounded:
                found.append(f"{path}:{node.lineno}: thread .join() without timeout=")
            elif attr in ("accept", "recv", "recv_into", "recvfrom"):
                home = _enclosing(node, parents, ast.ClassDef) or _enclosing(node, parents, FUNCS)
                if "settimeout" not in {getattr(n, "attr", None) for n in ast.walk(home or tree)}:
                    found.append(f"{path}:{node.lineno}: socket .{attr}() with no settimeout")
    return found


def test_service_blocking_calls_are_bounded():
    assert check_service_timeouts(scope("src/repro/service/*.py")) == []
    bad = """
        class S:
            def poll(self, conn, threads, state):
                self._queue.get(state.get('timeout'))
                conn.recv(4)
                for thread in threads:
                    thread.join()
    """
    assert len(check_service_timeouts(snippet(bad))) == 3


# -- telemetry registry -------------------------------------------------------

METRIC_NAME = re.compile(r"repro_[a-z0-9]+(?:_[a-z0-9]+)+")
SUBSYSTEMS = {"conventional", "engine", "fastpath", "ingest", "match", "naive", "profile", "run"}
SUBSYSTEMS |= {"runtime", "service", "slowpath", "telemetry"}
ROW = re.compile(r"\s*\|\s*`?([a-z0-9_:{},*]+)`?\s*\|\s*`?(counter|gauge|histogram|span)`?\s*\|")


def design_registry(text: str) -> dict[str, str]:
    """``{name: kind}`` from DESIGN.md's registry rows; a span is
    ``stage:event``, ``{a,b}`` expands and ``*`` tokens are prose."""
    rows: dict[str, str] = {}
    for name, kind in (row.groups() for row in map(ROW.match, text.splitlines()) if row):
        names = [name]
        while any("{" in name for name in names):
            head, options, tail = re.match(r"(.*?)\{([^{}]*)\}(.*)", names.pop(0)).groups()
            names += [head + option + tail for option in options.split(",")]
        for name in names:
            if "*" not in name and (kind == "span") == (":" in name):
                rows.setdefault(name, kind)
    return rows


def check_metric_registry(files, documented: dict[str, str]) -> list[str]:
    """Every instrument is a ``repro_<subsystem>_<name>`` of one kind and
    every ``tracer.record`` span a snake_case ``stage:event``, each with
    its registry row -- and every row has a registration."""
    found, registered = [], {}
    for path, tree in files:
        for node in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            attr, args, where = getattr(node.func, "attr", None), node.args, f"{path}:{node.lineno}"
            if attr in ("counter", "gauge", "histogram") and args and _str(args[0]):
                name, kind = args[0].value, attr
                if not METRIC_NAME.fullmatch(name):
                    found.append(f"{where}: metric {name!r} breaks the naming convention")
                    continue
                if name.split("_")[1] not in SUBSYSTEMS:
                    found.append(f"{where}: metric {name!r} has an unknown subsystem")
            elif attr in ("record", "record_system") and _mentions(node.func.value, ("tracer",)):
                parts = args[1:3] if attr == "record" else args[:2]
                if len(parts) != 2 or not all(map(_str, parts)):
                    continue
                name, kind = ":".join(part.value for part in parts), "span"
                if not all(re.fullmatch(r"[a-z][a-z0-9_]*", part.value) for part in parts):
                    found.append(f"{where}: span {name!r} is not snake_case")
            else:
                continue
            if registered.setdefault(name, kind) != kind:
                found.append(f"{where}: {name!r} registered as {kind} and as {registered[name]}")
            if documented and name not in documented:
                found.append(f"{where}: {name!r} has no registry row")
    for name, kind in documented.items():
        if registered.get(name) != kind:
            found.append(f"DESIGN.md: row {name!r} has no {kind} registered")
    return found


def test_telemetry_names_match_the_design_registry():
    documented = design_registry((ROOT / "DESIGN.md").read_text(encoding="utf-8"))
    assert len(documented) > 50
    assert check_metric_registry(scope("src/repro/*.py"), documented) == []
    rows = design_registry("| `repro_engine_ok` | counter |\n| `repro_{engine,run}_gone` | gauge |")
    bad = 'reg.counter("bad-name")\nreg.gauge("repro_wizard_x")\nreg.counter("repro_engine_ok")\n'
    assert len(check_metric_registry(snippet(bad), rows)) == 5


# -- worker wire protocol -----------------------------------------------------


def _results_queue(call, methods: tuple[str, ...]) -> bool:
    func = call.func if isinstance(call, ast.Call) else None
    return getattr(func, "attr", None) in methods and str(_dotted(func.value)).endswith(
        ("out_queue", "results_queue")
    )


def check_wire_protocol(workers, supervisors) -> list[str]:
    """Every ``(kind, ...)`` tuple a worker puts on the results queue has
    a dispatch arm in the supervisor and every arm an emitter, and the
    supervisor unpacks tuples of the arity the worker puts."""
    puts, arities, handled = {}, set(), set()
    for _, tree in workers:
        for node in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            if _results_queue(node, ("put", "put_nowait")) and node.args:
                message = node.args[0]
                if isinstance(message, ast.Tuple) and message.elts and _str(message.elts[0]):
                    puts.setdefault(message.elts[0].value, set()).add(len(message.elts))
    for _, tree in supervisors:
        wire, functions = set(), {n.name: n for n in ast.walk(tree) if isinstance(n, FUNCS)}
        for node in (n for n in ast.walk(tree) if isinstance(n, ast.Assign)):  # kind, ... = get()
            target = node.targets[0]
            if isinstance(target, ast.Tuple) and _results_queue(node.value, ("get", "get_nowait")):
                arities.add(len(target.elts))
                wire.add(getattr(target.elts[0], "id", None))
        for node in (n for n in ast.walk(tree) if isinstance(n, ast.Call) and n.args):
            function = functions.get(getattr(node.func, "id", None))  # kind handed on to f(kind)
            if function and function.args.args and getattr(node.args[0], "id", 0) in wire:
                wire.add(function.args.args[0].arg)
        for node in (n for n in ast.walk(tree) if isinstance(n, ast.Compare)):
            equality = isinstance(node.ops[0], (ast.Eq, ast.NotEq)) and _str(node.comparators[0])
            if equality and getattr(node.left, "id", None) in wire:
                handled.add(node.comparators[0].value)
    found = [f"worker puts {k!r}, which no arm handles" for k in sorted({*puts} - handled)]
    found += [f"supervisor handles {k!r}, which no worker puts" for k in sorted(handled - {*puts})]
    found += [f"{k!r} is put as a {n}-tuple" for k in sorted(puts) for n in puts[k] - arities]
    return found


def test_worker_wire_protocol_is_exhaustive():
    workers = scope("src/repro/runtime/worker.py")
    assert check_wire_protocol(workers, scope("src/repro/runtime/parallel.py")) == []
    worker = """
        def work(out_queue):
            out_queue.put(('ok', 1, 0, 0))
            out_queue.put(('stats', 1))
    """
    pump = """
        def pump(out_queue):
            kind, shard, n, payload = out_queue.get()
            handle(kind)
        def handle(message):
            if message == 'ok' or message == 'retired':
                return
    """
    assert check_wire_protocol(snippet(worker), snippet(pump)) == [
        "worker puts 'stats', which no arm handles",
        "supervisor handles 'retired', which no worker puts",
        "'stats' is put as a 2-tuple",
    ]


# -- sequence arithmetic ------------------------------------------------------

ORDERINGS = (ast.Lt, ast.Gt, ast.LtE, ast.GtE)


def _seq_name(name: str) -> bool:
    name = name.lower()
    return name != "has_seq" and (name in ("seq", "ack") or name.endswith("_seq"))


def _reduced(node, parents) -> bool:
    """Is ``node`` reduced mod 2**32 at once (the helpers' own idiom)?"""
    parent = parents.get(node)
    if isinstance(parent, ast.BinOp) and isinstance(parent.op, (ast.Mod, ast.BitAnd)):
        other = ast.unparse(parent.right if parent.left is node else parent.left)
        return "MOD" in other.upper() or bool(re.search(r"2 \*\* 32|429496729[56]", other))
    return False


def check_seq_arithmetic(files) -> list[str]:
    """TCP sequence numbers live in Z/2^32: raw ``+``/``-`` and ordering on
    ``seq``/``ack``/``*_seq`` values, or on locals fed by one, go through
    ``seq_add``/``seq_diff`` (a ``seq_diff`` result is a plain integer)."""
    found = []
    for path, tree in files:
        parents = _parents(tree)
        for function in (n for n in ast.walk(tree) if isinstance(n, FUNCS)):
            taint: set[str] = set()

            def seq(expr: ast.expr) -> bool:
                if isinstance(expr, ast.Call):
                    return (_dotted(expr.func) or "").split(".")[-1] == "seq_add"
                if _seq_name(getattr(expr, "id", None) or getattr(expr, "attr", "")):
                    return True
                if isinstance(expr, ast.Name):
                    return expr.id in taint
                return any(seq(c) for c in ast.iter_child_nodes(expr) if isinstance(c, ast.expr))

            for stmt in _statements([] if function.name.startswith("seq_") else function.body):
                target = getattr(stmt, "target", None)
                if isinstance(stmt, ast.AugAssign) and isinstance(stmt.op, (ast.Add, ast.Sub)):
                    if _seq_name(getattr(target, "id", "") or getattr(target, "attr", "")) or (
                        getattr(target, "id", None) in taint
                    ):
                        found.append(f"{path}:{stmt.lineno}: raw {ast.unparse(stmt)}")
                for node in _own_nodes(stmt):
                    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
                        if not _reduced(node, parents) and (seq(node.left) or seq(node.right)):
                            found.append(f"{path}:{node.lineno}: raw {ast.unparse(node)}")
                    sides = [node.left, *node.comparators] if isinstance(node, ast.Compare) else []
                    for a, b, op in zip(sides, sides[1:], getattr(node, "ops", [])):
                        if isinstance(op, ORDERINGS) and (seq(a) or seq(b)):
                            found.append(f"{path}:{node.lineno}: raw {ast.unparse(node)}")
                targets = getattr(stmt, "targets", [])
                if isinstance(stmt, ast.Assign) and [type(t) for t in targets] == [ast.Name]:
                    (taint.add if seq(stmt.value) else taint.discard)(targets[0].id)
    return found


def test_sequence_arithmetic_goes_through_the_helpers():
    files = scope("src/repro/core/*.py", "src/repro/streams/*.py", "src/repro/packet/*.py")
    assert check_seq_arithmetic(files) == []
    bad = """
        def bump(seq, ack, n):
            if seq < ack:
                seq += 1
            end = seq
            return end + n, (seq + 1) % 2**32, seq_diff(ack, seq) + n
    """
    assert len(check_seq_arithmetic(snippet(bad))) == 3


# -- resource lifecycle -------------------------------------------------------

CLOSERS = ("close", "terminate", "kill", "shutdown", "release")
OPENERS = r"socket\.(socket|create_connection|socketpair)|((io|builtins|gzip|lzma)\.)?open"
MP = r"(\.\w+)*\.((Simple|Joinable)?Queue|Process)"


def _resource(func, resolve) -> str | None:  # its dotted name, if calling ``func`` acquires
    name, full = _dotted(func) or "", resolve(func) or ""
    mp = re.fullmatch(f"(ctx|mp|context){MP}", name) or re.fullmatch(f"multiprocessing{MP}", full)
    return full if mp or re.fullmatch(OPENERS, full) else None


def _self_attr(node) -> str | None:
    is_self = isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in ("self", "cls")
    return node.attr if is_self else None


def _leak(name: str, acquired: int, nodes: list) -> str | None:
    """How a resource bound to the local ``name`` can leak, if it can."""
    returns = [n for n in nodes if isinstance(n, ast.Return)]
    handed = [a for n in nodes if isinstance(n, ast.Call) for a in n.args + n.keywords] + returns
    if any(_dotted(n) == name for value in handed for n in ast.walk(value)):
        return None  # handed on or returned: the receiver owns it
    ends = [getattr(n, "func", None) or getattr(n, "context_expr", None) for n in nodes]
    closes = [e.lineno for e in ends if _dotted(e) in {name, *(f"{name}.{c}" for c in CLOSERS)}]
    finals = [(t.finalbody[0].lineno, t.end_lineno) for t in nodes if getattr(t, "finalbody", 0)]
    in_finally = any(start <= line <= end for line in closes for start, end in finals)
    early = not in_finally and any(acquired < r.lineno < min(closes, default=0) for r in returns)
    return "is never closed" if not closes else "leaks on an early return" if early else None


def _closed_by(owner: ast.ClassDef) -> set[str | None]:
    """The ``self`` attributes a class closes, or hands to another callable."""
    calls = [n for n in ast.walk(owner) if isinstance(n, ast.Call)]
    closed = {_self_attr(c.func.value) for c in calls if getattr(c.func, "attr", 0) in CLOSERS}
    return closed | {_self_attr(n) for c in calls for a in c.args + c.keywords for n in ast.walk(a)}


def check_resource_release(files) -> list[str]:
    """Every socket, file, queue and process acquired is closed on every path, or handed on."""
    found = []
    for path, tree in files:
        resolve = _imported(tree)
        pairs = [(top, f) for top in tree.body for f in ast.walk(top) if isinstance(f, FUNCS)]
        for top, function in pairs:  # a method's resource belongs to its outermost class
            stmts = list(_statements(function.body))
            nodes = [node for stmt in stmts for node in _own_nodes(stmt)]
            kept = {_dotted(n.value): _self_attr(t) for n in nodes  # local -> self attribute
                    if isinstance(n, ast.Assign) for t in n.targets if _self_attr(t)}
            for stmt in (s for s in stmts if isinstance(s, (ast.Assign, ast.Expr))):
                kind = _resource(getattr(stmt.value, "func", None), resolve)
                target = kind and len(getattr(stmt, "targets", [])) == 1 and stmt.targets[0]
                local = getattr(target, "id", None)
                attr = _self_attr(target) or local and kept.get(local)
                leak = _leak(local, stmt.lineno, nodes) if local and not attr else None
                if attr and isinstance(top, ast.ClassDef) and attr not in _closed_by(top):
                    leak = f"stays open on self.{attr}"
                if kind and (leak or isinstance(stmt, ast.Expr)):
                    found.append(f"{path}:{stmt.lineno}: {kind} {local} {leak or 'is discarded'}")
    return found


def test_acquired_resources_are_released():
    assert check_resource_release(scope("src/repro/runtime/*.py", "src/repro/service/*.py")) == []
    bad = """
        class Listener:
            def start(self): self.sock = socket.socket()
        def probe(dry):
            sock = socket.socket()
            if dry: return 0
            sock.close()
    """
    assert len(check_resource_release(snippet(bad))) == 2
