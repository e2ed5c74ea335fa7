#!/usr/bin/env python3
"""hts-lint — repo-specific protocol & concurrency invariant checker.

Static checks that the compilers cannot express, run in CI next to
clang-tidy and the -Wthread-safety pass (DESIGN.md D10):

  msgkind-coverage   every MsgKind in src/core/messages.h has an encode
                     case and a decode case in src/core/messages.cpp, and
                     its struct is exercised by a test whose name contains
                     "RoundTrip".
  raii-locking       no naked .lock()/.unlock()/.lock_shared()/... calls in
                     src/ outside the annotated wrapper
                     (src/common/thread_annotations.h) — locking is RAII
                     via sync::MutexLock and its siblings only, so the
                     thread-safety analysis sees every critical section.
  probe-null-guard   every obs probe dereference (`rec->`, `recorder->`)
                     sits within a few lines of a null guard — probes are
                     optional and detach by nulling the recorder.
  determinism        src/sim/ and src/core/ contain no wall-clock or
                     ambient-randomness calls (simulated time must be a
                     pure function of the seed); elsewhere in src/ the raw
                     clock APIs appear only in src/common/clock.h, the
                     repo's single clock authority.
  transport-parity   the scatter-gather encoder (net::FrameWriter) produces
                     the same bytes as the legacy string encoder for every
                     MsgKind: both public entry points in messages.cpp must
                     delegate to the one encode_into_sink template (parity
                     by construction), and every enum kind must appear in
                     the parity exemplar list in tests/transport_test.cpp
                     (make_payload<Kind> in the FrameCodec suite).
  host-once          the protocol is hosted once: no class under src/
                     outside the shared transport hosts
                     (src/harness/transport_hosts.{h,cpp}) derives from
                     core::ServerContext, core::ClientContext or
                     baselines::PeerContext. Every fabric runs the state
                     machines through those hosts on a net::Transport; the
                     one exemption is src/round/, the lock-step round model,
                     which steps them in synchronous rounds and has no
                     transport.
  net-no-globals     src/net holds no process-wide mutable state: no
                     variable at namespace scope and no `static` variable
                     (function-local or member) unless it is const,
                     constexpr or thread_local. A transport knows only the
                     nodes it hosts and what its Options hand it, so two
                     deployments in one process cannot reach each other's
                     servers. The scan is lexical: a direct-initialised
                     variable whose parentheses hold only names reads as a
                     function declaration, and any `const` in a
                     declaration counts it as immutable.

Usage:
  tools/hts_lint.py [--repo-root DIR] [--compile-commands PATH]
  tools/hts_lint.py --self-test

The file set is compile_commands-driven when the database is available
(every TU under src/ that the build actually compiles, plus all headers
under src/); it falls back to walking src/ otherwise. --self-test seeds one
violation of each invariant into an in-memory copy of the tree and fails
loudly unless every check catches its seed.

Exit status: 0 clean, 1 violations found, 2 bad invocation.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

WRAPPER = "src/common/thread_annotations.h"
CLOCK_AUTHORITY = "src/common/clock.h"
DETERMINISTIC_DIRS = ("src/sim/", "src/core/")

# Clock/randomness sources. Durations (std::chrono::milliseconds) are fine
# everywhere — only *sources* of nondeterminism are flagged.
RAW_CLOCK_RE = re.compile(
    r"steady_clock|system_clock|high_resolution_clock|gettimeofday"
)
RAW_RANDOM_RE = re.compile(
    r"\brandom_device\b|\bmt19937\b|\bs?rand\s*\(|\btime\s*\(\s*(?:0|NULL|nullptr)\s*\)"
)
# The clock helper itself counts as wall clock inside the deterministic dirs.
CLK_HELPER_RE = re.compile(r"\bclk::")

NAKED_LOCK_RE = re.compile(
    r"\.\s*(?:lock|unlock|lock_shared|unlock_shared|try_lock|try_lock_shared)\s*\("
)

PROBE_DEREF_RE = re.compile(r"\b(?:rec|recorder)(?:_)?->")
PROBE_GUARD_RE = re.compile(
    r"(?:rec|recorder)(?:_)?\s*(?:==|!=)\s*nullptr|attached\s*\(\)"
)
PROBE_GUARD_WINDOW = 15  # lines above a dereference the guard may sit in

HOST_FILES = ("src/harness/transport_hosts.h",
              "src/harness/transport_hosts.cpp")
HOST_EXEMPT_DIRS = ("src/round/",)
CLASS_BASES_RE = re.compile(
    r"\b(?:class|struct)\s+(\w+(?:::\w+)*)(?:\s+final)?\s*:(?!:)\s*"
    r"(?P<bases>[^{;]*)\{")
CONTEXT_BASE_RE = re.compile(
    r"\b(?:core::|baselines::)?(ServerContext|ClientContext|PeerContext)\b")

ENUM_RE = re.compile(r"enum\s+MsgKind[^{]*\{(?P<body>[^}]*)\}", re.S)
ENUM_ENTRY_RE = re.compile(r"\bk(\w+)\s*=\s*\d+")
TEST_RE = re.compile(r"TEST(?:_F|_P)?\s*\(\s*(\w+)\s*,\s*(\w+)\s*\)")

NET_DIR = "src/net/"
IMMUTABLE_RE = re.compile(r"\b(?:const|constexpr|thread_local)\b")
# Namespace-scope statements that declare no variable.
NOT_A_VARIABLE_RE = re.compile(
    r"^(?:using|typedef|namespace|static_assert|template)\b")
TYPE_HEAD_RE = re.compile(r"^(?:class|struct|union|enum)\b")
TEMPLATE_HEAD_RE = re.compile(r"^template\s*<(?:[^<>]|<[^<>]*>)*>\s*")
ATTRIBUTE_RE = re.compile(r"\[\[.*?\]\]\s*")
OPERATOR_RE = re.compile(r"\boperator\s*(?:\(\)|[^\s(]+)")
# A `static` declaration with no parenthesis before its terminator: a
# variable (a static function has its parameter list first).
STATIC_VAR_RE = re.compile(r"(?:^|[{;:])\s*(?:inline\s+)?static\s+[^(]*?[;={]")


class Violation:
    def __init__(self, check: str, path: str, line: int, msg: str):
        self.check = check
        self.path = path
        self.line = line
        self.msg = msg

    def __str__(self) -> str:
        where = f"{self.path}:{self.line}" if self.line else self.path
        return f"{where}: [{self.check}] {self.msg}"


def load_tree(repo_root: Path, compile_commands: Path | None) -> dict[str, str]:
    """Relative path -> content for everything the checks look at."""
    files: dict[str, str] = {}

    def add(p: Path) -> None:
        rel = p.relative_to(repo_root).as_posix()
        try:
            files[rel] = p.read_text(encoding="utf-8", errors="replace")
        except OSError:
            pass

    tus: set[Path] = set()
    if compile_commands and compile_commands.is_file():
        for entry in json.loads(compile_commands.read_text()):
            src = Path(entry["directory"], entry["file"]).resolve()
            try:
                rel = src.relative_to(repo_root)
            except ValueError:
                continue  # gtest, system TUs
            if rel.as_posix().startswith("src/"):
                tus.add(src)
    for p in tus:
        add(p)
    # Headers (and, without a database, all sources) come from the walk.
    exts = {".h", ".hpp"} if tus else {".h", ".hpp", ".cc", ".cpp"}
    for p in sorted((repo_root / "src").rglob("*")):
        if p.suffix in exts and p.is_file():
            add(p)
    for p in sorted((repo_root / "tests").glob("*.cpp")):
        add(p)
    return files


# ------------------------------------------------------------------ checks


def check_msgkind_coverage(files: dict[str, str]) -> list[Violation]:
    out: list[Violation] = []
    header = files.get("src/core/messages.h")
    impl = files.get("src/core/messages.cpp")
    if header is None or impl is None:
        return [Violation("msgkind-coverage", "src/core/messages.h", 0,
                          "messages.h/messages.cpp not found")]
    enum = ENUM_RE.search(header)
    if enum is None:
        return [Violation("msgkind-coverage", "src/core/messages.h", 0,
                          "MsgKind enum not found")]
    kinds = ENUM_ENTRY_RE.findall(enum.group("body"))
    if not kinds:
        return [Violation("msgkind-coverage", "src/core/messages.h", 0,
                          "MsgKind enum has no entries")]

    # Bodies of every test whose name mentions RoundTrip, across all tests.
    roundtrip_text: list[str] = []
    for path, text in files.items():
        if not path.startswith("tests/"):
            continue
        matches = list(TEST_RE.finditer(text))
        for i, m in enumerate(matches):
            if "roundtrip" not in (m.group(1) + m.group(2)).lower():
                continue
            end = matches[i + 1].start() if i + 1 < len(matches) else len(text)
            roundtrip_text.append(text[m.start():end])
    roundtrips = "\n".join(roundtrip_text)

    for name in kinds:
        cases = len(re.findall(rf"\bcase\s+(?:MsgKind::)?k{name}\s*:", impl))
        if cases < 2:
            out.append(Violation(
                "msgkind-coverage", "src/core/messages.cpp", 0,
                f"MsgKind k{name}: found {cases} `case k{name}:` "
                f"labels, need 2 (encode_message and decode switch)"))
        if not re.search(rf"\b{name}\b", roundtrips):
            out.append(Violation(
                "msgkind-coverage", "src/core/messages.h", 0,
                f"MsgKind k{name}: struct {name} never appears in a "
                f"test named *RoundTrip* under tests/"))
    return out


def check_raii_locking(files: dict[str, str]) -> list[Violation]:
    out: list[Violation] = []
    for path, text in files.items():
        if not path.startswith("src/") or path == WRAPPER:
            continue
        for ln, line in enumerate(text.splitlines(), 1):
            code = line.split("//")[0]
            if NAKED_LOCK_RE.search(code):
                out.append(Violation(
                    "raii-locking", path, ln,
                    "naked mutex lock/unlock call — use sync::MutexLock "
                    "so the thread-safety analysis sees the critical "
                    "section"))
    return out


def check_probe_null_guard(files: dict[str, str]) -> list[Violation]:
    out: list[Violation] = []
    for path, text in files.items():
        if not path.startswith("src/"):
            continue
        # Comments stripped for the guard window too — prose mentioning
        # `attached()` must not satisfy the check.
        code_lines = [line.split("//")[0] for line in text.splitlines()]
        for ln, code in enumerate(code_lines, 1):
            if not PROBE_DEREF_RE.search(code):
                continue
            lo = max(0, ln - 1 - PROBE_GUARD_WINDOW)
            window = "\n".join(code_lines[lo:ln])
            if not PROBE_GUARD_RE.search(window):
                out.append(Violation(
                    "probe-null-guard", path, ln,
                    "probe/recorder dereference with no null guard within "
                    f"{PROBE_GUARD_WINDOW} lines — probes are optional"))
    return out


def check_determinism(files: dict[str, str]) -> list[Violation]:
    out: list[Violation] = []
    for path, text in files.items():
        if not path.startswith("src/"):
            continue
        deterministic = path.startswith(DETERMINISTIC_DIRS)
        for ln, line in enumerate(text.splitlines(), 1):
            code = line.split("//")[0]
            if RAW_RANDOM_RE.search(code):
                out.append(Violation(
                    "determinism", path, ln,
                    "ambient randomness — seeds must flow in explicitly"))
                continue
            if deterministic:
                if RAW_CLOCK_RE.search(code) or CLK_HELPER_RE.search(code):
                    out.append(Violation(
                        "determinism", path, ln,
                        "wall-clock use in deterministic code (src/sim, "
                        "src/core run on simulated/injected time only)"))
            elif path != CLOCK_AUTHORITY and RAW_CLOCK_RE.search(code):
                out.append(Violation(
                    "determinism", path, ln,
                    f"raw clock API outside {CLOCK_AUTHORITY} — go through "
                    "hts::clk so the lint can audit every wall-clock site"))
    return out


def check_transport_parity(files: dict[str, str]) -> list[Violation]:
    out: list[Violation] = []
    header = files.get("src/core/messages.h")
    impl = files.get("src/core/messages.cpp")
    test = files.get("tests/transport_test.cpp")
    if header is None or impl is None or test is None:
        return [Violation("transport-parity", "src/core/messages.cpp", 0,
                          "messages.{h,cpp} or tests/transport_test.cpp "
                          "not found")]

    # (a) Parity by construction: both entry points delegate to the single
    # encode_into_sink template — a second hand-rolled switch in either one
    # could drift from the other.
    if not re.search(r"template\s*<\s*typename\s+Sink\s*>", impl):
        out.append(Violation(
            "transport-parity", "src/core/messages.cpp", 0,
            "encode_into_sink<Sink> template not found — the legacy and "
            "scatter-gather encoders must share one encode switch"))
    for fn in ("encode_message", "encode_message_into"):
        pat = re.compile(
            rf"\b{fn}\s*\([^)]*\)\s*\{{[^}}]*encode_into_sink\s*\(", re.S)
        if not pat.search(impl):
            out.append(Violation(
                "transport-parity", "src/core/messages.cpp", 0,
                f"{fn} does not delegate to encode_into_sink — both "
                "encoders must instantiate the same template"))

    # (b) Every MsgKind is exercised by the byte-parity test: the exemplar
    # builder in tests/transport_test.cpp must construct each kind.
    enum = ENUM_RE.search(header)
    if enum is None:
        out.append(Violation("transport-parity", "src/core/messages.h", 0,
                             "MsgKind enum not found"))
        return out
    for name in ENUM_ENTRY_RE.findall(enum.group("body")):
        if not re.search(rf"make_payload<\s*(?:core::)?{name}\s*[<(>]", test):
            out.append(Violation(
                "transport-parity", "tests/transport_test.cpp", 0,
                f"MsgKind k{name}: {name} is never constructed in the "
                "FrameWriter parity exemplars (one_of_every_kind) — the "
                "scatter-gather encoder would be unpinned for this kind"))
    return out


def check_host_once(files: dict[str, str]) -> list[Violation]:
    out: list[Violation] = []
    for path, text in files.items():
        if (not path.startswith("src/") or path in HOST_FILES
                or path.startswith(HOST_EXEMPT_DIRS)):
            continue
        code = "\n".join(line.split("//")[0] for line in text.splitlines())
        for m in CLASS_BASES_RE.finditer(code):
            ctx = CONTEXT_BASE_RE.search(m.group("bases"))
            if ctx is None:
                continue
            out.append(Violation(
                "host-once", path, code.count("\n", 0, m.start()) + 1,
                f"{m.group(1)} derives from {ctx.group(1)} — host state "
                "machines through the shared transport hosts "
                "(src/harness/transport_hosts.h) on a net::Transport"))
    return out


def strip_code(text: str) -> str:
    """Comments, string/char literal contents and preprocessor lines
    blanked out; newlines kept, so offsets still map to lines."""
    out: list[str] = []
    i, n = 0, len(text)
    at_line_start = True
    while i < n:
        c = text[i]
        if at_line_start and c in " \t":
            out.append(c)
            i += 1
            continue
        if at_line_start and c == "#":
            j = text.find("\n", i)
            while j > 0 and text[j - 1] == "\\":  # continued directive
                j = text.find("\n", j + 1)
            j = n if j < 0 else j
            out.append("\n" * text.count("\n", i, j))
            i = j
            continue
        at_line_start = False
        if text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("\n" * text.count("\n", i, j))
            i = j
        elif c in "\"'" and not (c == "'" and i > 0 and text[i - 1].isalnum()):
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            out.append(c + "\n" * text.count("\n", i, j) + c)
            i = j + 1
        else:
            out.append(c)
            if c == "\n":
                at_line_start = True
            i += 1
    return "".join(out)


def top_level(s: str) -> str:
    """`s` with every bracketed group emptied, operator names and ==, !=,
    <=, >= dropped: an `=` left is an initialiser."""
    s = re.sub(r"[=!<>]=", "", OPERATOR_RE.sub("operator", s))
    out, depth = [], 0
    for c in s:
        if c in "([{":
            if depth == 0:
                out.append(c)
            depth += 1
        elif c in ")]}":
            depth -= 1
            if depth == 0:
                out.append(c)
        elif depth == 0:
            out.append(c)
    return "".join(out)


def declares_mutable_variable(stmt: str) -> bool:
    """Whether a ;-terminated namespace-scope statement declares a
    variable that is not const, constexpr or thread_local."""
    s = ATTRIBUTE_RE.sub("", " ".join(stmt.split()))
    s = TEMPLATE_HEAD_RE.sub("", s)
    if not s or NOT_A_VARIABLE_RE.match(s):
        return False
    if TYPE_HEAD_RE.match(s):
        # A type declaration; only declarators after its body are variables.
        end = s.rfind("}")
        if end < 0 or not s[end + 1:].strip():
            return False
    if IMMUTABLE_RE.search(s):
        return False
    flat = top_level(s)
    paren, assign = flat.find("("), flat.find("=")
    if paren >= 0 and (assign < 0 or paren < assign):
        # A function declaration, unless the parentheses hold a literal
        # (direct initialisation).
        args = s[s.find("("):]
        return bool(re.search(r"\b\d|\"|'", args))
    return True


def namespace_scope_statements(code: str):
    """(line, text) of every ;-terminated statement at namespace scope of
    stripped code; bodies of functions and types are skipped, brace
    initialisers kept (as `{}`)."""
    stmt: list[str] = []
    start = -1          # offset of the statement's first non-blank char
    skip_depth = 0      # inside a function/type/initialiser body
    keep_after = False  # the skipped body belongs to the statement
    for i, c in enumerate(code):
        if skip_depth:
            if c == "{":
                skip_depth += 1
            elif c == "}":
                skip_depth -= 1
                if skip_depth == 0:
                    if keep_after:
                        stmt.append("{}")
                    else:
                        stmt, start = [], -1
            continue
        if start < 0 and not c.isspace():
            start = i
        if c == "{":
            header = " ".join("".join(stmt).split())
            if re.match(r"^(?:inline\s+)?namespace\b[^=]*$", header) or \
                    re.match(r'^extern\s*""$', header):
                stmt, start = [], -1
                continue
            head = TEMPLATE_HEAD_RE.sub("", header)
            flat = top_level(head)
            keep_after = bool(head) and (TYPE_HEAD_RE.match(head) is not None
                                         or "=" in flat or "(" not in flat)
            skip_depth = 1
        elif c == "}":
            stmt, start = [], -1  # a namespace closes
        elif c == ";":
            if start >= 0:
                yield code.count("\n", 0, start) + 1, "".join(stmt)
            stmt, start = [], -1
        else:
            stmt.append(c)


def check_net_no_globals(files: dict[str, str]) -> list[Violation]:
    out: list[Violation] = []
    for path, text in files.items():
        if not path.startswith(NET_DIR):
            continue
        code = strip_code(text)
        flagged: set[int] = set()
        for ln, stmt in namespace_scope_statements(code):
            if declares_mutable_variable(stmt):
                flagged.add(ln)
        for ln, line in enumerate(code.splitlines(), 1):
            if STATIC_VAR_RE.search(line) and not IMMUTABLE_RE.search(line):
                flagged.add(ln)
        for ln in sorted(flagged):
            out.append(Violation(
                "net-no-globals", path, ln,
                "mutable process-wide variable in src/net — keep transport "
                "state in the transport (make it const, constexpr or "
                "thread_local if it must live here)"))
    return out


CHECKS = {
    "msgkind-coverage": check_msgkind_coverage,
    "raii-locking": check_raii_locking,
    "probe-null-guard": check_probe_null_guard,
    "determinism": check_determinism,
    "transport-parity": check_transport_parity,
    "host-once": check_host_once,
    "net-no-globals": check_net_no_globals,
}


def run_checks(files: dict[str, str]) -> list[Violation]:
    out: list[Violation] = []
    for check in CHECKS.values():
        out.extend(check(files))
    return out


# --------------------------------------------------------------- self-test

def self_test(files: dict[str, str]) -> int:
    """Seed one violation per invariant; every seed must be caught."""
    base = run_checks(files)
    if base:
        print("self-test requires a clean tree; current violations:")
        for v in base:
            print(f"  {v}")
        return 1

    def patched(path: str, old: str, new: str) -> dict[str, str]:
        copy = dict(files)
        assert old in copy[path], f"self-test anchor missing in {path}: {old!r}"
        copy[path] = copy[path].replace(old, new, 1)
        return copy

    seeds: list[tuple[str, dict[str, str]]] = [
        # A kind with no encode/decode cases and no roundtrip test.
        ("msgkind-coverage", patched(
            "src/core/messages.h", "kMigrateDedup = 11,",
            "kMigrateDedup = 11,\n  kBogusProbe = 12,")),
        # An encode case deleted: coverage drops below the 2-label floor.
        ("msgkind-coverage", patched(
            "src/core/messages.cpp", "case kClientRead:",
            "case kClientRead - 0: {")),
        # A naked lock call outside the wrapper.
        ("raii-locking", patched(
            "src/core/reconfig.h", "namespace hts::core {",
            "namespace hts::core {\n"
            "inline void bad(sync::Mutex& m) { m.lock(); }")),
        # A probe dereference with no guard in sight.
        ("probe-null-guard", patched(
            "src/obs/probe.h", "namespace hts::obs {",
            "namespace hts::obs {\n"
            "inline double bad(Recorder* rec) { return rec->now(); }")),
        # Wall clock inside deterministic code.
        ("determinism", patched(
            "src/core/reconfig.h", "namespace hts::core {",
            "namespace hts::core {\n"
            "inline auto bad_now() { return "
            "std::chrono::steady_clock::now(); }")),
        # Raw clock outside the clock authority.
        ("determinism", patched(
            "src/obs/trace.h", "namespace hts::obs {",
            "namespace hts::obs {\n"
            "inline auto bad_now() { return "
            "std::chrono::system_clock::now(); }")),
        # Ambient randomness anywhere in src/.
        ("determinism", patched(
            "src/core/reconfig.h", "namespace hts::core {",
            "namespace hts::core {\n"
            "inline int bad_rand() { return rand(); }")),
        # A new kind missing from the FrameWriter parity exemplars.
        ("transport-parity", patched(
            "src/core/messages.h", "kFragRepair = 17,",
            "kFragRepair = 17,\n  kUnpinnedKind = 18,")),
        # encode_message_into grows its own switch instead of delegating.
        ("transport-parity", patched(
            "src/core/messages.cpp",
            "void encode_message_into(const net::Payload& msg,",
            "void encode_message_into_detached(const net::Payload& msg,")),
        # A fabric grows its own server host again.
        ("host-once", patched(
            "src/harness/sim_cluster.cpp", "namespace hts::harness {",
            "namespace hts::harness {\n"
            "struct SimCluster::ServerNode final : core::ServerContext {\n"
            "  void send_client(ClientId, net::PayloadPtr) override {}\n"
            "};")),
        # A process-wide port registry comes back: a namespace-scope lock...
        ("net-no-globals", patched(
            "src/net/tcp_transport.cpp", "namespace {\n",
            "namespace {\n\nsync::Mutex g_port_mu;\n")),
        # ...or a function-local static map.
        ("net-no-globals", patched(
            "src/net/tcp_transport.cpp", "namespace {\n",
            "namespace {\n\nstd::map<NodeAddress, std::uint16_t>& ports() {\n"
            "  static std::map<NodeAddress, std::uint16_t> p;\n"
            "  return p;\n}\n")),
        # ...or a brace-initialised atomic in a header.
        ("net-no-globals", patched(
            "src/net/transport.h", "namespace hts::net {\n",
            "namespace hts::net {\n\ninline std::atomic<std::uint64_t> "
            "g_sent{0};\n")),
    ]

    failures = 0
    for check_name, tree in seeds:
        caught = [v for v in CHECKS[check_name](tree)]
        if caught:
            print(f"  ok: seeded {check_name} violation caught "
                  f"({caught[0].msg[:60]}...)")
        else:
            print(f"  FAIL: seeded {check_name} violation NOT caught")
            failures += 1
    if failures:
        print(f"self-test: {failures} seed(s) escaped")
        return 1
    print(f"self-test: all {len(seeds)} seeded violations caught")
    return 0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repo-root", type=Path,
                    default=Path(__file__).resolve().parent.parent)
    ap.add_argument("--compile-commands", type=Path, default=None,
                    help="compile_commands.json (default: "
                         "<repo-root>/build/compile_commands.json if present)")
    ap.add_argument("--self-test", action="store_true",
                    help="seed violations and verify every check fires")
    args = ap.parse_args(argv)

    repo_root = args.repo_root.resolve()
    if not (repo_root / "src").is_dir():
        print(f"error: {repo_root} has no src/ directory", file=sys.stderr)
        return 2
    cc = args.compile_commands
    if cc is None:
        candidate = repo_root / "build" / "compile_commands.json"
        cc = candidate if candidate.is_file() else None

    files = load_tree(repo_root, cc)
    if args.self_test:
        return self_test(files)

    violations = run_checks(files)
    for v in violations:
        print(v)
    n_files = len(files)
    src = "compile_commands + src walk" if cc else "src walk"
    if violations:
        print(f"hts-lint: {len(violations)} violation(s) in "
              f"{n_files} files ({src})")
        return 1
    print(f"hts-lint: clean — {n_files} files, "
          f"{len(CHECKS)} invariants ({src})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
