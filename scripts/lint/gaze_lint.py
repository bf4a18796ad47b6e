#!/usr/bin/env python3
"""gaze_lint — project-specific determinism and hygiene linter.

Every number this repro publishes (golden metrics, campaign cache
cells, polled-vs-event bitwise equivalence) rests on the simulator
being bit-deterministic. The golden tests only *sample* that
invariant at runtime; this linter states the rules that make it hold
and fails the build when a change breaks one statically:

  wall-clock             host clock / ambient randomness outside the
                         harness/wallclock.hh shim
  unordered-in-output    unordered containers in code that produces
                         published bytes (reports, exports, cell keys,
                         metrics, tables) — iteration order would leak
  pointer-order          ordering or hashing raw pointer values —
                         allocator-dependent, differs run to run
  raw-thread             std::thread/std::jthread outside the two
                         sanctioned shims (driver/thread_pool.hh and
                         sim/threaded.{hh,cc}) — ad-hoc threads are
                         where nondeterminism and leaked joins start
  hot-container          std::unordered_map/std::map/std::list inside
                         src/sim/ or src/prefetchers/ — node-based or
                         rehashing containers on the per-access hot
                         path allocate per element and chase pointers
                         per lookup; use the flat project structures
                         (MshrTable, LruTable, RingBuffer) or plain
                         vectors, or justify genuinely cold uses
  using-namespace-header `using namespace` at header scope
  pragma-once            header missing `#pragma once`
  register-anchor        GAZE_REGISTER_PREFETCHER without the matching
                         force-link anchor in prefetchers/registry.cc
                         (the static-lib linker would drop the scheme)
  obs-direct-mutation    a `stat.<field>` counter mutated in an
                         instrumented sim file without a matching
                         GAZE_OBS_*_STAT entry in obs/stat_names.inc —
                         the obs registry (and every --obs-timeline
                         column) would silently miss the counter
  serve-isolation        layering between the simulator and the
                         gaze_serve daemon: sim/core/prefetchers/
                         harness must never include serve/ headers
                         (the service depends on the simulator, not
                         the reverse), and serve/ must not include
                         host-time headers directly — daemon timing
                         goes through harness/wallclock.hh

Findings print as `file:line: [rule-id] message` and make the exit
status 1. A finding can be suppressed where the code is genuinely
right with an inline comment on the same or the preceding line:

    // gaze-lint: allow(rule-id): why this use is sound

The justification text after the second colon is mandatory; an
allow() without one is itself an error. Usage:

    scripts/lint/gaze_lint.py [--root DIR] [--list-rules] [PATH ...]

With no PATH arguments, scans src/ under --root (default: the
repository root containing this script).
"""

import argparse
import os
import re
import sys

SUPPRESS_RE = re.compile(
    r"//\s*gaze-lint:\s*allow\(([a-z0-9-]+)\)(?::\s*(\S.*))?")

# Published-bytes code: anything here feeds report/export/cell-key/
# metrics output, where container iteration order becomes file bytes.
ORDERED_OUTPUT_FILES = re.compile(
    r"(campaign/(report|cache)|harness/(export|cell_key|metrics|table))"
    r"\.(hh|cc)$")

# The one file allowed to read the host clock.
WALLCLOCK_SHIM = re.compile(r"harness/wallclock\.hh$")

REGISTRY_CC = "prefetchers/registry.cc"

REGISTER_RE = re.compile(r"\bGAZE_REGISTER_PREFETCHER\((\w+)\)")
ANCHOR_RE = re.compile(r"&gazePrefetcherRegistrar_(\w+)\b")


def strip_comments_and_strings(text):
    """Blank out comment bodies and string/char literals, preserving
    line structure, so rule patterns never fire on prose or data."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            chunk = text[i:j + 2]
            out.append("".join(ch if ch == "\n" else " " for ch in chunk))
            i = j + 2
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j, n - 1)
            out.append(quote + " " * (j - i - 1) + quote)
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.path, self.line, self.rule,
                                   self.message)


class SourceFile:
    """One scanned file: raw text, stripped text, and the per-line
    suppression table (rule id -> justification or None)."""

    def __init__(self, root, relpath):
        self.relpath = relpath
        with open(os.path.join(root, relpath), encoding="utf-8",
                  errors="replace") as f:
            self.raw = f.read()
        self.stripped = strip_comments_and_strings(self.raw)
        self.raw_lines = self.raw.splitlines()
        self.lines = self.stripped.splitlines()
        self.suppressions = {}  # line number -> {rule: justification}
        for lineno, line in enumerate(self.raw_lines, 1):
            m = SUPPRESS_RE.search(line)
            if m:
                self.suppressions.setdefault(lineno, {})[m.group(1)] = \
                    m.group(2)

    def is_header(self):
        return self.relpath.endswith((".hh", ".h"))

    def suppressed(self, lineno, rule):
        """allow() on the finding's line, or anywhere in the block of
        comment-only lines directly above it, covers the finding; a
        missing justification turns the suppression into an error."""
        candidates = [lineno]
        cand = lineno - 1
        while (1 <= cand <= len(self.raw_lines)
               and self.raw_lines[cand - 1].lstrip().startswith("//")):
            candidates.append(cand)
            cand -= 1
        for cand in candidates:
            rules = self.suppressions.get(cand, {})
            if rule in rules:
                if rules[rule] is None:
                    return None  # present but unjustified
                return True
        return False


def grep_rule(sf, rule, patterns, message):
    """Yield one finding per line matching any of @p patterns.
    #include lines are skipped: the use site is the finding."""
    for lineno, line in enumerate(sf.lines, 1):
        if re.match(r"\s*#\s*include\b", line):
            continue
        for pat in patterns:
            m = pat.search(line)
            if m:
                yield Finding(sf.relpath, lineno, rule,
                              message % m.group(0).strip())
                break


# ---- rules -----------------------------------------------------------

WALL_CLOCK_PATTERNS = [
    re.compile(r"\b(rand|srand|rand_r|drand48)\s*\("),
    re.compile(r"\bstd::random_device\b"),
    re.compile(r"\btime\s*\(\s*(NULL|nullptr|0|&|\))"),
    re.compile(r"\b(gettimeofday|clock_gettime|timespec_get)\s*\("),
    re.compile(r"\bclock\s*\(\s*\)"),
    re.compile(r"\b\w*_clock::now\s*\("),
    re.compile(r"\bgetpid\s*\(\s*\)"),
]


def rule_wall_clock(sf):
    if WALLCLOCK_SHIM.search(sf.relpath):
        return
    yield from grep_rule(
        sf, "wall-clock", WALL_CLOCK_PATTERNS,
        "'%s' reads the host clock/entropy/pid; route wall-clock "
        "timing through harness/wallclock.hh (simulated behaviour "
        "must never depend on the host)")


UNORDERED_RE = re.compile(r"\bunordered_(map|set|multimap|multiset)\b")


def rule_unordered_in_output(sf):
    if not ORDERED_OUTPUT_FILES.search(sf.relpath):
        return
    yield from grep_rule(
        sf, "unordered-in-output", [UNORDERED_RE],
        "'%s' in published-bytes code: its iteration order is "
        "hash-seed/allocator dependent and would leak into report "
        "bytes; use std::map/std::set or sort explicitly")


POINTER_ORDER_PATTERNS = [
    re.compile(r"std::(map|set|multimap|multiset)<\s*[^,<>()]*\*"),
    re.compile(r"std::hash<\s*[^<>]*\*\s*>"),
    re.compile(r"reinterpret_cast<\s*u?intptr_t\s*>"),
]


def rule_pointer_order(sf):
    yield from grep_rule(
        sf, "pointer-order", POINTER_ORDER_PATTERNS,
        "'%s' orders or hashes a raw pointer value; pointer values "
        "are allocator-dependent and differ run to run — key on a "
        "stable id instead")


# The sanctioned homes for raw threads: the task pool that runs
# matrix/campaign cells, and the slice team behind --sim-threads.
RAW_THREAD_SHIMS = re.compile(
    r"(driver/thread_pool\.(hh|cc)|sim/threaded\.(hh|cc))$")

RAW_THREAD_RE = re.compile(r"\bstd::(thread|jthread)\b")


def rule_raw_thread(sf):
    if RAW_THREAD_SHIMS.search(sf.relpath):
        return
    yield from grep_rule(
        sf, "raw-thread", [RAW_THREAD_RE],
        "'%s' uses a raw thread outside the sanctioned shims; go "
        "through driver/thread_pool.hh (task parallelism) or "
        "sim/threaded.hh (the cycle-lockstep slice team) so joins, "
        "exception capture and determinism stay centralized")


# The per-access hot path: every simulated memory reference walks
# src/sim/ and src/prefetchers/ code, so a node-based or rehashing
# container there means heap churn per miss and pointer chasing per
# lookup. The flat structures (sim/mshr_table.hh, common/lru_table.hh,
# common/ring_buffer.hh) exist to replace them; uses that are
# genuinely cold (parse-time option tables, error paths) carry a
# justified allow instead.
HOT_PATH_DIRS = re.compile(r"(^|/)src/(sim|prefetchers)/")

HOT_CONTAINER_RE = re.compile(r"\bstd::(unordered_map|map|list)\b")


def rule_hot_container(sf):
    if not HOT_PATH_DIRS.search(sf.relpath):
        return
    yield from grep_rule(
        sf, "hot-container", [HOT_CONTAINER_RE],
        "'%s' on the simulator hot path: node-based/rehashing "
        "containers allocate per element and chase pointers per "
        "lookup; use MshrTable/LruTable/RingBuffer or a flat vector, "
        "or justify a genuinely cold use with an allow()")


USING_NAMESPACE_RE = re.compile(r"\busing\s+namespace\b")


def rule_using_namespace_header(sf):
    if not sf.is_header():
        return
    yield from grep_rule(
        sf, "using-namespace-header", [USING_NAMESPACE_RE],
        "'%s' in a header leaks into every includer; qualify names "
        "or move the directive into a .cc")


def rule_pragma_once(sf):
    if not sf.is_header():
        return
    for line in sf.raw_lines:
        if line.strip() == "#pragma once":
            return
    yield Finding(sf.relpath, 1, "pragma-once",
                  "header has no '#pragma once'")


def rule_register_anchor(files):
    """Whole-tree rule: every GAZE_REGISTER_PREFETCHER(x) needs a
    force-link anchor (&gazePrefetcherRegistrar_x) in registry.cc, and
    every anchor needs a live registration; registrations must live in
    a .cc so each scheme has exactly one registrar object."""
    registry = None
    registered = {}  # ident -> (file, line)
    for sf in files:
        if sf.relpath.endswith(REGISTRY_CC):
            registry = sf
            continue
        for lineno, line in enumerate(sf.lines, 1):
            if re.search(r"#\s*define\s+GAZE_REGISTER_PREFETCHER", line):
                continue  # the macro's own definition
            for m in REGISTER_RE.finditer(line):
                ident = m.group(1)
                if sf.is_header():
                    yield Finding(
                        sf.relpath, lineno, "register-anchor",
                        "GAZE_REGISTER_PREFETCHER(%s) in a header: "
                        "every includer would define a duplicate "
                        "registrar; register in the scheme's .cc"
                        % ident)
                elif ident in registered:
                    prev = registered[ident]
                    yield Finding(
                        sf.relpath, lineno, "register-anchor",
                        "duplicate GAZE_REGISTER_PREFETCHER(%s) "
                        "(also at %s:%d)" % (ident, prev[0], prev[1]))
                else:
                    registered[ident] = (sf.relpath, lineno)
    if registry is None:
        if registered:
            first = sorted(registered.items())[0]
            yield Finding(first[1][0], first[1][1], "register-anchor",
                          "schemes are registered but %s was not "
                          "scanned; run on the whole src/ tree"
                          % REGISTRY_CC)
        return
    anchors = {}
    for lineno, line in enumerate(registry.lines, 1):
        for m in ANCHOR_RE.finditer(line):
            anchors.setdefault(m.group(1), lineno)
    for ident, (path, lineno) in sorted(registered.items()):
        if ident not in anchors:
            yield Finding(
                path, lineno, "register-anchor",
                "GAZE_REGISTER_PREFETCHER(%s) has no "
                "&gazePrefetcherRegistrar_%s anchor in %s; the "
                "static-lib linker will drop this scheme from any "
                "binary that does not name its symbols"
                % (ident, ident, REGISTRY_CC))
    for ident, lineno in sorted(anchors.items()):
        if ident not in registered:
            yield Finding(
                registry.relpath, lineno, "register-anchor",
                "anchor &gazePrefetcherRegistrar_%s has no matching "
                "GAZE_REGISTER_PREFETCHER(%s); remove the stale "
                "anchor" % (ident, ident))


# Sim files whose `stat.` counter mutations must be mirrored in the
# obs bind manifest; the includer-side macros in system.cc turn each
# manifest entry into a registry binding.
OBS_INSTRUMENTED_FILES = re.compile(r"sim/(cache|core|dram)\.cc$")
OBS_MANIFEST = "obs/stat_names.inc"
OBS_MUTATION_RE = re.compile(r"\bstat\.(\w+)")
OBS_BINDING_RE = re.compile(
    r"\bGAZE_OBS_(?:CACHE|CORE|DRAM)_STAT\((\w+)\)")


def rule_obs_direct_mutation(files):
    """Whole-tree rule: every counter field mutated through the
    `stat.` member in an instrumented sim file must be named in the
    obs bind manifest (obs/stat_names.inc). The manifest is what the
    registry binds, so an unlisted counter would exist in --engine
    stats yet silently never appear in any --obs-timeline column.
    (The reverse direction needs no rule: a stale manifest entry
    names a nonexistent field and fails to compile.)"""
    manifest = None
    for sf in files:
        if sf.relpath.endswith(OBS_MANIFEST):
            manifest = sf
            break
    mutated = {}  # field name -> first (file, line) mutating it
    for sf in files:
        if not OBS_INSTRUMENTED_FILES.search(sf.relpath):
            continue
        for lineno, line in enumerate(sf.lines, 1):
            if "++" not in line and "+=" not in line:
                continue
            for m in OBS_MUTATION_RE.finditer(line):
                mutated.setdefault(m.group(1), (sf.relpath, lineno))
    if not mutated:
        return
    if manifest is None:
        first = sorted(mutated.items())[0]
        yield Finding(first[1][0], first[1][1], "obs-direct-mutation",
                      "stat counters are mutated but %s was not "
                      "scanned; run on the whole src/ tree"
                      % OBS_MANIFEST)
        return
    bound = set()
    for line in manifest.lines:
        for m in OBS_BINDING_RE.finditer(line):
            bound.add(m.group(1))
    for name, (path, lineno) in sorted(mutated.items()):
        if name not in bound:
            yield Finding(
                path, lineno, "obs-direct-mutation",
                "counter 'stat.%s' is mutated here but not listed in "
                "%s; add a GAZE_OBS_*_STAT(%s) entry so the obs "
                "registry binds it" % (name, OBS_MANIFEST, name))


# Layering around the gaze_serve daemon: the simulator proper (and the
# harness it rests on) must stay linkable and testable without the
# service; serve/ sits on top. And serve/, being long-running host
# code, is the most tempting place to reach for <chrono> — which the
# wall-clock rule would only catch at the call site, after the include
# already normalized it. Ban the includes themselves.
SERVE_PROTECTED_DIRS = re.compile(r"(^|/)src/(sim|core|prefetchers|harness)/")
SERVE_DIR = re.compile(r"(^|/)src/serve/")
SERVE_INCLUDE_RE = re.compile(r"^\s*#\s*include\s*\"serve/")
SERVE_HOST_TIME_INCLUDE_RE = re.compile(
    r"^\s*#\s*include\s*[<\"](chrono|ctime|time\.h|sys/time\.h)[>\"]")


def rule_serve_isolation(sf):
    """Scans raw lines: grep_rule skips #include lines by design, and
    the stripped text blanks the quoted include path anyway."""
    if SERVE_PROTECTED_DIRS.search(sf.relpath):
        for lineno, line in enumerate(sf.raw_lines, 1):
            if SERVE_INCLUDE_RE.match(line):
                yield Finding(
                    sf.relpath, lineno, "serve-isolation",
                    "'%s' pulls the service layer into the simulator "
                    "core; serve/ may include sim/core/prefetchers/"
                    "harness, never the reverse" % line.strip())
    elif SERVE_DIR.search(sf.relpath):
        for lineno, line in enumerate(sf.raw_lines, 1):
            if SERVE_HOST_TIME_INCLUDE_RE.match(line):
                yield Finding(
                    sf.relpath, lineno, "serve-isolation",
                    "'%s' reads host time directly in the service "
                    "layer; route timing through harness/wallclock.hh "
                    "(WallTimer / hostNowUs) so daemon timing stays "
                    "shimmed and testable" % line.strip())


PER_FILE_RULES = [
    ("wall-clock", rule_wall_clock,
     "host clock/entropy outside harness/wallclock.hh"),
    ("unordered-in-output", rule_unordered_in_output,
     "unordered containers in report/export/cell-key/metrics code"),
    ("pointer-order", rule_pointer_order,
     "ordering or hashing raw pointer values"),
    ("raw-thread", rule_raw_thread,
     "std::thread outside thread_pool.hh / sim/threaded.*"),
    ("hot-container", rule_hot_container,
     "node-based/rehashing std container in sim/ or prefetchers/"),
    ("using-namespace-header", rule_using_namespace_header,
     "`using namespace` at header scope"),
    ("pragma-once", rule_pragma_once,
     "header missing `#pragma once`"),
    ("serve-isolation", rule_serve_isolation,
     "core including serve/, or serve/ reading host time directly"),
]

TREE_RULES = [
    ("register-anchor", rule_register_anchor,
     "GAZE_REGISTER_PREFETCHER without a registry.cc anchor"),
    ("obs-direct-mutation", rule_obs_direct_mutation,
     "stat counter mutated without an obs/stat_names.inc entry"),
]

ALL_RULE_IDS = ([rid for rid, _, _ in PER_FILE_RULES]
                + [rid for rid, _, _ in TREE_RULES])


def collect_files(root, paths):
    rels = []
    for path in paths:
        full = os.path.join(root, path)
        if os.path.isfile(full):
            rels.append(path)
            continue
        for dirpath, dirnames, filenames in os.walk(full):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".hh", ".h", ".cpp", ".inc")):
                    rels.append(os.path.relpath(
                        os.path.join(dirpath, name), root))
    return rels


def run_lint(root, paths):
    """Scan @p paths under @p root; returns the list of findings."""
    files = [SourceFile(root, rel) for rel in collect_files(root, paths)]
    findings = []

    def emit(sf, finding):
        state = sf.suppressed(finding.line, finding.rule)
        if state is True:
            return
        if state is None:
            finding = Finding(
                finding.path, finding.line, finding.rule,
                "allow(%s) without a justification — write "
                "'// gaze-lint: allow(%s): <why this is sound>'"
                % (finding.rule, finding.rule))
        findings.append(finding)

    by_path = {sf.relpath: sf for sf in files}
    for sf in files:
        for _, rule_fn, _ in PER_FILE_RULES:
            for finding in rule_fn(sf):
                emit(sf, finding)
    for _, rule_fn, _ in TREE_RULES:
        for finding in rule_fn(files):
            emit(by_path[finding.path], finding)

    # Unknown rule ids in allow() comments are findings too: a typo'd
    # suppression would otherwise silently suppress nothing.
    for sf in files:
        for lineno, rules in sorted(sf.suppressions.items()):
            for rid in rules:
                if rid not in ALL_RULE_IDS:
                    findings.append(Finding(
                        sf.relpath, lineno, "bad-suppression",
                        "allow(%s) names no known rule (known: %s)"
                        % (rid, ", ".join(ALL_RULE_IDS))))

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="gaze determinism/hygiene linter")
    parser.add_argument("--root", default=None,
                        help="repository root (default: two levels "
                        "above this script)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")
    parser.add_argument("paths", nargs="*",
                        help="files or directories relative to root "
                        "(default: src)")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rid, _, doc in PER_FILE_RULES + TREE_RULES:
            print("%-24s %s" % (rid, doc))
        return 0

    root = args.root or os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    paths = args.paths or ["src"]
    findings = run_lint(root, paths)
    for f in findings:
        print(f)
    if findings:
        print("gaze_lint: %d finding%s" % (
            len(findings), "" if len(findings) == 1 else "s"),
            file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
