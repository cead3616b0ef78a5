#!/usr/bin/env python3
"""bp_lint: repo-invariant linter for the BarrierPoint tree.

Every rule here encodes a bug class the repo has already paid for
once, so review never has to re-catch it:

  shift-variable    Variable-index raw shifts of a literal one
                    (`1u << x`, `1ull << x`): the UB class behind the
                    old 32-core ceiling (PRs 3/7). Shifting `1u` by a
                    runtime index is UB at >= 32 and silently truncates
                    wide masks. Sanctioned idiom: assert the bound,
                    then shift a braced-init-typed one
                    (`uint64_t{1} << n`), as support/core_set.h does.
                    Shifts by integer literals or by `k`-named
                    constexpr constants are allowed.

  raw-parse         `strtoull` / `strtol` / `atoi` / `strtod` /
                    `atof` family outside src/support/: the
                    permissive-parsing class ("8x" parses as 8, "-1"
                    as 2^64-1; "nan" and "1e400" read as numbers no
                    range check can order). User text is
                    parsed by the strict full-consumption helpers
                    parseUint / parseReal / parseByteSize in
                    src/support/ only.

  mutex-guard       A mutex member whose file never states what it
                    guards (no `BP_GUARDED_BY(member)` sibling): with
                    clang `-Wthread-safety` in CI, an unannotated
                    mutex is a mutex the analysis cannot check.

  header-guard      A header with neither `#pragma once` nor an
                    include-guard `#ifndef`/`#define` pair.

  artifact-version  Code edits inside the bodies of the structs
                    src/core/artifacts.h serializes (WorkloadSpec and
                    the four *Artifact structs) without a
                    kArtifactVersion bump (src/support/serialize.h):
                    serialized-struct drift must invalidate on-disk
                    artifacts, never reinterpret them. Other
                    declarations in the file change no format. Checked
                    against `git diff` when available; silent
                    otherwise.

  one-codec         The FNV-1a offset basis or prime anywhere but
                    src/support/serialize.h: artifacts and `.bptrace`
                    traces share its one little-endian codec and one
                    checksum, so a second copy of either is a format
                    that can drift.

  one-pool          std::thread, jthread, async, future, promise or
                    packaged_task outside src/support/thread_pool.* and
                    tests/ (which drive the pool from outside threads
                    on purpose): the pool's parallelFor is the one
                    execution model, and a second one needs its own
                    proof of ordering, failure and joins.

Usage:
  bp_lint.py [--root DIR] [--diff-base REF] [--list-rules]
  bp_lint.py --self-test

Exit codes: 0 clean, 1 findings, 2 internal error / bad invocation.
`--self-test` seeds one violation fixture per rule and asserts each
rule fires on it (and stays quiet on a clean fixture).
"""

import argparse
import os
import re
import subprocess
import sys
import tempfile

SCAN_DIRS = ("src", "tools", "tests", "bench", "examples")
SOURCE_EXTENSIONS = (".h", ".hpp", ".cpp", ".cc")

# Files exempt per rule (paths relative to the repo root).
SHIFT_EXEMPT_FILES = {"src/support/core_set.h"}
PARSE_ALLOWED_DIR = "src/support"
MUTEX_EXEMPT_FILES = {"src/support/mutex.h"}

ARTIFACT_STRUCT_FILE = "src/core/artifacts.h"
ARTIFACT_VERSION_FILE = "src/support/serialize.h"
ARTIFACT_VERSION_TOKEN = "kArtifactVersion"
# The structs whose fields saveArtifact() writes.
SERIALIZED_STRUCTS = ("WorkloadSpec", "ProfileArtifact", "AnalysisArtifact",
                      "SnapshotArtifact", "RunResultArtifact")

CODEC_FILE = "src/support/serialize.h"

POOL_EXEMPT_PREFIXES = ("src/support/thread_pool.", "tests/")


class Finding:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self):
        where = f"{self.path}:{self.line}" if self.line else self.path
        return f"{where}: [{self.rule}] {self.message}"


# The digits before a `'` that makes it a C++14 digit separator
# (`0x5441'4350ull`): a number token, not an identifier or the prefix
# of a character literal (`u8'a'`).
NUMBER_HEAD_RE = re.compile(r"(?<![\w'])\d[\w']*\Z")


def is_digit_separator(text, i):
    return (i + 1 < len(text) and text[i + 1].isalnum() and
            NUMBER_HEAD_RE.search(text, max(0, i - 64), i) is not None)


def blank(text):
    return "".join(ch if ch == "\n" else " " for ch in text)


def strip_comments_and_strings(text):
    """Blank out comments and string/char literals, preserving line
    structure, so rules never fire on prose or quoted examples."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "'" and is_digit_separator(text, i):
            out.append(c)
            i += 1
        elif c == "/" and nxt == "/":
            end = text.find("\n", i)
            if end == -1:
                end = n
            out.append(" " * (end - i))
            i = end
        elif c == "/" and nxt == "*":
            end = text.find("*/", i + 2)
            end = n if end == -1 else end + 2
            out.append(blank(text[i:end]))
            i = end
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(c + blank(text[i + 1:j - 1]) +
                       (c if j - i > 1 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


# --------------------------------------------------------------- rules

SHIFT_RE = re.compile(r"\b1(?:[uU][lL]{0,2}|[lL]{1,2}[uU]?|[uU])\s*<<")
IDENT_RE = re.compile(r"[A-Za-z_]\w*")
# Identifiers allowed in a shift index: constexpr constants by naming
# convention plus compile-time operators.
CONSTEXPR_IDENT_RE = re.compile(r"k[A-Z]\w*$")
SHIFT_IDENT_WHITELIST = {"sizeof", "alignof"}


def shift_rhs(code, start):
    """The shift-index expression: text after `<<` until the end of
    the enclosing expression (`;`, `,`, or an unmatched `)`)."""
    depth = 0
    j = start
    while j < len(code):
        c = code[j]
        if c == "(":
            depth += 1
        elif c == ")":
            if depth == 0:
                break
            depth -= 1
        elif c in ";," and depth == 0:
            break
        elif c == "\n" and depth == 0 and code[start:j].strip():
            break
        j += 1
    return code[start:j]


def check_shifts(rel_path, code):
    if rel_path in SHIFT_EXEMPT_FILES:
        return []
    findings = []
    for match in SHIFT_RE.finditer(code):
        rhs = shift_rhs(code, match.end())
        idents = IDENT_RE.findall(rhs)
        if all(ident in SHIFT_IDENT_WHITELIST or
               CONSTEXPR_IDENT_RE.match(ident) for ident in idents):
            continue  # literal or constexpr-named index: well defined
        findings.append(Finding(
            "shift-variable", rel_path, line_of(code, match.start()),
            "variable-index shift of a literal one is the repo's "
            "known shift-UB class; assert the bound and use "
            "`uint64_t{1} << n` (see support/core_set.h), got "
            f"`{code[match.start():match.end()]} {rhs.strip()}`"))
    return findings


PARSE_RE = re.compile(
    r"\b(?:std\s*::\s*)?(strtoull|strtoul|strtol|strtoll|strtoumax|"
    r"strtoimax|atoi|atol|atoll|strtod|strtof|strtold|atof)\s*\(")


def check_raw_parse(rel_path, code):
    if rel_path.startswith(PARSE_ALLOWED_DIR + "/"):
        return []
    findings = []
    for match in PARSE_RE.finditer(code):
        findings.append(Finding(
            "raw-parse", rel_path, line_of(code, match.start()),
            f"raw {match.group(1)}() accepts signs, whitespace and "
            "trailing junk; use parseUint()/parseReal()/parseByteSize() "
            "from src/support/ instead"))
    return findings


MUTEX_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:std\s*::\s*mutex|Mutex)\s+(\w+)\s*;",
    re.MULTILINE)


def check_mutex_guards(rel_path, code):
    if rel_path in MUTEX_EXEMPT_FILES:
        return []
    findings = []
    for match in MUTEX_MEMBER_RE.finditer(code):
        name = match.group(1)
        if re.search(r"BP_GUARDED_BY\(\s*" + re.escape(name) + r"\s*\)",
                     code):
            continue
        findings.append(Finding(
            "mutex-guard", rel_path, line_of(code, match.start()),
            f"mutex member '{name}' has no BP_GUARDED_BY({name}) "
            "sibling: state what it guards so -Wthread-safety can "
            "check it (support/thread_annotations.h)"))
    return findings


def check_header_guard(rel_path, raw_text, code):
    if not rel_path.endswith((".h", ".hpp")):
        return []
    if "#pragma once" in raw_text:
        return []
    ifndef = re.search(r"#\s*ifndef\s+(\w+)", code)
    if ifndef and re.search(r"#\s*define\s+" + re.escape(ifndef.group(1)),
                            code):
        return []
    return [Finding(
        "header-guard", rel_path, 1,
        "header has neither `#pragma once` nor an #ifndef/#define "
        "include guard")]


# The FNV-1a offset basis and prime, digit separators removed first.
FNV_CONSTANT_RE = re.compile(
    r"\b0x0*(?:cbf29ce484222325|100000001b3)(?![0-9a-f])", re.IGNORECASE)


def check_one_codec(rel_path, code):
    if rel_path == CODEC_FILE:
        return []
    code = code.replace("'", "")
    return [Finding(
        "one-codec", rel_path, line_of(code, match.start()),
        "FNV-1a constant outside the one codec: checksum through "
        f"fnv1aHash() from {CODEC_FILE}, which every file format "
        "shares")
        for match in FNV_CONSTANT_RE.finditer(code)]


THREADING_RE = re.compile(
    r"\bstd\s*::\s*(thread|jthread|async|future|promise|packaged_task)\b")


def check_one_pool(rel_path, code):
    if rel_path.startswith(POOL_EXEMPT_PREFIXES):
        return []
    return [Finding(
        "one-pool", rel_path, line_of(code, match.start()),
        f"std::{match.group(1)} outside the thread pool: run the work as "
        "parallelFor() indices on the ExecutionContext's pool "
        "(src/support/thread_pool.h)")
        for match in THREADING_RE.finditer(code)]


HUNK_RE = re.compile(r"@@ [^@]* @@ ?(.*)")
TYPE_HEAD_RE = re.compile(r"(?:struct|class)\s+(\w+)")


def opens_serialized_struct(line):
    head = TYPE_HEAD_RE.match(line)
    return bool(head) and head.group(1) in SERIALIZED_STRUCTS


def diff_changed_lines(diff_text, path):
    """Yield (code, in_serialized_struct) for each added/removed code
    line of @p path in @p diff_text; comment and blank churn is
    skipped. Decided from the diff text alone: a hunk starts inside a
    serialized struct when git names the struct as the hunk's context,
    a `struct`/`class` head line opens one, and any other line at
    column 0 except `{` (a top-level declaration, comment or `};`)
    closes it — struct members are indented."""
    current = None
    inside = False
    for line in diff_text.splitlines():
        if line.startswith("+++ "):
            current = line[6:] if line.startswith("+++ b/") else None
            continue
        if line.startswith("--- ") or current != path:
            continue
        hunk = HUNK_RE.match(line)
        if hunk:
            inside = opens_serialized_struct(hunk.group(1))
            continue
        if line[:1] not in (" ", "+", "-"):
            continue  # e.g. "\ No newline at end of file"
        text = line[1:]
        if text[:1] not in ("", " ", "\t", "{"):
            inside = opens_serialized_struct(text)
        body = text.strip()
        if line[0] == " " or not body or \
                body.startswith(("//", "/*", "*", "*/")):
            continue  # context, or comment/blank churn
        yield body, inside


def collect_git_diff(root, diff_base):
    """Unified diff of everything this checkout changes: working tree
    and index vs HEAD, plus HEAD vs @p diff_base when given. Returns
    None when git is unavailable (rule goes silent, as specified)."""
    chunks = []
    commands = [["git", "diff", "HEAD"], ["git", "diff", "--cached"]]
    if diff_base:
        commands.append(["git", "diff", diff_base + "...HEAD"])
    for command in commands:
        try:
            result = subprocess.run(
                command, cwd=root, capture_output=True, text=True,
                timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            return None
        if result.returncode != 0:
            return None
        chunks.append(result.stdout)
    return "\n".join(chunks)


def check_artifact_version(diff_text):
    if diff_text is None:
        return []
    if not any(inside for _, inside in
               diff_changed_lines(diff_text, ARTIFACT_STRUCT_FILE)):
        return []
    if any(ARTIFACT_VERSION_TOKEN in body for body, _ in
           diff_changed_lines(diff_text, ARTIFACT_VERSION_FILE)):
        return []
    return [Finding(
        "artifact-version", ARTIFACT_STRUCT_FILE, 0,
        "serialized-struct change without a kArtifactVersion bump in "
        f"{ARTIFACT_VERSION_FILE}: on-disk artifacts written by older "
        "builds would be reinterpreted instead of invalidated")]


# ---------------------------------------------------------------- driver

def iter_source_files(root):
    for scan_dir in SCAN_DIRS:
        base = os.path.join(root, scan_dir)
        if not os.path.isdir(base):
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames
                                 if d not in ("build", "__pycache__"))
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTENSIONS):
                    yield os.path.join(dirpath, name)


def lint_tree(root, diff_base=None):
    findings = []
    for path in iter_source_files(root):
        rel_path = os.path.relpath(path, root).replace(os.sep, "/")
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                raw_text = f.read()
        except OSError as err:
            findings.append(Finding("io", rel_path, 0, str(err)))
            continue
        code = strip_comments_and_strings(raw_text)
        findings.extend(check_shifts(rel_path, code))
        findings.extend(check_raw_parse(rel_path, code))
        findings.extend(check_mutex_guards(rel_path, code))
        findings.extend(check_header_guard(rel_path, raw_text, code))
        findings.extend(check_one_codec(rel_path, code))
        findings.extend(check_one_pool(rel_path, code))
    findings.extend(
        check_artifact_version(collect_git_diff(root, diff_base)))
    return findings


# -------------------------------------------------------------- self-test

CLEAN_FIXTURE = """\
#ifndef BP_FIXTURE_CLEAN_H
#define BP_FIXTURE_CLEAN_H
#include "src/support/thread_annotations.h"
namespace bp {
inline constexpr unsigned kFixtureBits = 12;
struct Clean
{
    // Prose about strtoull() and `1u << x` must never fire a rule.
    uint64_t a = 1u << 5;                  // literal index: fine
    uint64_t b = uint64_t{1} << kFixtureBits;  // sanctioned idiom
    Mutex mutex_;
    int guarded_ BP_GUARDED_BY(mutex_) = 0;
};
const char *example = "atoi(argv[1]) inside a string literal";
} // namespace bp
#endif // BP_FIXTURE_CLEAN_H
"""

POOL_FIXTURE = """\
#pragma once
#include <future>
struct Slot { std::promise<void> ready; };
"""

VIOLATION_FIXTURES = (
    # The digit-separated constant must not hide the rest of the file.
    ("shift-variable", """\
#pragma once
constexpr unsigned long long kFixtureMagic = 0x5441'4350ull;
unsigned long mask(unsigned n) { return 1ull << n; }
"""),
    ("one-codec", """\
#pragma once
constexpr unsigned long long kFixtureBasis = 0xcbf29ce484222325ull;
"""),
    ("raw-parse", """\
#pragma once
#include <cstdlib>
long parse(const char *s) { return std::strtol(s, nullptr, 10); }
"""),
    ("raw-parse", """\
#pragma once
#include <cstdlib>
double parse(const char *s) { return std::strtod(s, nullptr); }
"""),
    ("mutex-guard", """\
#pragma once
#include <mutex>
struct Unguarded
{
    std::mutex mutex_;
    int state_ = 0;
};
"""),
    ("header-guard", """\
struct NoGuard {};
"""),
    ("one-pool", POOL_FIXTURE),
)

ARTIFACT_VIOLATION_DIFF = """\
--- a/src/core/artifacts.h
+++ b/src/core/artifacts.h
@@ -10,6 +10,7 @@ struct ProfileArtifact
     std::string name;
+    uint64_t newly_serialized_field = 0;
"""

ARTIFACT_CLEAN_DIFFS = (
    # Same edit plus the version bump: no finding.
    ARTIFACT_VIOLATION_DIFF + """\
--- a/src/support/serialize.h
+++ b/src/support/serialize.h
@@ -30,1 +30,1 @@
-constexpr uint32_t kArtifactVersion = 4;
+constexpr uint32_t kArtifactVersion = 5;
""",
    # Comment-only churn in artifacts.h: no bump required.
    """\
--- a/src/core/artifacts.h
+++ b/src/core/artifacts.h
@@ -5,3 +5,3 @@
-// old wording
+// new wording
""",
    # A new free function after a serialized struct's closing brace.
    """\
--- a/src/core/artifacts.h
+++ b/src/core/artifacts.h
@@ -148,6 +148,8 @@ struct RunResultArtifact
     RunResult result;
 };
 
+uint64_t artifactPayloadDigest(const std::string &path);
+
 void saveArtifact(const std::string &path, const ProfileArtifact &artifact);
""",
    # A new member of a class that is not written into artifacts.
    """\
--- a/src/core/artifacts.h
+++ b/src/core/artifacts.h
@@ -212,6 +212,7 @@ class ScratchWriter
   private:
     std::FILE *file_ = nullptr;
+    std::vector<uint8_t> encoded_;
     std::string path_;
""",
)


def run_self_test():
    failures = []

    def expect(condition, what):
        print(("ok   " if condition else "FAIL ") + what)
        if not condition:
            failures.append(what)

    with tempfile.TemporaryDirectory(prefix="bp_lint_selftest_") as tmp:
        # Violation fixtures go under src/core/ — NOT src/support/,
        # where the raw-parse rule deliberately allows the parsing
        # helpers themselves.
        src_core = os.path.join(tmp, "src", "core")
        os.makedirs(src_core)
        clean_path = os.path.join(src_core, "clean_fixture.h")
        with open(clean_path, "w", encoding="utf-8") as f:
            f.write(CLEAN_FIXTURE)
        expect(not lint_tree(tmp),
               "clean fixture produces no findings")

        for i, (rule, fixture) in enumerate(VIOLATION_FIXTURES):
            path = os.path.join(src_core, f"{rule}_{i}_fixture.h")
            with open(path, "w", encoding="utf-8") as f:
                f.write(fixture)
            found = [f for f in lint_tree(tmp) if f.rule == rule]
            expect(bool(found), f"rule '{rule}' fires on its seeded "
                                f"violation fixture {i}")
            os.remove(path)

        os.makedirs(os.path.join(tmp, "tests"))
        with open(os.path.join(tmp, "tests", "pool_fixture.h"), "w",
                  encoding="utf-8") as f:
            f.write(POOL_FIXTURE)
        expect(not lint_tree(tmp), "rule 'one-pool' exempts tests/")

    violated = check_artifact_version(ARTIFACT_VIOLATION_DIFF)
    expect(bool(violated),
           "rule 'artifact-version' fires on a serialized-struct diff "
           "without a version bump")
    for i, clean_diff in enumerate(ARTIFACT_CLEAN_DIFFS):
        expect(not check_artifact_version(clean_diff),
               f"rule 'artifact-version' stays quiet on clean diff {i}")
    expect(not check_artifact_version(None),
           "rule 'artifact-version' is silent without git")

    if failures:
        print(f"self-test: {len(failures)} failure(s)", file=sys.stderr)
        return 1
    print("self-test: all rules fire on their seeded violations")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        prog="bp_lint.py",
        description="repo-invariant linter for the BarrierPoint tree")
    parser.add_argument(
        "--root",
        default=os.path.normpath(
            os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "..", "..")),
        help="repo root to scan (default: two levels above this file)")
    parser.add_argument(
        "--diff-base", default=None, metavar="REF",
        help="also check committed changes since REF for the "
             "artifact-version rule (e.g. origin/main)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify every rule fires on a seeded "
                             "violation, then exit")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule names and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        print("shift-variable raw-parse mutex-guard header-guard "
              "artifact-version one-codec one-pool")
        return 0
    if args.self_test:
        return run_self_test()

    findings = lint_tree(args.root, args.diff_base)
    for finding in findings:
        print(finding)
    if findings:
        print(f"bp_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("bp_lint: clean")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except KeyboardInterrupt:
        sys.exit(2)
