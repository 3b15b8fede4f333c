#!/usr/bin/env python3
"""Docs consistency checks, run by the CI `docs` job.

1. Intra-repo markdown links: every relative link target in the repo's
   markdown files (README.md, docs/*.md, ROADMAP.md, ...) must exist.
   External (http/https/mailto) links and pure #anchors are skipped;
   a `path#anchor` link is checked for `path` only.
2. bgpreader pool flags: every `--pool-*` flag mentioned in the docs
   must appear in the tool's usage text (tools/bgpreader.cpp), so the
   operator guide can never drift ahead of (or behind) the CLI.
3. Built-binary help drift: for each CLI tool (bgpreader = argv[1] /
   $BGPREADER / build*/bgpreader, bgpsim = argv[2] / $BGPSIM /
   build*/bgpsim, bgpfanout = argv[3] / $BGPFANOUT /
   build*/bgpfanout), run `<tool> --help` and diff its output against the
   usage raw-string in the tool's source. Check 2 reads the *source*,
   so a stale binary (or a build that somehow diverges from the tree)
   would otherwise pass silently; each leg is skipped with a notice
   when no binary exists (e.g. docs-only CI).
4. Option tables: the `BgpStream::Options`, `StreamPool::Options` and
   `TenantOptions` tables in docs/API.md list exactly the fields those
   structs declare in src/core/stream.hpp and src/pool/stream_pool.hpp
   — a row for a field that does not exist fails, and so does a field
   without a row.

Exit code 0 = clean; 1 = problems (each printed as its own line).
"""

import difflib
import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

MARKDOWN_FILES = sorted(
    p
    for p in (
        list(REPO.glob("*.md")) + list((REPO / "docs").glob("*.md"))
    )
    if ".claude" not in p.parts
)

# [text](target) — excluding images' src handled identically; ignore
# targets with a scheme and bare anchors.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
POOL_FLAG_RE = re.compile(r"--pool-[a-z][a-z-]*")


def check_links() -> list[str]:
    problems = []
    for md in MARKDOWN_FILES:
        for m in LINK_RE.finditer(md.read_text(encoding="utf-8")):
            target = m.group(1)
            if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # URL scheme
                continue
            if target.startswith("#"):  # same-file anchor
                continue
            path = target.split("#", 1)[0]
            resolved = (md.parent / path).resolve()
            if not resolved.exists():
                problems.append(
                    f"{md.relative_to(REPO)}: broken link -> {target}"
                )
    return problems


def check_pool_flags() -> list[str]:
    # Only the Usage() help text counts — a flag merely parsed (or
    # mentioned in an error message) but missing from --help must not
    # whitelist doc references.
    source = (REPO / "tools" / "bgpreader.cpp").read_text(encoding="utf-8")
    m = re.search(r'R"\((.*?)\)"', source, re.DOTALL)
    if not m:
        return ["tools/bgpreader.cpp: usage raw-string literal not found"]
    known = set(POOL_FLAG_RE.findall(m.group(1)))
    problems = []
    for md in MARKDOWN_FILES:
        # ROADMAP/CHANGES may legitimately propose flags that do not
        # exist yet; the user-facing docs may not.
        if md.name in ("ROADMAP.md", "CHANGES.md", "ISSUE.md"):
            continue
        for flag in sorted(set(POOL_FLAG_RE.findall(md.read_text()))):
            if flag not in known:
                problems.append(
                    f"{md.relative_to(REPO)}: flag {flag} not in "
                    "bgpreader usage text"
                )
    return problems


# (tool name, source file, argv position, env var). Each tool's Usage()
# must be a single raw-string written to stderr.
TOOLS = [
    ("bgpreader", "tools/bgpreader.cpp", 1, "BGPREADER"),
    ("bgpsim", "tools/bgpsim.cpp", 2, "BGPSIM"),
    ("bgpfanout", "tools/bgpfanout.cpp", 3, "BGPFANOUT"),
    ("bgplive", "tools/bgplive.cpp", 4, "BGPLIVE"),
]


def find_tool(name: str, argv_pos: int, env_var: str) -> Path | None:
    if len(sys.argv) > argv_pos:
        return Path(sys.argv[argv_pos])
    env = os.environ.get(env_var)
    if env:
        return Path(env)
    candidates = sorted(REPO.glob(f"build*/{name}"))
    return candidates[0] if candidates else None


def check_help_text() -> list[str]:
    problems = []
    for name, source_rel, argv_pos, env_var in TOOLS:
        binary = find_tool(name, argv_pos, env_var)
        if binary is None or not binary.exists():
            print(f"check_help_text: no built {name} found, skipping "
                  f"(pass a path, set ${env_var}, or build into build*/)")
            continue
        source = (REPO / source_rel).read_text(encoding="utf-8")
        m = re.search(r'R"\((.*?)\)"', source, re.DOTALL)
        if not m:
            problems.append(f"{source_rel}: usage raw-string literal not found")
            continue
        expected = m.group(1)
        try:
            proc = subprocess.run(
                [str(binary), "--help"], capture_output=True, text=True,
                timeout=60,
            )
        except OSError as e:
            problems.append(f"{binary}: failed to run --help: {e}")
            continue
        if proc.returncode != 0:
            problems.append(f"{binary}: --help exited {proc.returncode}")
            continue
        got = proc.stderr  # Usage() writes to stderr
        if got == expected:
            continue
        diff = difflib.unified_diff(
            expected.splitlines(), got.splitlines(),
            fromfile=f"{source_rel} (usage raw-string)",
            tofile=f"{binary} --help", lineterm="",
        )
        problems.append(f"{binary}: --help output drifted from the source "
                        "usage text (stale build?)")
        problems.extend(diff)
    return problems


# (struct, header declaring it, regex anchoring its table in API.md).
# The table is the first markdown table after the anchor.
OPTION_TABLES = [
    ("BgpStream::Options", "src/core/stream.hpp",
     r"^## `BgpStream::Options`$"),
    ("StreamPool::Options", "src/pool/stream_pool.hpp",
     r"^`StreamPool::Options`:$"),
    ("TenantOptions", "src/pool/stream_pool.hpp", r"^`TenantOptions`:$"),
    ("RoutingTablesOptions", "src/corsaro/rt.hpp",
     r"^`RoutingTablesOptions`:$"),
]


def struct_fields(header: str, struct: str) -> list[str] | None:
    """Data members of `struct <name> { ... };` in a header, in order."""
    name = struct.split("::")[-1]
    m = re.search(rf"\bstruct {name} \{{", header)
    if not m:
        return None
    depth, i = 1, m.end()
    while depth and i < len(header):
        depth += {"{": 1, "}": -1}.get(header[i], 0)
        i += 1
    body = re.sub(r"//[^\n]*", "", header[m.end():i - 1])
    fields = []
    for stmt in body.split(";"):
        # Drop a default member initializer (`= v` or `{v}`).
        decl = re.sub(r"\{[^{}]*\}$", "", stmt.split("=", 1)[0].strip())
        if decl and not decl.endswith(")"):  # member functions end in ')'
            fields.append(re.findall(r"\w+", decl)[-1])
    return fields


def table_fields(doc: str, anchor: str) -> list[str] | None:
    """First-column `names` of the first table after `anchor`."""
    m = re.search(anchor, doc, re.MULTILINE)
    if not m:
        return None
    rows = []
    for line in doc[m.end():].splitlines():
        if line.startswith("|"):
            rows.append(line)
        elif rows:
            break
    fields = []
    for row in rows[2:]:  # skip the header and separator rows
        cell = re.match(r"\|\s*`([^`]+)`", row)
        if cell:
            fields.append(cell.group(1))
    return fields


def check_option_tables() -> list[str]:
    doc = (REPO / "docs" / "API.md").read_text(encoding="utf-8")
    problems = []
    for struct, header_rel, anchor in OPTION_TABLES:
        header = (REPO / header_rel).read_text(encoding="utf-8")
        declared = struct_fields(header, struct)
        if declared is None:
            problems.append(f"{header_rel}: struct {struct} not found")
            continue
        rows = table_fields(doc, anchor)
        if rows is None:
            problems.append(f"docs/API.md: no {struct} table")
            continue
        for field in rows:
            if field not in declared:
                problems.append(
                    f"docs/API.md: {struct} table has a row for `{field}`, "
                    f"which {header_rel} does not declare"
                )
        for field in declared:
            if field not in rows:
                problems.append(
                    f"docs/API.md: {struct} field `{field}` "
                    f"({header_rel}) has no row in its table"
                )
    return problems


def main() -> int:
    problems = (check_links() + check_pool_flags() + check_help_text() +
                check_option_tables())
    for p in problems:
        print(p)
    if problems:
        print(f"{len(problems)} docs problem(s)")
        return 1
    print(
        f"docs OK: {len(MARKDOWN_FILES)} markdown files, links, "
        "bgpreader --pool-* flags, tool --help text and API.md option "
        "tables consistent"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
