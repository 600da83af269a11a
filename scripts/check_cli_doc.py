#!/usr/bin/env python3
"""Keeps docs/OPERATIONS.md's serve flag table in lockstep with the CLI.

The "Flag reference (serve)" table in docs/OPERATIONS.md is what an
operator reads to start a server, so CI treats it as a contract with
tools/slimfast_cli.cc, whose kFlags table is the one declaration of
every flag (`slimfast_cli --help` is rendered from it):
  - every row's flag and metavar (`--slo-queue F`) must match a kFlags
    row;
  - the rows must be exactly the flags whose kFlags scope includes
    serve, so the table names no flag serve rejects and misses none it
    reads.

Extraction is deliberately dumb and format-anchored:
  - doc side: `| `--flag META` | ...` rows under the "Flag reference
    (serve)" heading, up to the next heading;
  - code side: the `{"--flag", "META", scope, ...}` rows of kFlags, with
    the `constexpr unsigned` scope masks they name.
If an anchor stops matching anything, that is itself an error — the
checker refuses to pass vacuously.

Usage: check_cli_doc.py [--doc docs/OPERATIONS.md]
                        [--source tools/slimfast_cli.cc]
"""

import argparse
import re
import sys

DOC_HEADING = "Flag reference (serve)"
DOC_ROW = re.compile(r"^\|\s*`(--[a-z0-9-]+)((?: [A-Z]+)*)`\s*\|")
FLAG_ROW = re.compile(r'\{"(--[a-z0-9-]+)",\s*"([A-Z ]*)",\s*([^,]+),')
MASK_DEF = re.compile(r"^constexpr unsigned (k\w+) = ([^;]+);", re.M)


def fail(message):
    print("check_cli_doc: FAIL: %s" % message)
    sys.exit(1)


def doc_rows(path):
    rows = []
    in_table = False
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.startswith("#"):
                in_table = DOC_HEADING in line
                continue
            match = DOC_ROW.match(line.strip()) if in_table else None
            if match:
                rows.append((match.group(1), match.group(2).strip()))
    return rows


def flag_rows(source):
    """(flag, metavar, applies to serve) for every kFlags row."""
    masks = {"kFuse": {"kFuse"}, "kReplay": {"kReplay"},
             "kServe": {"kServe"}, "kLoadgen": {"kLoadgen"}}

    def resolve(expr):
        bits = set()
        for token in expr.split("|"):
            bits |= masks[token.strip()]
        return bits

    for name, expr in MASK_DEF.findall(source):
        masks[name] = resolve(expr)
    start = source.find("const Flag kFlags[]")
    table = source[start:source.find("\n};", start)] if start >= 0 else ""
    return [(flag, meta, "kServe" in resolve(scope))
            for flag, meta, scope in FLAG_ROW.findall(table)]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--doc", default="docs/OPERATIONS.md")
    parser.add_argument("--source", default="tools/slimfast_cli.cc")
    args = parser.parse_args()

    rows = doc_rows(args.doc)
    with open(args.source, encoding="utf-8") as f:
        flags = flag_rows(f.read())

    if not rows:
        fail("no flag rows found under '%s' in %s (anchor pattern "
             "'| `--flag META` |' matched nothing)" % (DOC_HEADING, args.doc))
    if not flags:
        fail("no kFlags rows found in %s (anchor pattern "
             "'{\"--flag\", \"META\", scope,' matched nothing)"
             % args.source)

    errors = []
    metavars = {flag: meta for flag, meta, _ in flags}
    documented = [flag for flag, _ in rows]
    for flag in sorted({f for f in documented if documented.count(f) > 1}):
        errors.append("duplicate row for %s" % flag)
    for flag, meta in rows:
        if flag not in metavars:
            errors.append("row `%s` names a flag kFlags does not declare"
                          % " ".join(filter(None, [flag, meta])))
        elif metavars[flag] != meta:
            errors.append("row `%s %s` disagrees with the usage text's "
                          "`%s %s`" % (flag, meta, flag, metavars[flag]))
    for flag, _, serve in flags:
        if serve and flag not in documented:
            errors.append("%s applies to serve (kFlags) but has no row"
                          % flag)
        if not serve and flag in documented:
            errors.append("row %s names a flag serve rejects (kFlags)"
                          % flag)

    if errors:
        fail("%s drifted from %s:\n  %s"
             % (args.doc, args.source, "\n  ".join(errors)))
    print("check_cli_doc: OK: %d serve flags documented, matching kFlags"
          % len(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
