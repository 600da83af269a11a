#!/usr/bin/env python3
"""Keeps docs/OPERATIONS.md's serve flag table in lockstep with the CLI.

The "Flag reference (serve)" table in docs/OPERATIONS.md is what an
operator reads to start a server, so CI treats it as a contract with
tools/slimfast_cli.cc:
  - every row's flag and metavar (`--slo-queue F`) must match the
    options list of the usage text PrintUsage prints;
  - every flag in the usage's `slimfast_cli serve` synopsis must have a
    row, with the synopsis metavar;
  - the rows must be exactly the flags whose kFlags scope includes
    serve, so the table names no flag serve rejects and misses none it
    reads.

Extraction is deliberately dumb and format-anchored:
  - doc side: `| `--flag META` | ...` rows under the "Flag reference
    (serve)" heading, up to the next heading;
  - code side: the string literals of PrintUsage, concatenated, and the
    `{"--flag", scope, ...}` rows of kFlags with the `constexpr unsigned`
    scope masks they name.
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
STRING_LITERAL = re.compile(r'"((?:[^"\\]|\\.)*)"')
# "  --flag META   description" lines of the usage's options list.
USAGE_OPTION = re.compile(r"^  (--[a-z0-9-]+)((?: [A-Z]+)*)(?:,|  |$)")
SYNOPSIS_FLAG = re.compile(r"(--[a-z0-9-]+)((?: [A-Z]+)*)")
FLAG_ROW = re.compile(r'^\s*\{"(--[a-z0-9-]+)",\s*([^,]+),')
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


def usage_text(source):
    start = source.find("void PrintUsage(")
    if start < 0:
        return ""
    end = source.find("\n}\n", start)
    literals = STRING_LITERAL.findall(source[start:end])
    return ("".join(literals).replace("\\n", "\n").replace('\\"', '"')
            .replace("%%", "%"))


def serve_scoped_flags(source):
    """Flags whose kFlags scope mask includes kServe."""
    masks = {"kFuse": {"kFuse"}, "kReplay": {"kReplay"},
             "kServe": {"kServe"}, "kLoadgen": {"kLoadgen"}}

    def resolve(expr):
        bits = set()
        for token in expr.split("|"):
            bits |= masks[token.strip()]
        return bits

    for name, expr in MASK_DEF.findall(source):
        masks[name] = resolve(expr)
    flags = []
    for line in source.splitlines():
        match = FLAG_ROW.match(line)
        if match:
            flags.append((match.group(1), "kServe" in resolve(match.group(2))))
    return flags


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--doc", default="docs/OPERATIONS.md")
    parser.add_argument("--source", default="tools/slimfast_cli.cc")
    args = parser.parse_args()

    rows = doc_rows(args.doc)
    with open(args.source, encoding="utf-8") as f:
        source = f.read()
    usage = usage_text(source)
    options = {}
    for line in usage.splitlines():
        match = USAGE_OPTION.match(line)
        if match:
            options[match.group(1)] = match.group(2).strip()
    start = usage.find("slimfast_cli serve")
    synopsis = "" if start < 0 else usage[start:]
    synopsis = synopsis[:synopsis.find("slimfast_cli", 1)]
    serve_flags = {flag: meta.strip()
                   for flag, meta in SYNOPSIS_FLAG.findall(synopsis)}
    scoped = serve_scoped_flags(source)

    if not rows:
        fail("no flag rows found under '%s' in %s (anchor pattern "
             "'| `--flag META` |' matched nothing)" % (DOC_HEADING, args.doc))
    if not options:
        fail("no '  --flag META' option lines found in PrintUsage of %s"
             % args.source)
    if not serve_flags:
        fail("no 'slimfast_cli serve' synopsis found in PrintUsage of %s"
             % args.source)

    errors = []
    if not scoped:
        errors.append("no kFlags rows found in %s" % args.source)
    documented = [flag for flag, _ in rows]
    for flag in sorted({f for f in documented if documented.count(f) > 1}):
        errors.append("duplicate row for %s" % flag)
    for flag, meta in rows:
        if flag not in options:
            errors.append("row `%s` names a flag the usage text does not "
                          "list" % " ".join(filter(None, [flag, meta])))
        elif options[flag] != meta:
            errors.append("row `%s %s` disagrees with the usage text's "
                          "`%s %s`" % (flag, meta, flag, options[flag]))
    for flag, meta in sorted(serve_flags.items()):
        if flag not in documented:
            errors.append("serve synopsis flag %s has no row" % flag)
        if options.get(flag, meta) != meta:
            errors.append("serve synopsis says `%s %s`, the options list "
                          "`%s %s`" % (flag, meta, flag, options[flag]))
    for flag, serve in scoped:
        if serve and flag not in documented:
            errors.append("%s applies to serve (kFlags) but has no row"
                          % flag)
        if not serve and flag in documented:
            errors.append("row %s names a flag serve rejects (kFlags)"
                          % flag)

    if errors:
        fail("%s drifted from %s:\n  %s"
             % (args.doc, args.source, "\n  ".join(errors)))
    print("check_cli_doc: OK: %d serve flags documented, matching the "
          "usage text and kFlags" % len(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
