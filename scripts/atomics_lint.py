#!/usr/bin/env python3
"""Static memory-order audit for the lock-free core.

Every explicit std::memory_order_* call site in src/ must appear in
scripts/atomics_manifest.tsv together with a justification; the manifest
is the reviewed record of WHY each ordering is sufficient. The lint
fails when

  * a call site exists that the manifest does not list (unlisted),
  * the manifest lists a site that no longer exists (stale),
  * the number of sites behind a manifest row changed (count drift),
  * a site kept its (file, symbol, op) identity but weakened its
    ordering relative to the manifest (downgrade — the bug class the
    model checker in src/verify/ catches dynamically; this catches it
    at diff time, before any schedule runs),
  * a manifest row still carries a TODO justification.

Call sites are keyed by (file, enclosing symbol, operation, ordering) —
NOT by line number — so unrelated edits never churn the manifest.
Intentional unchecked sites carry `// atomics-lint: ignore` (or
`mutation` for seeded-bug branches) on the same or preceding line.

Usage:
  scripts/atomics_lint.py                  check src/ against the manifest
  scripts/atomics_lint.py --write-manifest rewrite the manifest from the
                                           tree, preserving existing
                                           justifications
  scripts/atomics_lint.py --self-test      prove the lint has teeth on an
                                           in-memory acquire->relaxed
                                           downgrade

src/verify/ is excluded: it is the checking machinery (memory orders
appear there as *data* — interposition shims, trace renderers, harness
cells), not library code whose orderings need auditing.
"""

import argparse
import collections
import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
MANIFEST = os.path.join(REPO, "scripts", "atomics_manifest.tsv")
EXCLUDE_DIRS = {os.path.join("src", "verify")}

ORDER_RE = re.compile(r"std::memory_order_(relaxed|consume|acquire|release|acq_rel|seq_cst)\b")
# Strength lattice for downgrade detection. release and acquire are
# incomparable halves of acq_rel; treat them as equal rank so swapping
# one for the other reports as a *change*, not silently as an upgrade.
ORDER_RANK = {
    "relaxed": 0,
    "consume": 1,
    "acquire": 2,
    "release": 2,
    "acq_rel": 3,
    "seq_cst": 4,
}
OP_RE = re.compile(
    r"(?:\.|->)\s*(load|store|exchange|fetch_add|fetch_sub|fetch_or|fetch_and|"
    r"fetch_xor|compare_exchange_weak|compare_exchange_strong|test_and_set|"
    r"clear|wait)\s*\($"
    r"|(atomic_thread_fence)\s*\($"
)
IGNORE_RE = re.compile(r"//\s*atomics-lint:\s*(ignore|mutation)\b")
# Heuristic for "the function this site lives in": the last line above it
# that looks like a function definition header (name + parens + opening
# brace on the same or a continuation line). Deterministic and stable is
# what matters here, not parser-grade accuracy.
FUNC_RE = re.compile(
    r"^\s*(?:template\s*<[^>]*>\s*)?"
    r"(?:[\w:<>,*&~\[\]\s]+?\s)??"
    r"(~?[A-Za-z_]\w*(?:::~?[A-Za-z_]\w*)*|operator\S+)\s*"
    r"\([^;]*$|"
    r"^\s*(?:class|struct)\s+([A-Za-z_]\w*)"
)

Site = collections.namedtuple("Site", "file symbol op order line")


def list_sources():
    out = []
    for root, dirs, files in os.walk(SRC):
        rel = os.path.relpath(root, REPO)
        if any(rel == d or rel.startswith(d + os.sep) for d in EXCLUDE_DIRS):
            dirs[:] = []
            continue
        for name in sorted(files):
            if name.endswith((".hpp", ".cpp", ".h", ".cc")):
                out.append(os.path.join(root, name))
    return sorted(out)


def enclosing_symbols(lines):
    """symbol[i] = best-effort name of the function/struct containing line i."""
    symbols = []
    current = "(file scope)"
    brace_depth = 0
    pending = None  # candidate seen, waiting for its opening brace
    # A line starting with ':' or ',' under a pending candidate opens (or
    # continues) its mem-initializer list: the member names there look
    # like calls but must not replace the constructor as the candidate.
    in_inits = False
    for line in lines:
        code = line.split("//", 1)[0]
        lead = code.lstrip()
        if (pending is not None and lead[:1] in (":", ",")
                and not lead.startswith("::")):
            in_inits = True
        m = None if in_inits else FUNC_RE.match(code)
        if m and brace_depth <= 2:  # file scope or inside a class body
            name = m.group(1) or m.group(2)
            # Keywords that take parentheses; decltype also opens the
            # continuation line of a trailing return type, which must not
            # replace the function it belongs to.
            if name and name not in ("if", "for", "while", "switch", "return",
                                     "sizeof", "catch", "static_assert",
                                     "decltype"):
                pending = name
        if "{" in code and pending is not None:
            current = pending
            # A brace-initialized member mid-list (`x_{0},`) is not the
            # body's opening brace.
            if not (in_inits and code.rstrip().endswith(",")):
                pending = None
                in_inits = False
        symbols.append(current)
        brace_depth += code.count("{") - code.count("}")
    return symbols


def extract_file(path, text=None):
    if text is None:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    rel = os.path.relpath(path, REPO).replace(os.sep, "/")
    lines = text.split("\n")
    symbols = enclosing_symbols(lines)
    sites = []
    for i, line in enumerate(lines):
        if IGNORE_RE.search(line) or (i > 0 and IGNORE_RE.search(lines[i - 1])):
            continue
        for m in ORDER_RE.finditer(line.split("//", 1)[0]):
            # The operation is the nearest atomic method call opened before
            # this token, scanning back through the current statement (it
            # may start on an earlier line for wrapped argument lists).
            window_lines = lines[max(0, i - 4):i] + [line[:m.start()]]
            window = " ".join(w.split("//", 1)[0] for w in window_lines)
            stmt = re.split(r"[;{}]", window)[-1]
            op = None
            for om in re.finditer(
                    r"(?:(?:\.|->)\s*(load|store|exchange|fetch_add|fetch_sub|"
                    r"fetch_or|fetch_and|fetch_xor|compare_exchange_weak|"
                    r"compare_exchange_strong|test_and_set|clear|wait)|"
                    r"\b(atomic_thread_fence))\s*\(", stmt):
                op = om.group(1) or "fence"
            if op is None:
                # Not a call argument (e.g. a default parameter, an enum
                # table, a using-alias): not an executable site.
                continue
            sites.append(Site(rel, symbols[i], op, m.group(1), i + 1))
    return sites


def extract_tree():
    sites = []
    for path in list_sources():
        sites.extend(extract_file(path))
    return sites


def key(site):
    return (site.file, site.symbol, site.op, site.order)


def load_manifest(path=MANIFEST):
    rows = {}
    if not os.path.exists(path):
        return rows
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.rstrip("\n")
            if not line or line.startswith("#") or line.startswith("file\t"):
                continue
            parts = line.split("\t")
            if len(parts) != 6:
                sys.exit(f"{path}:{lineno}: expected 6 tab-separated fields, "
                         f"got {len(parts)}")
            file_, symbol, op, order, count, why = parts
            rows[(file_, symbol, op, order)] = (int(count), why)
    return rows


def write_manifest(sites, path=MANIFEST):
    old = load_manifest(path)
    counted = collections.Counter(key(s) for s in sites)
    with open(path, "w", encoding="utf-8") as f:
        f.write("# Audited memory orderings for every explicit std::memory_order_*\n")
        f.write("# call site under src/ (src/verify/ excluded — that is the checker).\n")
        f.write("# Columns: file, enclosing symbol, op, ordering, site count,\n")
        f.write("# justification. Regenerate with scripts/atomics_lint.py\n")
        f.write("# --write-manifest (existing justifications are preserved);\n")
        f.write("# the lint fails while any justification still says TODO.\n")
        f.write("file\tsymbol\top\torder\tcount\tjustification\n")
        for k in sorted(counted):
            why = old.get(k, (0, "TODO: justify"))[1]
            f.write("\t".join([k[0], k[1], k[2], k[3], str(counted[k]), why]) + "\n")
    print(f"wrote {len(counted)} entries to {os.path.relpath(path, REPO)}")


def check(sites, manifest, out=sys.stdout):
    counted = collections.Counter(key(s) for s in sites)
    where = collections.defaultdict(list)
    for s in sites:
        where[key(s)].append(f"{s.file}:{s.line}")
    errors = []

    manifest = dict(manifest)
    header = ("file", "symbol", "op", "order")
    manifest.pop(header, None)

    for k, n in sorted(counted.items()):
        if k in manifest:
            continue
        # Same identity under a different ordering in the manifest means
        # the ordering itself changed — name the direction.
        ident = k[:3]
        olds = [mk for mk in manifest if mk[:3] == ident and mk not in counted]
        if olds:
            old_order = olds[0][3]
            direction = ("DOWNGRADE" if ORDER_RANK[k[3]] < ORDER_RANK[old_order]
                         else "upgrade" if ORDER_RANK[k[3]] > ORDER_RANK[old_order]
                         else "change")
            errors.append(
                f"ordering {direction}: {k[0]} {k[1]} {k[2]} is "
                f"{k[3]} but the manifest requires {old_order} "
                f"({', '.join(where[k])}) — if intended, re-justify it and "
                f"rerun --write-manifest")
        else:
            errors.append(
                f"unlisted call site: {k[0]} {k[1]} {k[2]} {k[3]} x{n} "
                f"({', '.join(where[k])}) — add it to the manifest with a "
                f"justification (--write-manifest, then replace the TODO)")

    for mk, (count, why) in sorted(manifest.items()):
        if mk not in counted:
            if any(k[:3] == mk[:3] for k in counted):
                continue  # already reported above as an ordering change
            errors.append(
                f"stale manifest entry: {mk[0]} {mk[1]} {mk[2]} {mk[3]} — "
                f"no such call site remains; remove it (--write-manifest)")
        elif counted[mk] != count:
            errors.append(
                f"count drift: {mk[0]} {mk[1]} {mk[2]} {mk[3]} has "
                f"{counted[mk]} sites, manifest says {count} "
                f"({', '.join(where[mk])}) — rerun --write-manifest and "
                f"review the new sites")
        if mk in counted and why.strip().upper().startswith("TODO"):
            errors.append(
                f"missing justification: {mk[0]} {mk[1]} {mk[2]} {mk[3]} "
                f"still says '{why}'")

    for e in errors:
        print(f"atomics-lint: {e}", file=out)
    return len(errors)


def self_test():
    good = (
        "struct Cell {\n"
        "  bool try_acquire() {\n"
        "    return !flag_.exchange(true, std::memory_order_acquire);\n"
        "  }\n"
        "  void release() {\n"
        "    flag_.store(false, std::memory_order_release);\n"
        "  }\n"
        "};\n"
    )
    bad = good.replace("std::memory_order_acquire", "std::memory_order_relaxed")
    fake = os.path.join(SRC, "fake", "cell.hpp")

    good_sites = extract_file(fake, good)
    assert len(good_sites) == 2, good_sites
    assert {(s.symbol, s.op, s.order) for s in good_sites} == {
        ("try_acquire", "exchange", "acquire"),
        ("release", "store", "release"),
    }, good_sites

    manifest = {key(s): (1, "claim/release pairing") for s in good_sites}
    import io
    sink = io.StringIO()
    assert check(good_sites, manifest, out=sink) == 0, sink.getvalue()

    bad_sites = extract_file(fake, bad)
    sink = io.StringIO()
    n = check(bad_sites, manifest, out=sink)
    report = sink.getvalue()
    assert n > 0, "downgrade not detected"
    assert "DOWNGRADE" in report and "relaxed" in report, report

    ignored = extract_file(fake, good.replace(
        "    return !flag_.exchange",
        "    // atomics-lint: ignore\n    return !flag_.exchange"))
    assert len(ignored) == 1, ignored

    # A constructor's body is filed under the constructor, not under the
    # last name in its mem-initializer list (brace-initialized members
    # included).
    ctor = (
        "class Node {\n"
        " public:\n"
        "  explicit Node(int n)\n"
        "      : head_(n),\n"
        "        count_{0},\n"
        "        next_(make_links(n)) {\n"
        "    for (auto& x : next_) x.store(0, std::memory_order_relaxed);\n"
        "  }\n"
        "};\n"
    )
    ctor_sites = extract_file(fake, ctor)
    assert [(s.symbol, s.op) for s in ctor_sites] == [("Node", "store")], (
        ctor_sites)

    # A trailing return type wrapped onto a `decltype(...)` line is filed
    # under the function it belongs to, not under `decltype`.
    trailing = (
        "struct Pool {\n"
        "  template <typename I = Inner>\n"
        "  auto adopt_held(int name) -> std::void_t<\n"
        "      decltype(std::declval<I&>().adopt_held(0))> {\n"
        "    count_.fetch_add(1, std::memory_order_relaxed);\n"
        "  }\n"
        "};\n"
    )
    trailing_sites = extract_file(fake, trailing)
    assert [(s.symbol, s.op) for s in trailing_sites] == [
        ("adopt_held", "fetch_add")], trailing_sites

    print("self-test OK: clean tree passes, acquire->relaxed downgrade "
          "fails, ignore marker suppresses, constructor bodies file under "
          "the constructor, trailing return types file under their "
          "function")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write-manifest", action="store_true",
                        help="regenerate the manifest, preserving justifications")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in teeth check and exit")
    args = parser.parse_args()

    if args.self_test:
        self_test()
        return 0
    sites = extract_tree()
    if args.write_manifest:
        write_manifest(sites)
        return 0
    manifest = load_manifest()
    if not manifest:
        sys.exit(f"manifest not found: {MANIFEST} (run --write-manifest first)")
    errors = check(sites, manifest)
    if errors:
        print(f"atomics-lint: {errors} problem(s); see "
              f"scripts/atomics_manifest.tsv for the audited baseline",
              file=sys.stderr)
        return 1
    print(f"atomics-lint: {len(sites)} call sites match the manifest "
          f"({len(manifest)} audited entries)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
