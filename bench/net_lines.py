#!/usr/bin/env python3
"""Lines added, removed and net code lines per src/ module since a commit.

    python3 bench/net_lines.py BASE

Compares the working tree (tracked files with their uncommitted edits, plus
untracked files that are not ignored) with commit BASE, for each top-level
directory under src/. "added" and "removed" count every changed line, as
`git diff --numstat` does; a new untracked file counts all its lines as
added. "net code" is the change in code lines: non-blank lines that are not
comment-only (`//` and `/* */` in C++, `#` in CMake and Python).
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CPP = {".c", ".cc", ".cpp", ".h", ".hpp"}
HASH = {".py", ".cmake", ".txt"}


def git(repo, *args):
    return subprocess.run(["git", "-C", repo] + list(args), check=True,
                          capture_output=True, text=True).stdout


def code_lines(path, text):
    """Non-blank lines of `text` that are not comment-only."""
    ext = os.path.splitext(path)[1]
    n = 0
    in_block = False
    for line in text.splitlines():
        s = line.strip()
        if ext in CPP:
            if in_block:
                if "*/" not in s:
                    continue
                in_block = False
                s = s.split("*/", 1)[1].strip()
            while s.startswith("/*"):
                if "*/" not in s[2:]:
                    in_block = True
                    s = ""
                    break
                s = s[2:].split("*/", 1)[1].strip()
            if s.startswith("//"):
                continue
        elif ext in HASH and s.startswith("#"):
            continue
        if s:
            n += 1
    return n


def module(path):
    """src/<module>/... -> src/<module>; files directly in src/ -> src."""
    parts = path.split("/")
    return "/".join(parts[:2]) if len(parts) > 2 else parts[0]


def count(repo, base, top="src"):
    """{module: [added, removed, net code]} between `base` and the tree."""
    rows = {}

    def row(path):
        return rows.setdefault(module(path), [0, 0, 0])

    for line in git(repo, "diff", "--numstat", "--no-renames", base, "--",
                    top).splitlines():
        added, removed, path = line.split("\t", 2)
        if added == "-":  # binary
            continue
        row(path)[0] += int(added)
        row(path)[1] += int(removed)
    untracked = git(repo, "ls-files", "--others", "--exclude-standard", "--",
                    top).splitlines()
    for path in untracked:
        with open(os.path.join(repo, path), errors="replace") as f:
            row(path)[0] += len(f.read().splitlines())

    for path in git(repo, "ls-tree", "-r", "--name-only", base, "--",
                    top).splitlines():
        row(path)[2] -= code_lines(path, git(repo, "show", base + ":" + path))
    tracked = git(repo, "ls-files", "--", top).splitlines()
    for path in tracked + untracked:
        full = os.path.join(repo, path)
        if os.path.isfile(full):
            with open(full, errors="replace") as f:
                row(path)[2] += code_lines(path, f.read())
    return {m: r for m, r in rows.items() if any(r)}


def report(rows):
    print("| dir | added | removed | net code |")
    print("|---|---:|---:|---:|")
    total = [0, 0, 0]
    for m in sorted(rows):
        r = rows[m]
        print("| %s | %d | %d | %+d |" % (m, r[0], r[1], r[2]))
        total = [t + v for t, v in zip(total, r)]
    print("| total | %d | %d | %+d |" % tuple(total))


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="Net lines per src/ module since BASE.")
    ap.add_argument("base", metavar="BASE", help="commit to compare with")
    args = ap.parse_args(argv)
    try:
        rows = count(ROOT, args.base)
    except subprocess.CalledProcessError as e:
        sys.exit("net_lines: %s" % (e.stderr.strip() or e))
    report(rows)


if __name__ == "__main__":
    main()
