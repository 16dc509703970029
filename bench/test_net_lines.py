#!/usr/bin/env python3
"""Self-test of bench/net_lines.py on a throwaway git repository.

    python3 bench/test_net_lines.py
"""
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import net_lines  # noqa: E402


class CodeLines(unittest.TestCase):
    def test_cpp_comments_and_blanks_do_not_count(self):
        text = "\n".join([
            "// header",
            "#include <x>",
            "",
            "/* one-line block */",
            "/* open",
            "   still comment */",
            "int a;  // trailing comment keeps the line",
            "/* lead */ int b;",
            "  * stray star inside no block is code",
        ])
        self.assertEqual(net_lines.code_lines("a.hpp", text), 4)

    def test_hash_comments_in_cmake_and_python(self):
        text = "# note\nadd_library(x)\n\n  # indented\nset(y 1)\n"
        self.assertEqual(net_lines.code_lines("CMakeLists.txt", text), 2)
        self.assertEqual(net_lines.code_lines("t.py", "# c\nx = 1\n"), 1)

    def test_module_of_a_path(self):
        self.assertEqual(net_lines.module("src/core/tile_h.hpp"), "src/core")
        self.assertEqual(net_lines.module("src/CMakeLists.txt"), "src")


class Count(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.repo = self.tmp.name
        self.git("init", "-q")
        self.write("src/a/x.hpp", "// doc\nint x;\nint y;\n")
        self.write("src/b/y.hpp", "int z;\n")
        self.write("README.md", "outside src\n")
        self.git("add", "-A")
        self.git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-qm",
                 "base")

    def tearDown(self):
        self.tmp.cleanup()

    def git(self, *args):
        subprocess.run(["git", "-C", self.repo] + list(args), check=True,
                       capture_output=True)

    def write(self, path, text):
        full = os.path.join(self.repo, path)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        with open(full, "w") as f:
            f.write(text)

    def test_edits_deletions_and_untracked_files(self):
        # src/a: one code line and the comment go, one comment line comes.
        self.write("src/a/x.hpp", "int x;\n// new note\n")
        os.remove(os.path.join(self.repo, "src/b/y.hpp"))
        self.write("src/c/new.hpp", "int n;\n\nint m;\n")
        self.write("README.md", "changed, but outside src\n")
        rows = net_lines.count(self.repo, "HEAD")
        self.assertEqual(rows["src/a"], [1, 2, -1])
        self.assertEqual(rows["src/b"], [0, 1, -1])
        self.assertEqual(rows["src/c"], [3, 0, 2])
        self.assertEqual(sorted(rows), ["src/a", "src/b", "src/c"])

    def test_unchanged_tree_reports_nothing(self):
        self.assertEqual(net_lines.count(self.repo, "HEAD"), {})


if __name__ == "__main__":
    unittest.main()
