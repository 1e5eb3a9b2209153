"""The code-line count of ``tests/code_lines.py`` on made-up modules."""

from code_lines import code_lines, compare

SOURCE = '''"""Module docstring,
two lines."""

import os  # a comment


# a comment line
class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        text = """a string
that is not a docstring"""
        return text
'''


def test_docstrings_comments_and_blank_lines_do_not_count():
    # import, class, def, the two lines of the string, return
    assert code_lines(SOURCE) == 6


def test_compare_lists_each_module_of_either_directory_then_the_total(tmp_path):
    trees = {"old": {"a.py": "x = 1\n", "sub/gone.py": "y = 2\nz = 3\n"},
             "new": {"a.py": SOURCE, "b.py": "# only a comment\n"}}
    for tree, modules in trees.items():
        for name, source in modules.items():
            path = tmp_path / tree / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source)
    assert compare(tmp_path / "old", tmp_path / "new") == [
        ("a.py", 1, 6), ("b.py", 0, 0), ("sub/gone.py", 2, 0), ("total", 3, 6)]
