"""The code-line count of ``tests/code_lines.py`` on a made-up module."""

from code_lines import code_lines

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
