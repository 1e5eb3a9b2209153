"""The library example of README.md, run as a doctest."""

import doctest
import os

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


def test_readme_library_example():
    failed, attempted = doctest.testfile(README, module_relative=False)
    assert attempted and not failed
