"""Every Python file of the project parses with the Python 3.10 grammar.

The package supports Python 3.10 (``requires-python``); a newer
interpreter accepts syntax that 3.10 rejects, such as ``except*`` or
PEP 695 type parameters.  ``ast.parse(..., feature_version=(3, 10))``
checks the grammar only, not names or library calls that 3.10 lacks.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
FILES = sorted(
    str(path.relative_to(ROOT))
    for folder in ("src", "tests", "bench", "demos")
    for path in (ROOT / folder).rglob("*.py")
)


def test_every_folder_has_files():
    assert {name.split("/")[0] for name in FILES} == {"src", "tests", "bench", "demos"}


@pytest.mark.parametrize("name", FILES)
def test_file_parses_with_the_python_310_grammar(name):
    ast.parse((ROOT / name).read_text(encoding="utf-8"), filename=name, feature_version=(3, 10))
