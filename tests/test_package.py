import doctest
from pathlib import Path

import superserre

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in superserre.__all__ if not hasattr(superserre, name)]
    assert not missing
    assert len(set(superserre.__all__)) == len(superserre.__all__)


def test_star_import_is_clean():
    namespace = {}
    exec("from superserre import *", namespace)
    assert set(superserre.__all__) <= set(namespace)


def test_readme_session_is_a_passing_doctest():
    result = doctest.testfile(str(README), module_relative=False, verbose=False)
    assert result.attempted > 0
    assert result.failed == 0
