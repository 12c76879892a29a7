"""``located``: the one rule that types and locates a failed build."""

import pytest

from qsnet.exceptions import DimensionLimitError, FormatError, LayoutError, NoncommutingGeneratorsError, located


def _raise(exc):
    raise exc


@pytest.mark.parametrize("kind", [LayoutError, DimensionLimitError, NoncommutingGeneratorsError, FormatError])
def test_own_kinds_keep_their_type(kind):
    with pytest.raises(kind) as info:
        located("net.json", _raise, kind("bad"))
    assert type(info.value) is kind
    assert str(info.value) == "net.json: bad"


def test_plain_value_error_becomes_format_error():
    cause = ValueError("bad")
    with pytest.raises(FormatError) as info:
        located("sensors[0]", _raise, cause)
    assert str(info.value) == "sensors[0]: bad"
    assert info.value.__cause__ is cause


def test_no_where_keeps_the_message():
    with pytest.raises(FormatError) as info:
        located(None, _raise, ValueError("bad"))
    assert str(info.value) == "bad"


def test_other_exceptions_pass_unchanged():
    with pytest.raises(TypeError, match="^bad$"):
        located("net.json", _raise, TypeError("bad"))


def test_returns_what_the_build_returns():
    assert located("cfg.json", lambda a, b=0: (a, b), 1, b=2) == (1, 2)
