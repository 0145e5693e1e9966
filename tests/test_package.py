import hypctrl


def test_every_export_resolves():
    missing = [name for name in hypctrl.__all__ if not hasattr(hypctrl, name)]
    assert missing == []


def test_exports_are_unique():
    assert len(set(hypctrl.__all__)) == len(hypctrl.__all__)


def test_dense_gramian_is_not_exported():
    # the dense Gramian is a test reference (tests/test_obsv.py), not API
    assert "observability_gramian" not in hypctrl.__all__
    assert not hasattr(hypctrl, "observability_gramian")
