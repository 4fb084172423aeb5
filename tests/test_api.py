import circint


def test_star_import_binds_exactly_the_public_names():
    assert len(circint.__all__) == len(set(circint.__all__))
    for name in circint.__all__:
        assert getattr(circint, name) is not None, name
    namespace = {}
    exec("from circint import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(circint.__all__)
