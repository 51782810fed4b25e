import spinstep

SUBMODULES = ("algebra", "eigensystem", "scattering", "sweep_io", "threed")


def test_every_exported_name_resolves_and_is_listed():
    # the package resolves its names on first use; star imports and dir()
    # still see every one of them
    assert len(spinstep.__all__) == len(set(spinstep.__all__)) == 61
    assert set(SUBMODULES) <= set(spinstep.__all__)
    listed = dir(spinstep)
    for name in spinstep.__all__:
        assert getattr(spinstep, name) is not None, name
        assert name in listed, name
    namespace = {}
    exec("from spinstep import *", namespace)
    assert set(spinstep.__all__) <= set(namespace)
    assert spinstep.Spin is spinstep.eigensystem.Spin is spinstep.scattering.Spin
