"""Stage failures: each names its stage and keeps its counts in `detail`."""

import pytest

from rainbowtrees import (AbsorptionFailure, EmbedFailure, ExpanderFailure,
                          PartitionFailure, RainbowTreesError, RootEdgeFailure,
                          SparsifyFailure, StageFailure)


@pytest.mark.parametrize("cls, stage", [
    (SparsifyFailure, "sparsify"), (ExpanderFailure, "expander"),
    (EmbedFailure, "embed"), (RootEdgeFailure, "root-edges"),
    (AbsorptionFailure, "absorption"), (PartitionFailure, "partition")])
def test_subclass_declares_its_stage(cls, stage):
    exc = cls("only 3 of 5", found=3, needed=5, children=2)
    assert isinstance(exc, StageFailure) and isinstance(exc, RainbowTreesError)
    assert exc.stage == stage
    assert str(exc) == "[%s] only 3 of 5" % stage
    # the counts keep the order they were given in, which trace lines print
    assert list(exc.detail.items()) == [("found", 3), ("needed", 5),
                                        ("children", 2)]
    assert cls("no counts").detail == {}


def test_plain_stage_failure_is_given_its_stage():
    exc = StageFailure("anchor sweep found 1 of 4 nodes", "build-I0",
                       found=1, target=4)
    assert exc.stage == "build-I0"
    assert str(exc) == "[build-I0] anchor sweep found 1 of 4 nodes"
    assert str(exc.detail) == "{'found': 1, 'target': 4}"


def test_no_attribute_repeats_detail():
    exc = SparsifyFailure("only 2 allowed colours survived, needed 4",
                          survivors=2, needed=4)
    assert exc.detail == {"survivors": 2, "needed": 4}
    for name in ("survivors", "needed", "placed", "total", "pool", "vertex"):
        assert not hasattr(exc, name)
