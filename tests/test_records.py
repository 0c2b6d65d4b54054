"""Records are values: each record that checks a rule is frozen, holds tuples and
read-only arrays of its own, and so keeps the rules it checked when it was made."""

import dataclasses
import re

import numpy as np
import pytest

import crowdloss
import crowdloss.config
from crowdloss.anchors import AnchorSet, ProbabilityMap, TargetMap, select_anchors
from crowdloss.config import AnchorDemoConfig, NmsSweepConfig, RunSection
from crowdloss.errors import InvalidInputError
from crowdloss.geometry import BBox
from crowdloss.simulator import Descent, Pedestrian, Scene, SimConfig, run_descents

READ_ONLY = re.escape("assignment destination is read-only")


def one_pedestrian_scene():
    return Scene((10.0, 10.0), [Pedestrian(BBox(1, 1, 3, 5), BBox(1, 1, 3, 5))])


# each record with sequence or array fields, made from the caller's containers: ``make`` is list or np.array
BUILDERS = {
    "Scene": lambda make: Scene(make([10.0, 10.0]), [Pedestrian(BBox(1, 1, 3, 5), BBox(1, 1, 3, 4))],
                                [BBox(6, 6, 8, 9)]),
    "Descent": lambda make: Descent(one_pedestrian_scene(), [BBox(1, 1, 3, 5)], intended_targets=make([0])),
    "ProbabilityMap": lambda make: ProbabilityMap(1.0, make([[0.5, 0.2], [0.1, 0.9]])),
    "TargetMap": lambda make: TargetMap(1.0, make([["P", "N"], ["I", "N"]])),
    "AnchorSet": lambda make: AnchorSet(make([[0.0, 0.0, 1.0, 1.0]]), 0.5, False, 1, 1, 1.0, make([1.0]), make([1.0]),
                                        [(0, 0)]),
    "SimConfig": lambda make: SimConfig(extent=make([50.0, 60.0]), height_range=make([0.3, 0.5])),
    "AnchorDemoConfig": lambda make: AnchorDemoConfig(scales=make([10.0, 20.0]), ratios=make([0.41])),
    "NmsSweepConfig": lambda make: NmsSweepConfig(thresholds=make([0.4, 0.5]), variants=make(["baseline"])),
    "RunSection": lambda make: RunSection(seeds=make([1, 2]), variants=make(["couloss"])),
}

# each record with sequence fields: its other arguments, and a value for each sequence field
SEQUENCES = {
    Scene: ({}, dict(extent=(10.0, 10.0), pedestrians=(Pedestrian(BBox(1, 1, 3, 5), BBox(1, 1, 3, 4)),),
                     distractors=(BBox(6, 6, 8, 9),))),
    Descent: (dict(scene=one_pedestrian_scene()), dict(proposals=(BBox(1, 1, 3, 5),), intended_targets=(0,))),
    AnchorSet: (dict(anchors=[[0.0, 0.0, 1.0, 1.0]], threshold=0.5, fallback=False, grid_height=1, grid_width=1,
                     stride=1.0), dict(scales=(1.0,), ratios=(1.0,), cells=((0, 0),))),
    SimConfig: ({}, dict(extent=(50.0, 60.0), height_range=(0.3, 0.5))),
    AnchorDemoConfig: ({}, dict(scales=(10.0, 20.0), ratios=(0.41,))),
    NmsSweepConfig: ({}, dict(thresholds=(0.4, 0.5), variants=("baseline",))),
    RunSection: ({}, dict(seeds=(1, 2), variants=("couloss",))),
}


def checked_records():
    """Every dataclass exported by the package or defined by its config module that
    defines ``__post_init__``, i.e. checks a rule."""
    return {
        cls for module in (crowdloss, crowdloss.config) for cls in vars(module).values()
        if isinstance(cls, type) and dataclasses.is_dataclass(cls) and "__post_init__" in vars(cls)
    }


def test_every_checked_record_is_frozen():
    records = checked_records()
    assert set(BUILDERS) <= {cls.__name__ for cls in records}
    assert [cls.__name__ for cls in records if not cls.__dataclass_params__.frozen] == []


@pytest.mark.parametrize("make", [list, np.array], ids=["lists", "arrays"])
@pytest.mark.parametrize("name", BUILDERS)
def test_record_holds_tuples_and_its_own_read_only_arrays(name, make):
    given = []  # every array the caller passes

    def keep(values):
        given.append(make(values))
        return given[-1]

    record = BUILDERS[name](keep)
    for field in dataclasses.fields(record):
        value = getattr(record, field.name)
        if field.type.startswith("tuple"):
            assert isinstance(value, tuple), field.name
        if isinstance(value, np.ndarray):
            assert not value.flags.writeable, field.name
            assert not any(np.shares_memory(value, a) for a in given if isinstance(a, np.ndarray)), field.name
        assert not isinstance(value, (list, dict, set)), field.name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, dataclasses.fields(record)[0].name, None)


def test_every_sequence_field_has_a_generator_case():
    sequence_fields = {
        cls: [f.name for f in dataclasses.fields(cls) if f.type.startswith("tuple")] for cls in checked_records()
    }
    assert {cls: names for cls, names in sequence_fields.items() if names} == {
        cls: list(values) for cls, (_, values) in SEQUENCES.items()
    }


@pytest.mark.parametrize("cls", SEQUENCES, ids=lambda cls: cls.__name__)
def test_record_takes_each_sequence_once_from_a_generator(cls):
    # a record that checked a field before freezing it kept a used-up generator, or
    # failed on its length: Scene, SimConfig and the config records
    others, sequences = SEQUENCES[cls]
    record = cls(**others, **{name: (v for v in values) for name, values in sequences.items()})
    for name, values in sequences.items():
        assert type(getattr(record, name)) is tuple and getattr(record, name) == values, name


def test_config_sequence_cannot_be_edited_after_its_check():
    # a list height_range could be edited after its check, and generate_scene used the edit
    cfg = SimConfig(height_range=[0.3, 0.5])
    with pytest.raises(TypeError):
        cfg.height_range[1] = 5.0
    assert cfg.height_range == (0.3, 0.5)


class TestScene:
    def test_fields_are_tuples_that_keep_the_extent_rule(self):
        peds = [Pedestrian(BBox(1, 1, 3, 5), BBox(1, 1, 3, 5))]
        scene = Scene((10.0, 10.0), peds)
        outside = Pedestrian(BBox(5, 5, 40, 40), BBox(5, 5, 40, 40))
        peds.append(outside)  # the caller's list is not the scene's
        assert scene.pedestrians == (Pedestrian(BBox(1, 1, 3, 5), BBox(1, 1, 3, 5)),)
        assert scene.gt_boxes == (BBox(1, 1, 3, 5),)
        with pytest.raises(AttributeError):
            scene.pedestrians.append(outside)
        with pytest.raises(dataclasses.FrozenInstanceError):
            scene.pedestrians = [outside]
        # a changed scene is a new one, checked as any other
        with pytest.raises(InvalidInputError, match="outside extent"):
            dataclasses.replace(scene, pedestrians=[outside])

    def test_descent_scene_cannot_be_emptied(self):
        scene = one_pedestrian_scene()
        Descent(scene, [BBox(1, 1, 3, 5)])
        with pytest.raises(AttributeError):
            scene.pedestrians.clear()
        assert len(scene.pedestrians) == 1


def test_caller_proposals_edit_does_not_reach_descent():
    proposals = [BBox(1, 1, 3, 5)]
    descent = Descent(one_pedestrian_scene(), proposals, intended_targets=[0])
    proposals.append(BBox(1, 1, 3, 5))
    assert descent.proposals == (BBox(1, 1, 3, 5),) and descent.intended_targets == (0,)
    (result,) = run_descents([descent], sim_cfg=SimConfig(descent_steps=5))
    assert len(result.final_boxes) == len(result.per_proposal) == 1
    assert result.mean_final_iou == 1.0


class TestMapRecords:
    def test_probability_map_keeps_its_own_values(self):
        values = np.full((3, 3), 0.5)
        pm = ProbabilityMap(1.0, values)
        values[0, 0] = 9.0
        assert pm.values.max() == 0.5
        assert select_anchors(pm, (1.0,), (1.0,)).threshold == 0.5
        with pytest.raises(ValueError, match=READ_ONLY):
            pm.values[0, 0] = 9.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            pm.stride = -2.0
        # a changed map is a new one, checked as any other
        with pytest.raises(InvalidInputError, match="^stride must be finite and > 0, got -2.0$"):
            dataclasses.replace(pm, stride=-2.0)

    def test_target_map_labels_are_read_only(self):
        tm = TargetMap(1.0, np.array([["P", "N"]]))
        with pytest.raises(ValueError, match=READ_ONLY):
            tm.labels[0, 0] = "X"

    def test_anchor_set_keeps_valid_boxes(self):
        sel = select_anchors(ProbabilityMap(1.0, [[0.0, 1.0]]), (1.0,), (1.0,))
        with pytest.raises(ValueError, match=READ_ONLY):
            sel.anchors[0] = (5, 5, 1, 1)
        with pytest.raises(AttributeError):
            sel.cells.append((0, 0))
