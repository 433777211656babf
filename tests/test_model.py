"""Trunk/head model tests: fixtures with hand-computed losses, MoE symmetry
lifted to the model, parameter grouping, checkpoint roundtrips."""

import dataclasses
import math

import numpy as np
import pytest

from gridmoe.autodiff import Tensor
from gridmoe.data import default_modalities, default_tasks, generate_sample
from gridmoe.errors import ShapeError
from gridmoe.model import Model, ModelSpec
from gridmoe.moe import MoEConfig, init_from_pretrained
from gridmoe.errors import ConfigError


def make_batch(mods, tasks, indices):
    samples = []
    for modality, idx in indices:
        image, target = generate_sample(mods[modality], tasks[modality], idx)
        samples.append((modality, idx, image, target))
    return samples


class TestSpec:
    def test_placement_mask_validation(self):
        with pytest.raises(ConfigError):
            ModelSpec(depth=3, moe_layers=(0, 5))
        with pytest.raises(ConfigError):
            ModelSpec(depth=3, moe_layers=(1, 1))
        with pytest.raises(ConfigError, match=r"model\.depth"):
            ModelSpec(depth=0)


class TestFixtures:
    def test_identity_trunk_zero_heads_pin_losses(self):
        """Zero heads predict zeros: CE is exactly ln(K); the regression loss
        equals the hand-computed huber mean of the raw targets."""
        mods = default_modalities()
        tasks = default_tasks()
        model = Model(ModelSpec(moe_layers=()), tasks, seed=0)
        eye = np.eye(model.spec.channels)
        for block in model.blocks:
            block.weight.data = eye.copy()
            block.bias.data = np.zeros(model.spec.channels)

        samples = make_batch(mods, tasks, [("A", 0), ("B", 0), ("C", 0)])
        _, losses, _ = model.forward_batch(samples)
        assert losses["A"] == pytest.approx(math.log(4.0), abs=1e-12)

        for modality in ("B", "C"):
            _, target = generate_sample(mods[modality], tasks[modality], 0)
            d = np.abs(target)  # prediction is zero everywhere
            expected = np.where(d < 1.0, 0.5 * d * d, d - 0.5).mean()
            assert losses[modality] == pytest.approx(expected, abs=1e-12)

    def test_moe_block_output_is_scaled_base_projection(self):
        """Duplicated experts + identical embeddings: each MoE block equals
        its base 1x1 projection scaled by k/N."""
        tasks = default_tasks()
        spec = ModelSpec(depth=4, channels=8, moe_layers=(0, 2),
                         moe=MoEConfig(n_experts=4, top_k=2))
        model = Model(spec, tasks, seed=3)
        for block in model.blocks:
            if block.mixture is not None:  # identical embeddings
                block.mixture.E.data = np.repeat(block.mixture.E.data[:, :1], spec.moe.n_experts,
                                                 axis=1)
        rng = np.random.default_rng(0)
        h = rng.normal(size=(5, 5, 8))
        scale = spec.moe.top_k / spec.moe.n_experts
        for block in model.blocks:
            if block.mixture is None:
                continue
            out, _ = block.forward(Tensor(h))
            base = h @ block.weight.data.T + block.bias.data
            np.testing.assert_allclose(out.data, scale * base, atol=1e-12)

    def test_moe_disabled_uses_base_projection(self):
        tasks = default_tasks()
        spec = ModelSpec(depth=2, moe_layers=(0,))
        with_moe = Model(spec, tasks, seed=5)
        without = Model(dataclasses.replace(spec, moe_layers=()), tasks, seed=5)
        # same seeded base weights with or without the mixture
        np.testing.assert_array_equal(
            with_moe.blocks[0].weight.data, without.blocks[0].weight.data
        )
        assert with_moe.blocks[0].mixture is not None
        assert without.blocks[0].mixture is None


class TestBlockMixture:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_moe_block_is_the_duplication_of_its_base_projection(self, seed):
        """Each placed block's gate and experts are ``init_from_pretrained`` of its
        own base weights at seed ``seed * 997 + index``, bit for bit."""
        spec = ModelSpec(depth=4, channels=8, moe_layers=(2, 0),
                         moe=MoEConfig(n_experts=4, top_k=2, gate_dim=5))
        model = Model(spec, default_tasks(), seed=seed)
        assert [block.index for block in model.blocks if block.mixture is not None] == [0, 2]
        for i in spec.moe_layers:
            block = model.blocks[i]
            mixture = init_from_pretrained(block.weight.data, block.bias.data, spec.moe,
                                           seed=seed * 997 + i)
            assert block.mixture.cfg is spec.moe
            for name in ("W", "E", "weight", "bias"):
                got, want = getattr(block.mixture, name), getattr(mixture, name)
                assert got.data.tobytes() == want.data.tobytes()
                assert got.shape == want.shape

    @pytest.mark.parametrize("moe_enabled", [True, False])
    def test_block_without_mixture_has_none(self, moe_enabled):
        spec = ModelSpec(depth=4, moe_layers=(1,))
        model = Model(spec if moe_enabled else dataclasses.replace(spec, moe_layers=()),
                      default_tasks(), seed=2)
        plain = [b for b in model.blocks if not (moe_enabled and b.index in spec.moe_layers)]
        assert len(plain) == (3 if moe_enabled else 4)
        for block in plain:
            assert block.mixture is None


class TestForwardBatch:
    def test_loss_invariant_to_sample_order(self):
        mods = default_modalities()
        tasks = default_tasks()
        model = Model(ModelSpec(), tasks, seed=1)
        indices = [("A", 0), ("A", 1), ("B", 0), ("C", 0)]
        forward = make_batch(mods, tasks, indices)
        total1, losses1, _ = model.forward_batch(forward)
        total2, losses2, _ = model.forward_batch(list(reversed(forward)))
        assert float(total1.data) == float(total2.data)
        for t in losses1:
            assert losses1[t] == losses2[t]

    def test_routing_decisions_per_moe_block(self):
        mods = default_modalities()
        tasks = default_tasks()
        model = Model(ModelSpec(moe_layers=(0, 2)), tasks, seed=1)
        samples = make_batch(mods, tasks, [("A", 0), ("B", 0)])
        _, _, routings = model.forward_batch(samples)
        assert len(routings) == 2 * 2  # two samples, two MoE blocks
        layers = {layer for _, layer, _ in routings}
        assert layers == {"trunk.0", "trunk.2"}
        # Each slice views the layer's read-only softmax.
        assert not any(d.full_softmax.flags.writeable for _, _, d in routings)

    def test_unknown_task_rejected(self):
        tasks = default_tasks()
        model = Model(ModelSpec(), tasks, seed=1)
        with pytest.raises(ShapeError):
            model.forward_batch([("D", 0, np.zeros((8, 8, 8)), np.zeros((8, 8)))])

    def test_wrong_channel_count_rejected(self):
        tasks = default_tasks()
        model = Model(ModelSpec(channels=8), tasks, seed=1)
        with pytest.raises(ShapeError):
            model.features(np.zeros((8, 8, 5)))


class TestParamGroups:
    def test_groups_cover_all_parameters_disjointly(self):
        tasks = default_tasks()
        model = Model(ModelSpec(), tasks, seed=2)
        groups = model.param_groups()
        assert len(groups) == 1 + 3  # the backbone, then one group per task head
        ids = [id(p) for params in groups for p in params]
        assert len(ids) == len(set(ids))
        # gate and expert parameters live in the backbone group
        backbone_ids = {id(p) for p in groups[0]}
        for block in model.blocks:
            if block.mixture is not None:
                assert id(block.mixture.W) in backbone_ids
                assert id(block.mixture.E) in backbone_ids
                assert id(block.mixture.weight) in backbone_ids
                assert id(block.mixture.bias) in backbone_ids


class TestStateDict:
    def test_roundtrip(self):
        tasks = default_tasks()
        model = Model(ModelSpec(), tasks, seed=3)
        state = model.state_dict()
        other = Model(ModelSpec(), tasks, seed=99)
        other.load_state(state)
        for (n1, p1, i1), (n2, p2, i2) in zip(model.named_parameters(),
                                              other.named_parameters()):
            assert n1 == n2
            assert p1.data[i1].tobytes() == p2.data[i2].tobytes()

    def test_moe_checkpoint_layout_and_byte_round_trip(self):
        spec = ModelSpec(depth=2, channels=3, moe_layers=(1,), moe=MoEConfig(n_experts=2, top_k=1))
        model = Model(spec, default_tasks(), seed=4)
        bank = model.blocks[1].mixture
        rng = np.random.default_rng(4)
        bank.weight.data = rng.normal(size=(2, 3, 3))  # experts that differ
        bank.bias.data = rng.normal(size=(2, 3))
        state = model.state_dict()
        assert [(name, arr.shape) for name, arr in state.items()] == [
            ("trunk.0.base.weight", (3, 3)), ("trunk.0.base.bias", (3,)),
            ("trunk.1.base.weight", (3, 3)), ("trunk.1.base.bias", (3,)),
            ("trunk.1.gate.W", (3, 3)), ("trunk.1.gate.E", (3, 2)),
            ("trunk.1.expert.0.weight", (3, 3)), ("trunk.1.expert.0.bias", (3,)),
            ("trunk.1.expert.1.weight", (3, 3)), ("trunk.1.expert.1.bias", (3,)),
            ("head.A.weight", (4, 3)), ("head.A.bias", (4,)),
            ("head.B.weight", (5, 3)), ("head.B.bias", (5,)),
            ("head.C.weight", (5, 3)), ("head.C.bias", (5,)),
        ]
        for n in range(2):
            assert state[f"trunk.1.expert.{n}.weight"].tobytes() == bank.weight.data[n].tobytes()
            assert state[f"trunk.1.expert.{n}.bias"].tobytes() == bank.bias.data[n].tobytes()

        other = Model(spec, default_tasks(), seed=5)
        other_bank = other.blocks[1].mixture
        held = other_bank.weight.data
        other.load_state(state)
        assert other_bank.weight.data is not held  # fresh arrays, never written in place
        assert other_bank.weight.data.tobytes() == bank.weight.data.tobytes()
        assert other_bank.bias.data.tobytes() == bank.bias.data.tobytes()
        assert {k: v.tobytes() for k, v in other.state_dict().items()} \
            == {k: v.tobytes() for k, v in state.items()}

    @pytest.mark.parametrize("edit, message", [
        ("shape", "entry 'trunk.2.expert.1.bias' has shape (5,), expected (8,)"),
        ("missing", "missing=['trunk.0.expert.3.weight']"),
    ])
    def test_bad_expert_entry_rejected_by_name(self, edit, message):
        model = Model(ModelSpec(), default_tasks(), seed=3)
        state = model.state_dict()
        if edit == "shape":
            state["trunk.2.expert.1.bias"] = np.zeros(5)
        else:
            del state["trunk.0.expert.3.weight"]
        held = [p.data for p in model.param_groups()[0]]
        with pytest.raises(ShapeError) as excinfo:
            model.load_state(state)
        assert message in str(excinfo.value)
        assert all(p.data is d for p, d in zip(model.param_groups()[0], held))

    def test_shape_mismatch_rejected(self):
        tasks = default_tasks()
        model = Model(ModelSpec(), tasks, seed=3)
        state = model.state_dict()
        state["trunk.0.base.weight"] = np.zeros((2, 2))
        with pytest.raises(ShapeError):
            model.load_state(state)

    def test_missing_key_rejected(self):
        tasks = default_tasks()
        model = Model(ModelSpec(), tasks, seed=3)
        state = model.state_dict()
        del state["head.A.weight"]
        with pytest.raises(ShapeError):
            model.load_state(state)
