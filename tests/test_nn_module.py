"""Module system: registration, traversal, state dicts, train/eval."""

import numpy as np
import pytest

from repro.nn.layers import Linear, Sequential
from repro.nn.module import Module, ModuleList
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor


class Net(Module):
    def __init__(self):
        super().__init__()
        self.fc1 = Linear(4, 8, seed=0)
        self.fc2 = Linear(8, 2, seed=1)

    def forward(self, x):
        return self.fc2(F.relu(self.fc1(x)))


class TestRegistration:
    def test_parameters_found(self):
        net = Net()
        names = [n for n, _ in net.named_parameters()]
        assert "fc1.weight" in names and "fc2.bias" in names
        assert len(net.parameters()) == 4

    def test_nested_modules(self):
        outer = Sequential(Net(), Net())
        assert len(outer.parameters()) == 8

    def test_module_list(self):
        ml = ModuleList([Linear(2, 2), Linear(2, 2)])
        assert len(ml) == 2
        assert len(list(ml)) == 2
        assert isinstance(ml[1], Linear)
        params = dict(ml.named_parameters())
        assert "0.weight" in params and "1.bias" in params

    def test_module_list_append(self):
        ml = ModuleList()
        ml.append(Linear(2, 2))
        assert len(ml.parameters()) == 2

    def test_named_modules_walks_tree(self):
        net = Net()
        names = [n for n, _ in net.named_modules()]
        assert "" in names and "fc1" in names and "fc2" in names

    def test_num_parameters(self):
        net = Net()
        assert net.num_parameters() == 4 * 8 + 8 + 8 * 2 + 2


class TestState:
    def test_state_dict_roundtrip(self):
        a, b = Net(), Net()
        b.load_state_dict(a.state_dict())
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert np.allclose(pa.data, pb.data)

    def test_state_dict_copies(self):
        net = Net()
        state = net.state_dict()
        state["fc1.weight"][...] = 0.0
        assert not np.allclose(net.fc1.weight.data, 0.0)

    def test_load_strict_missing_raises(self):
        net = Net()
        state = net.state_dict()
        del state["fc1.weight"]
        with pytest.raises(KeyError):
            net.load_state_dict(state)

    def test_load_non_strict_ignores_extra(self):
        net = Net()
        state = net.state_dict()
        state["bogus"] = np.zeros(1)
        net.load_state_dict(state, strict=False)

    def test_load_shape_mismatch_raises(self):
        net = Net()
        state = net.state_dict()
        state["fc1.weight"] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            net.load_state_dict(state)

    def test_zero_grad_clears(self):
        net = Net()
        out = F.sum(net(Tensor(np.ones((2, 4)))))
        out.backward()
        assert net.fc1.weight.grad is not None
        net.zero_grad()
        assert net.fc1.weight.grad is None


class TestTrainEval:
    def test_train_eval_propagates(self):
        net = Net()
        net.eval()
        assert not net.training and not net.fc1.training
        net.train()
        assert net.training and net.fc2.training

    def test_forward_required(self):
        with pytest.raises(NotImplementedError):
            Module()(1)
