from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from klsums.serialize import jsonify


class Pair(NamedTuple):
    index: int
    tag: str


@dataclass
class Report:
    values: tuple[int, ...]
    pairs: list[Pair]
    z: complex
    peak: np.float64

    @property
    def total(self) -> int:
        return sum(self.values)

    @property
    def _hidden(self) -> int:
        return 0


def test_dataclass_fields_plus_public_properties():
    rep = Report(values=(1, 2), pairs=[Pair(3, "a")], z=1 - 2j, peak=np.float64(0.5))
    assert jsonify(rep) == {
        "values": [1, 2],
        "pairs": [{"index": 3, "tag": "a"}],
        "z": {"re": 1.0, "im": -2.0},
        "peak": 0.5,
        "total": 3,
    }


def test_numpy_values_become_python_values():
    out = jsonify({1: np.array([1 + 1j, 2]), "n": np.int64(4), "ok": np.bool_(True)})
    assert out == {"1": [{"re": 1.0, "im": 1.0}, {"re": 2.0, "im": 0.0}], "n": 4, "ok": True}
    assert type(out["n"]) is int and type(out["ok"]) is bool
