"""Tests for the columnar dataset representation and the interner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.columnar import ColumnarDataset, Interner, global_interner
from repro.core import WeightedDataset


class TestInterner:
    def test_codes_are_stable_and_injective(self):
        interner = Interner()
        a = interner.code("a")
        b = interner.code((1, 2))
        assert interner.code("a") == a
        assert a != b
        assert interner.atom(a) == "a"
        assert interner.atom(b) == (1, 2)

    def test_bulk_roundtrip(self):
        interner = Interner()
        atoms = ["x", 3, (1, "y"), 3, "x"]
        codes = interner.codes(atoms)
        assert codes.dtype == np.int64
        assert interner.atoms(codes) == atoms
        assert codes[0] == codes[4] and codes[1] == codes[3]

    def test_global_interner_is_shared(self):
        assert global_interner() is global_interner()

    def test_equal_atoms_unify_like_dict_keys(self):
        # WeightedDataset is dict-keyed, so 1 == 1.0 == True are one record;
        # the encoding must unify them (first representative wins) or the
        # kernels would fail to match records the eager backend matches.
        interner = Interner()
        codes = {interner.code(atom) for atom in (True, 1, 1.0)}
        assert len(codes) == 1
        assert interner.atom(interner.code(1.0)) is True
        nested = {interner.code(atom) for atom in ((1.0, 3), (True, 3), (1, 3))}
        assert len(nested) == 1

    def test_mixed_numeric_records_roundtrip_as_equal_datasets(self):
        # (41.0, 3) and (41, 3) are one dict entry; the decoded dataset must
        # be ==-equal to the original even if the representative differs.
        data = WeightedDataset([((41.0, 3), 2.0), ((41, 3), 4.0), ((42, 2), 1.0)])
        assert len(data) == 2  # dict semantics already unified (41.0,3)/(41,3)
        columnar = ColumnarDataset.from_weighted(data)
        decoded = columnar.to_weighted()
        assert decoded.distance(data) == 0.0
        assert decoded[(41, 3)] == pytest.approx(6.0)


class TestColumnarDataset:
    def test_tuple_records_decompose(self):
        data = WeightedDataset({(1, 2): 1.0, (2, 3): 2.0})
        columnar = ColumnarDataset.from_weighted(data)
        assert columnar.decomposed and columnar.arity == 2
        assert len(columnar.columns) == 2
        assert columnar.to_weighted().distance(data) == 0.0

    def test_scalar_records_are_opaque(self):
        data = WeightedDataset({"a": 1.0, 7: 2.0})
        columnar = ColumnarDataset.from_weighted(data)
        assert not columnar.decomposed and columnar.arity is None
        assert columnar.to_weighted().distance(data) == 0.0

    def test_mixed_arity_records_are_opaque(self):
        data = WeightedDataset({(1, 2): 1.0, (1, 2, 3): 2.0, "x": 0.5})
        columnar = ColumnarDataset.from_weighted(data)
        assert columnar.arity is None
        assert columnar.to_weighted().distance(data) == 0.0

    def test_nested_tuples_roundtrip(self):
        data = WeightedDataset({((1, 2, 3), 4): 1.5, ((2, 3, 1), 9): 0.25})
        columnar = ColumnarDataset.from_weighted(data)
        assert columnar.arity == 2
        assert columnar.to_weighted().distance(data) == 0.0

    def test_from_pairs_accumulates_collisions(self):
        columnar = ColumnarDataset.from_pairs([(1, 2), (1, 2), (2, 3)], [1.0, 2.5, 1.0])
        assert len(columnar) == 2
        assert columnar.to_weighted()[(1, 2)] == pytest.approx(3.5)

    def test_tolerance_dust_is_dropped(self):
        columnar = ColumnarDataset.from_pairs(["a", "b"], [1.0, 1e-15])
        assert len(columnar) == 1
        assert columnar.to_weighted()["b"] == 0.0

    def test_cancellation_drops_record(self):
        columnar = ColumnarDataset.from_pairs(["a", "a", "b"], [1.0, -1.0, 2.0])
        assert len(columnar) == 1

    def test_record_codes_consistent_across_layouts(self):
        data = WeightedDataset({(1, 2): 1.0, (2, 3): 2.0})
        decomposed = ColumnarDataset.from_weighted(data)
        opaque = decomposed.as_opaque()
        assert opaque.arity is None
        assert sorted(decomposed.record_codes().tolist()) == sorted(
            opaque.record_codes().tolist()
        )
        assert opaque.to_weighted().distance(data) == 0.0

    def test_total_weight_matches_norm(self):
        data = WeightedDataset({(1, 2): 1.5, (3, 4): -2.0})
        columnar = ColumnarDataset.from_weighted(data)
        assert columnar.total_weight() == pytest.approx(data.total_weight())

    def test_empty_dataset(self):
        empty = ColumnarDataset.empty()
        assert empty.is_empty() and len(empty) == 0
        assert empty.to_weighted().is_empty()
        shaped = ColumnarDataset.empty(arity=3)
        assert shaped.arity == 3 and len(shaped.columns) == 3

    def test_namedtuples_survive_roundtrip(self):
        import collections

        Edge = collections.namedtuple("Edge", "src dst")
        data = WeightedDataset({Edge(1, 2): 1.0})
        columnar = ColumnarDataset.from_weighted(data)
        # A tuple subclass must not be decomposed (rebuilding would lose the
        # type), so it round-trips through the opaque layout.
        assert columnar.arity is None
        assert list(columnar.to_weighted().records()) == [Edge(1, 2)]

    def test_misaligned_pairs_rejected(self):
        with pytest.raises(ValueError):
            ColumnarDataset.from_pairs(["a"], [1.0, 2.0])
