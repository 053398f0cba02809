"""Tests for the sequence data pipeline (repro.nn.data)."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.nn.data import (
    Batch,
    DataLoader,
    Dataset,
    SequenceExample,
    collate,
    pack,
    train_test_split,
)


def example(length: int, dim: int = 3, seed: int = 0) -> SequenceExample:
    rng = np.random.default_rng(seed)
    return SequenceExample(
        features=rng.standard_normal((length, dim)),
        labels=rng.integers(0, 5, length),
    )


class TestSequenceExample:
    def test_length(self):
        assert len(example(7)) == 7

    def test_rejects_1d_features(self):
        with pytest.raises(ShapeError):
            SequenceExample(features=np.zeros(5), labels=np.zeros(5, dtype=int))

    def test_rejects_mismatched_labels(self):
        with pytest.raises(ShapeError):
            SequenceExample(features=np.zeros((5, 3)), labels=np.zeros(4, dtype=int))


class TestCollate:
    def test_pads_to_max_length(self):
        batch = collate([example(3), example(7), example(5)])
        assert batch.features.shape == (7, 3, 3)
        assert batch.labels.shape == (7, 3)
        assert batch.mask.shape == (7, 3)

    def test_mask_marks_real_frames(self):
        batch = collate([example(3), example(7)])
        np.testing.assert_array_equal(batch.mask[:, 0], [1, 1, 1, 0, 0, 0, 0])
        np.testing.assert_array_equal(batch.mask[:, 1], np.ones(7))

    def test_lengths(self):
        batch = collate([example(3), example(7)])
        np.testing.assert_array_equal(batch.lengths, [3, 7])

    def test_features_preserved(self):
        ex = example(4, seed=3)
        batch = collate([ex, example(6)])
        np.testing.assert_array_equal(batch.features[:4, 0, :], ex.features)

    def test_padding_is_zero(self):
        batch = collate([example(2), example(5)])
        assert np.all(batch.features[2:, 0, :] == 0.0)
        assert np.all(batch.labels[2:, 0] == 0)

    def test_num_frames(self):
        batch = collate([example(3), example(7)])
        assert batch.num_frames() == 10

    def test_batch_size_property(self):
        assert collate([example(3)] * 4).batch_size == 4

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            collate([])

    def test_rejects_mixed_dims(self):
        with pytest.raises(ShapeError):
            collate([example(3, dim=3), example(3, dim=4)])


class TestPack:
    def test_rows_sorted_longest_first_stably_and_packed_step_major(self):
        exs = [example(3, seed=1), example(5, seed=2), example(3, seed=3), example(5, seed=4)]
        batch = pack(exs)
        np.testing.assert_array_equal(batch.batch_sizes, [4, 4, 4, 2, 2])
        order = [1, 3, 0, 2]  # longest first, ties in the order given
        want = [exs[b].features[t] for t in range(5) for b in order if t < len(exs[b])]
        np.testing.assert_array_equal(batch.features, want)
        np.testing.assert_array_equal(
            batch.labels, [exs[b].labels[t] for t in range(5) for b in order if t < len(exs[b])]
        )

    def test_equal_lengths_pack_to_the_padded_frames(self):
        exs = [example(4, seed=s) for s in range(3)]
        padded = collate(exs)
        batch = pack(exs)
        np.testing.assert_array_equal(batch.features, padded.features.reshape(12, 3))
        np.testing.assert_array_equal(batch.batch_sizes, [3] * 4)

    def test_rejects_empty_and_mixed_dims(self):
        with pytest.raises(ValueError):
            pack([])
        with pytest.raises(ShapeError):
            pack([example(3, dim=3), example(3, dim=4)])


class TestDataLoader:
    def make_dataset(self, n=10):
        return Dataset([example(3 + i % 4, seed=i) for i in range(n)])

    def test_num_batches(self):
        loader = DataLoader(self.make_dataset(10), batch_size=3, shuffle=False)
        assert len(loader) == 4
        assert len(list(loader)) == 4

    def test_drop_last(self):
        loader = DataLoader(
            self.make_dataset(10), batch_size=3, shuffle=False, drop_last=True
        )
        assert len(loader) == 3
        assert all(b.batch_size == 3 for b in loader)

    def test_covers_all_examples(self):
        loader = DataLoader(self.make_dataset(10), batch_size=3, shuffle=True, rng=0)
        total = sum(batch.batch_size for batch in loader)
        assert total == 10

    def test_shuffle_is_deterministic_per_seed(self):
        def first_lengths(seed):
            loader = DataLoader(self.make_dataset(), batch_size=4, rng=seed)
            return next(iter(loader)).lengths.tolist()

        assert first_lengths(7) == first_lengths(7)

    def test_no_shuffle_preserves_order(self):
        dataset = self.make_dataset()
        loader = DataLoader(dataset, batch_size=4, shuffle=False)
        batch = next(iter(loader))
        np.testing.assert_array_equal(
            batch.lengths, [len(dataset[i]) for i in range(4)]
        )

    def test_rejects_bad_batch_size(self):
        with pytest.raises(ValueError):
            DataLoader(self.make_dataset(), batch_size=0)


class TestSplit:
    def test_sizes(self):
        train, test = train_test_split(
            Dataset([example(3, seed=i) for i in range(10)]), 0.3, rng=0
        )
        assert len(test) == 3
        assert len(train) == 7

    def test_disjoint_and_complete(self):
        dataset = Dataset([example(3, seed=i) for i in range(10)])
        train, test = train_test_split(dataset, 0.3, rng=0)
        train_ids = {id(ex) for ex in train.examples}
        test_ids = {id(ex) for ex in test.examples}
        assert not train_ids & test_ids
        assert len(train_ids | test_ids) == 10

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            train_test_split(Dataset([example(3)]), 0.0)
