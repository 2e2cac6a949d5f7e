import json

import numpy as np
import pytest

from bagkit.dataset import Dataset, Example, SplitSpec, load_jsonl, split
from bagkit.errors import DataError

from conftest import make_dataset

LABEL_MAP = {"false": 0, "true": 1}


def records(n=4):
    return [
        {"id": f"ex{i}", "text_a": f"text number {i}", "label": "true" if i % 2 else "false"}
        for i in range(n)
    ]


class TestLoadJsonl:
    def test_four_line_file(self, jsonl_file):
        path = jsonl_file(records(4))
        ds = load_jsonl(path, num_classes=2, label_map=LABEL_MAP)
        assert len(ds) == 4
        assert ds.num_classes == 2
        assert [ex.id for ex in ds.examples] == ["ex0", "ex1", "ex2", "ex3"]
        assert [ex.label for ex in ds.examples] == [0, 1, 0, 1]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DataError, match="empty dataset"):
            load_jsonl(path, 2, LABEL_MAP)

    def test_unknown_label_names_line_and_label(self, jsonl_file):
        rows = records(3)
        rows[2]["label"] = "maybe"
        path = jsonl_file(rows)
        with pytest.raises(DataError, match=r":3:.*maybe"):
            load_jsonl(path, 2, LABEL_MAP)

    def test_malformed_line_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = json.dumps(records(1)[0])
        path.write_text(good + "\nnot json\n", encoding="utf-8")
        with pytest.raises(DataError, match=r":2:"):
            load_jsonl(path, 2, LABEL_MAP)

    def test_lone_surrogate_names_line(self, jsonl_file):
        recs = records()
        recs[1]["text_a"] = "text \udc80 number"  # json.dumps writes it as the escape \\udc80
        with pytest.raises(DataError, match=r"data.jsonl:2: example 'ex1': text_a .* position 5"):
            load_jsonl(jsonl_file(recs), 2, LABEL_MAP)

    def test_duplicate_id(self, jsonl_file):
        rows = records(2)
        rows[1]["id"] = rows[0]["id"]
        with pytest.raises(DataError, match="duplicate id"):
            load_jsonl(jsonl_file(rows), 2, LABEL_MAP)

    def test_missing_file_names_path(self, tmp_path):
        missing = tmp_path / "nope.jsonl"
        with pytest.raises(DataError, match="nope.jsonl"):
            load_jsonl(missing, 2, LABEL_MAP)

    def test_missing_keys(self, jsonl_file):
        with pytest.raises(DataError, match=r":1:.*label"):
            load_jsonl(jsonl_file([{"id": "a", "text_a": "x"}]), 2, LABEL_MAP)

    def test_label_index_out_of_range(self, jsonl_file):
        path = jsonl_file(records(2))
        with pytest.raises(DataError, match="num_classes"):
            load_jsonl(path, 2, {"false": 0, "true": 5})

    def test_unknown_keys_ignored(self, jsonl_file):
        rows = records(1)
        rows[0]["extra"] = "whatever"
        ds = load_jsonl(jsonl_file(rows), 2, LABEL_MAP)
        assert len(ds) == 1

    def test_text_b_loaded(self, jsonl_file):
        rows = records(1)
        rows[0]["text_b"] = "second sentence"
        ds = load_jsonl(jsonl_file(rows), 2, LABEL_MAP)
        assert ds[0].text_b == "second sentence"

    def test_roundtrip_identical(self, jsonl_file):
        path = jsonl_file(records(6))
        assert load_jsonl(path, 2, LABEL_MAP) == load_jsonl(path, 2, LABEL_MAP)


class TestExample:
    def test_empty_text_b_canonicalized_to_none(self):
        a = Example(id="x", text_a="hello", label=0, text_b="")
        b = Example(id="x", text_a="hello", label=0, text_b=None)
        assert a == b

    def test_empty_text_a_rejected(self):
        with pytest.raises(DataError):
            Example(id="x", text_a="", label=0)

    def test_negative_label_rejected(self):
        with pytest.raises(DataError):
            Example(id="x", text_a="hello", label=-1)

    @pytest.mark.parametrize("field", ["text_a", "text_b"])
    def test_lone_surrogate_rejected_naming_field_and_position(self, field):
        texts = {"text_a": "alpha", "text_b": None, field: "alpha beta \ud800"}
        with pytest.raises(DataError, match=f"'x': {field} is not valid Unicode at position 11"):
            Example(id="x", label=0, **texts)

    def test_non_ascii_text_accepted(self):
        ex = Example(id="x", text_a="café 日本", label=0, text_b="naïve\u3000text")
        assert ex.text_b == "naïve\u3000text"


class TestSplit:
    def test_half_of_100(self):
        ds = make_dataset([i % 2 for i in range(100)])
        first, second = split(ds, SplitSpec(fraction=0.5, seed=7))
        assert len(first) == 50 and len(second) == 50
        ids_first = {ex.id for ex in first.examples}
        ids_second = {ex.id for ex in second.examples}
        assert not ids_first & ids_second
        assert ids_first | ids_second == {ex.id for ex in ds.examples}

    def test_deterministic(self):
        ds = make_dataset([i % 3 for i in range(90)], num_classes=3)
        spec = SplitSpec(fraction=0.4, seed=123)
        assert split(ds, spec) == split(ds, spec)

    @pytest.mark.parametrize("seed", [0, 7, 99, 12345])
    def test_stratified_six_four(self, seed):
        # 6 class-0 + 4 class-1 at 0.5: quotas are 3 and 2 for any seed.
        ds = make_dataset([0] * 6 + [1] * 4)
        first, second = split(ds, SplitSpec(fraction=0.5, seed=seed, stratified=True))
        assert len(first) == 5 and len(second) == 5
        assert sum(1 for ex in first.examples if ex.label == 0) == 3
        assert sum(1 for ex in second.examples if ex.label == 0) == 3

    def test_partition_property_1000_triples(self):
        rng = np.random.default_rng(2718)
        for _ in range(1000):
            n = int(rng.integers(2, 60))
            fraction = float(rng.uniform(0.05, 0.95))
            seed = int(rng.integers(0, 2**32))
            stratified = bool(rng.integers(0, 2))
            labels = [int(x) for x in rng.integers(0, 2, size=n)]
            if stratified and len(set(labels)) < 2:
                labels[0] = 1 - labels[0]
            ds = make_dataset(labels)
            first, second = split(ds, SplitSpec(fraction, seed, stratified))
            combined = sorted(ex.id for ex in first.examples + second.examples)
            assert combined == sorted(ex.id for ex in ds.examples)

    def test_stratification_bound(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(6, 80))
            k = int(rng.integers(2, 4))
            labels = [int(x) for x in rng.integers(0, k, size=n)]
            for c in range(k):  # ensure every class present
                labels[c] = c
            fraction = float(rng.uniform(0.1, 0.9))
            ds = make_dataset(labels, num_classes=k)
            first, _ = split(ds, SplitSpec(fraction, int(rng.integers(0, 999)), True))
            for c in range(k):
                total_c = labels.count(c)
                in_first = sum(1 for ex in first.examples if ex.label == c)
                assert abs(in_first - fraction * total_c) <= 1.0

    def test_preserves_source_order(self):
        ds = make_dataset([0, 1] * 10)
        first, second = split(ds, SplitSpec(fraction=0.3, seed=5, stratified=False))
        pos = {ex.id: i for i, ex in enumerate(ds.examples)}
        assert [pos[ex.id] for ex in first.examples] == sorted(pos[ex.id] for ex in first.examples)
        assert [pos[ex.id] for ex in second.examples] == sorted(pos[ex.id] for ex in second.examples)

    def test_too_small(self):
        ds = make_dataset([0, 1])
        with pytest.raises(DataError, match="too small"):
            split(Dataset("one", ds.examples[:1], 2), SplitSpec(0.5, 0))

    def test_stratified_missing_class(self):
        ds = make_dataset([0, 0, 0], num_classes=2)
        with pytest.raises(DataError, match="stratification"):
            split(ds, SplitSpec(0.5, 0, stratified=True))

    def test_fraction_bounds(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(DataError):
                SplitSpec(fraction=bad)
