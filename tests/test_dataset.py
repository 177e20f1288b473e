import os
import re

import pytest

from ethikit.batching import Example
from ethikit.dataset import (
    HARD_TEST_COUNTS,
    TEST_COUNTS,
    DomainSpec,
    default_specs,
    load_split,
    serialize_split,
)
from ethikit.errors import (
    BadLabel,
    ConfigError,
    MissingColumn,
    MissingField,
    RaggedRow,
    UnusablePath,
)
from tests.conftest import ethics_split_file


class TestLoadSplit:
    def test_justice_fixture(self, fixtures_dir):
        spec = default_specs()["justice"]
        examples = load_split(fixtures_dir / "justice_test.csv", spec)
        assert len(examples) == 4
        assert all(ex.text_b is None for ex in examples)
        assert [ex.label for ex in examples] == [1, 0, 1, 0]
        assert examples[2].text_a.startswith("She earned the award,")

    def test_virtue_packed_fields_split(self, fixtures_dir):
        spec = default_specs()["virtue"]
        examples = load_split(fixtures_dir / "virtue_test.csv", spec)
        assert len(examples) == 6
        assert examples[0].text_b == "patience"
        assert examples[0].text_a == "Martha waited patiently for her turn at the clinic."

    def test_deontology_pair_columns(self, fixtures_dir):
        spec = default_specs()["deontology"]
        examples = load_split(fixtures_dir / "deontology_test.csv", spec)
        assert len(examples) == 5
        assert examples[4].text_a == "Can you cover my shift, please?"
        assert examples[4].text_b == "My child is sick and needs me at home."

    def test_commonsense_quoted_fields(self, fixtures_dir):
        spec = default_specs()["commonsense"]
        examples = load_split(fixtures_dir / "cm_test.csv", spec)
        assert len(examples) == 4
        assert examples[2].text_a == 'I said "thank you" and left quietly.'

    def test_bad_label(self, fixtures_dir):
        with pytest.raises(BadLabel):
            load_split(fixtures_dir / "bad_label.csv", default_specs()["justice"])

    def test_ragged_row(self, fixtures_dir):
        with pytest.raises(RaggedRow):
            load_split(fixtures_dir / "ragged.csv", default_specs()["justice"])

    def test_missing_column(self, fixtures_dir):
        with pytest.raises(MissingColumn):
            load_split(fixtures_dir / "missing_col.csv", default_specs()["justice"])

    def test_virtue_row_without_separator(self, tmp_path):
        path = tmp_path / "virtue.csv"
        path.write_text("label,scenario\n1,no separator here\n", encoding="utf-8")
        with pytest.raises(MissingField):
            load_split(path, default_specs()["virtue"])

    def test_error_names_the_row(self, tmp_path):
        path = tmp_path / "justice.csv"
        path.write_text("label,scenario\n1,fine\n0,fine\nyes,not a label\n", encoding="utf-8")
        with pytest.raises(BadLabel, match=f"{re.escape(str(path))} row 4: label 'yes'"):
            load_split(path, default_specs()["justice"])

    @pytest.mark.parametrize("text, error, where", [
        ("", MissingColumn, "0 columns named 'label'"),
        ("label,scenario,scenario\n1,first,last\n", MissingColumn, "2 columns named 'scenario'"),
        ("label,scenario\n1,a,b\n", RaggedRow, "row 2: 3 fields"),
        # the csv module refuses a field past its (process-wide) size limit
        ("label,scenario\n1,short\n0," + "x" * 200_000 + "\n", RaggedRow,
         "line 3: field larger than field limit"),
    ])
    def test_unreadable_file_names_the_place(self, tmp_path, text, error, where):
        path = tmp_path / "justice.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(error, match=f"{re.escape(str(path))}:? {where}"):
            load_split(path, default_specs()["justice"])

    def test_missing_file(self, tmp_path):
        path = tmp_path / "missing.csv"
        with pytest.raises(UnusablePath, match=f"{path}: no such file"):
            load_split(path, default_specs()["justice"])

    def test_spec_built_in_code(self, tmp_path):
        spec = DomainSpec(label_col="y", text_a_col="claim", text_b_col="reason")
        path = tmp_path / "custom.csv"
        path.write_text("id,reason,y,claim\n7,it was raining,1,I stayed in\n",
                        encoding="utf-8")
        assert load_split(path, spec) == [
            Example(text_a="I stayed in", text_b="it was raining", label=1)
        ]


class TestSerializeRoundTrip:
    @pytest.mark.parametrize("domain,fixture", [
        ("justice", "justice_test.csv"),
        ("virtue", "virtue_test.csv"),
        ("deontology", "deontology_test.csv"),
        ("commonsense", "cm_test.csv"),
    ])
    def test_loss_free(self, tmp_path, fixtures_dir, domain, fixture):
        spec = default_specs()[domain]
        examples = load_split(fixtures_dir / fixture, spec)
        out = tmp_path / "out.csv"
        serialize_split(examples, spec, out)
        again = load_split(out, spec)
        assert again == examples

    @pytest.mark.parametrize("domain, example", [
        ("virtue", Example(text_a="a b", label=1)),
        ("virtue", Example(text_a="a [SEP] b", text_b="c", label=1)),
        ("virtue", Example(text_a="a ", text_b="b", label=1)),
        ("virtue", Example(text_a="a", text_b=" b", label=1)),
        ("justice", Example(text_a="a", text_b="b", label=0)),
        ("deontology", Example(text_a="a", label=0)),
        ("justice", Example(text_a="a\ud800", label=1)),
    ])
    def test_misfit_raises_and_writes_nothing(self, tmp_path, domain, example):
        out = tmp_path / "out.csv"
        fits = Example(text_a="fits", text_b="pair" if domain != "justice" else None, label=1)
        with pytest.raises(MissingField, match="would not read back"):
            serialize_split([fits, example], default_specs()[domain], out)
        assert not out.exists()

    def test_label_outside_0_1_raises(self, tmp_path):
        out = tmp_path / "out.csv"
        with pytest.raises(BadLabel, match="label '2' not in"):
            serialize_split([Example(text_a="a", label=2)], default_specs()["justice"], out)
        assert not out.exists()


class TestSpecs:
    def test_defaults_cover_all_domains(self):
        specs = default_specs()
        assert set(specs) == {"commonsense", "justice", "virtue", "deontology"}
        for single in ("commonsense", "justice"):
            assert specs[single].text_b_col is None and specs[single].pack_separator is None
        assert specs["virtue"].pack_separator == "[SEP]"
        assert specs["deontology"].text_b_col == "excuse"

    def test_pack_and_pair_exclusive(self):
        with pytest.raises(ConfigError):
            DomainSpec(label_col="label", text_a_col="scenario",
                       text_b_col="x", pack_separator="[SEP]")

    @pytest.mark.parametrize("fields", [{"pack_separator": ""}, {"text_b_col": "scenario"}])
    def test_empty_separator_or_repeated_column_rejected(self, fields):
        with pytest.raises(ConfigError):
            DomainSpec(label_col="label", text_a_col="scenario", **fields)


class TestManifest:
    def test_published_count_tables(self):
        assert TEST_COUNTS == {"commonsense": 3885, "justice": 2704,
                               "virtue": 4975, "deontology": 3596}
        assert HARD_TEST_COUNTS == {"commonsense": 3964, "justice": 2052,
                                    "virtue": 4780, "deontology": 3536}


ETHICS_DIR = os.environ.get("ETHICS_DATA_DIR")


@pytest.mark.skipif(not ETHICS_DIR, reason="set ETHICS_DATA_DIR to run on real data")
class TestRealData:
    @pytest.mark.parametrize("domain", ["commonsense", "justice", "virtue", "deontology"])
    def test_counts_match_published_tables(self, domain):
        spec = default_specs()[domain]
        test_file = ethics_split_file(ETHICS_DIR, domain, "test")
        assert len(load_split(test_file, spec)) == TEST_COUNTS[domain]
        hard_file = ethics_split_file(ETHICS_DIR, domain, "test_hard")
        assert len(load_split(hard_file, spec)) == HARD_TEST_COUNTS[domain]
