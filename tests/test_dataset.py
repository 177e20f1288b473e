import json
import os
from pathlib import Path

import pytest

from ethikit.dataset import (
    HARD_TEST_COUNTS,
    TEST_COUNTS,
    DomainSpec,
    SplitManifest,
    default_specs,
    load_specs,
    load_split,
    render_manifest_report,
    serialize_split,
    verify_manifest,
)
from ethikit.errors import (
    BadLabel,
    ConfigError,
    MissingColumn,
    MissingField,
    RaggedRow,
    UnreadableFile,
)


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


class TestSpecs:
    def test_defaults_cover_all_domains(self):
        specs = default_specs()
        assert set(specs) == {"commonsense", "justice", "virtue", "deontology"}
        assert not specs["commonsense"].has_pair
        assert not specs["justice"].has_pair
        assert specs["virtue"].has_pair
        assert specs["deontology"].has_pair

    def test_editable_spec_file(self, tmp_path):
        path = tmp_path / "domains.json"
        path.write_text(
            '{"justice": {"label_col": "y", "text_a_col": "text"}}', encoding="utf-8"
        )
        specs = load_specs(path)
        assert specs["justice"].label_col == "y"

    @pytest.mark.parametrize("missing", ["label_col", "text_a_col"])
    def test_missing_key_is_config_error(self, tmp_path, missing):
        cols = {"label_col": "label", "text_a_col": "scenario"}
        del cols[missing]
        path = tmp_path / "domains.json"
        path.write_text(json.dumps({"justice": cols}), encoding="utf-8")
        with pytest.raises(ConfigError, match=f"'justice'.*'{missing}'"):
            load_specs(path)

    def test_unreadable_spec_file(self, tmp_path):
        with pytest.raises(UnreadableFile, match="is a directory"):
            load_specs(tmp_path)
        path = tmp_path / "domains.json"
        path.write_bytes('{"justice": {"label_col": "\xe9"}}'.encode("latin-1"))
        with pytest.raises(UnreadableFile, match="not UTF-8"):
            load_specs(path)

    def test_pack_and_pair_exclusive(self):
        with pytest.raises(ConfigError):
            DomainSpec("virtue", "label", "scenario",
                       text_b_col="x", pack_separator="[SEP]")


class TestManifest:
    def test_pass(self):
        manifest = SplitManifest(counts={"test": 4})
        checks = verify_manifest({"test": 4}, manifest)
        assert all(c.ok for c in checks)

    def test_off_by_one_reports_delta(self):
        manifest = SplitManifest(counts={"test": 5})
        (check,) = verify_manifest({"test": 4}, manifest)
        assert not check.ok
        assert check.delta == -1
        assert "delta -1" in render_manifest_report([check])

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
        from ethikit.cli import _resolve_split_file

        spec = default_specs()[domain]
        root = Path(ETHICS_DIR)
        test_file = _resolve_split_file(root, domain, "test")
        assert len(load_split(test_file, spec)) == TEST_COUNTS[domain]
        hard_file = _resolve_split_file(root, domain, "test_hard")
        assert len(load_split(hard_file, spec)) == HARD_TEST_COUNTS[domain]
