"""Properties and fuzzing of the public functions that take user data.

Whatever they are given, these functions return or raise an EthikitError,
never another exception. ``serialize_split`` followed by ``load_split`` is
the identity on every example a spec can hold, and an example it cannot
hold raises before the file is opened. Texts are drawn without NUL, which
Python 3.10's csv reader rejects; the arbitrary bytes include it.
"""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ethikit import hard_filter, metrics, model, normalize, report, tokenizer
from ethikit.batching import Example
from ethikit.dataset import DomainSpec, default_specs, load_split, serialize_split
from ethikit.errors import BadLabel, EthikitError, MissingField

SPECS = {
    **default_specs(),
    # a spec built in code: other names, and a separator of its own
    "in_code": DomainSpec(label_col="verdict", text_a_col="case", pack_separator="|"),
}

_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
                max_size=12)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


@st.composite
def fitting_examples(draw, spec: DomainSpec):
    """An Example that ``spec``'s layout holds."""
    label = draw(st.sampled_from([0, 1]))
    if spec.pack_separator is None:
        text_b = draw(_TEXT) if spec.text_b_col is not None else None
        return Example(text_a=draw(_TEXT), text_b=text_b, label=label)
    # a packed row strips both texts and splits at the first separator
    text_a = draw(_TEXT.map(str.strip).filter(lambda t: spec.pack_separator not in t))
    return Example(text_a=text_a, text_b=draw(_TEXT.map(str.strip)), label=label)


_ANY_EXAMPLE = st.builds(
    Example, text_a=_TEXT, text_b=st.none() | _TEXT,
    label=st.integers(-1, 2) | st.sampled_from([True, 1.0, "1"]),
)


class TestRoundTrip:
    @pytest.mark.parametrize("name", SPECS)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_written_rows_read_back(self, workdir, name, data):
        spec = SPECS[name]
        examples = data.draw(st.lists(fitting_examples(spec), max_size=6))
        path = workdir / f"{name}.csv"
        serialize_split(examples, spec, path)
        assert load_split(path, spec) == examples

    @pytest.mark.parametrize("name", SPECS)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_misfit_raises_before_writing(self, workdir, name, data):
        spec = SPECS[name]
        examples = data.draw(st.lists(fitting_examples(spec), max_size=3))
        examples.insert(data.draw(st.integers(0, len(examples))), data.draw(_ANY_EXAMPLE))
        path = workdir / f"{name}.misfit.csv"
        path.unlink(missing_ok=True)
        try:
            serialize_split(examples, spec, path)
        except (BadLabel, MissingField):
            assert not path.exists()
        else:
            assert load_split(path, spec) == examples


def _returns_or_raises_typed(func, *args) -> None:
    try:
        func(*args)
    except EthikitError:
        pass


LOADERS = {
    **{f"load_split[{name}]": partial(load_split, spec=spec) for name, spec in SPECS.items()},
    "read_eval_csv": report.read_eval_csv,
    "load_vocab": tokenizer.load_vocab,
    "load_config": normalize.load_config,
    "load_checkpoint": model.load_checkpoint,
}


@pytest.fixture(scope="module")
def valid_files(workdir) -> dict[str, bytes]:
    """One file each loader reads without error, by name."""
    files = {
        "read_eval_csv": f"{metrics.REPORT_CSV_HEADER}\njustice,0.5,0.5,0.5,0.5,0.5\n".encode(),
        "load_vocab": ("\n".join(tokenizer.SPECIAL_TOKENS) + "\nword\n##s\n").encode(),
        "load_config": b"allcaps_threshold = 3\nacronym = US\ncan't = cannot\n",
    }
    for name, spec in SPECS.items():
        text_b = "b" if spec.text_b_col or spec.pack_separator else None
        path = workdir / f"valid.{name}.csv"
        serialize_split([Example(text_a="a", text_b=text_b, label=1)], spec, path)
        files[f"load_split[{name}]"] = path.read_bytes()
    cfg = model.ModelConfig(vocab_size=6, max_len=3, n_layers=1, n_heads=2, d_model=4, d_ff=4)
    model.save_checkpoint(model.init_params(cfg), workdir / "valid.ckpt")
    files["load_checkpoint"] = (workdir / "valid.ckpt").read_bytes()
    for name, data in files.items():
        (workdir / "check.bin").write_bytes(data)
        LOADERS[name](workdir / "check.bin")
    return files


@pytest.mark.parametrize("name", LOADERS)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_loader_on_arbitrary_bytes(workdir, valid_files, name, data):
    # a valid file cut at a drawn point, followed by drawn bytes
    valid = valid_files[name]
    cut = data.draw(st.integers(0, len(valid)))
    path = workdir / f"{name}.bin"
    path.write_bytes(valid[:cut] + data.draw(st.binary(max_size=64)))
    _returns_or_raises_typed(LOADERS[name], path)


_ARRAYS = hnp.arrays(
    dtype=st.sampled_from([np.float64, np.float32, np.int64, np.int8]),
    shape=hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=6),
)


@pytest.mark.filterwarnings("ignore::ethikit.metrics.DegenerateMetricWarning")
class TestArrays:
    @given(scores=_ARRAYS, q=st.floats())
    @settings(max_examples=150, deadline=None)
    def test_hard_indices(self, scores, q):
        _returns_or_raises_typed(hard_filter.hard_indices, scores, q)

    @given(scores=_ARRAYS, pool_size=st.integers(0, 6), q=st.floats())
    @settings(max_examples=150, deadline=None)
    def test_filter_hard(self, scores, pool_size, q):
        _returns_or_raises_typed(hard_filter.filter_hard, list(range(pool_size)), scores, q)

    @given(scores=_ARRAYS, labels=_ARRAYS)
    @settings(max_examples=150, deadline=None)
    def test_build_report(self, scores, labels):
        _returns_or_raises_typed(metrics.build_report, scores, labels)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_build_report_on_arrays_of_one_shape(self, data):
        shape = data.draw(hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=6))
        scores = data.draw(hnp.arrays(np.float64, shape))
        labels = data.draw(hnp.arrays(np.int64, shape, elements=st.integers(-1, 2)))
        _returns_or_raises_typed(metrics.build_report, scores, labels)
