"""The shared codecs in `asymgraph.formats`, through every loader.

Each loader round-trips what its writer writes and agrees with the
hand-written loader it replaced (kept in `reference`) on every valid file.
Malformed input, whether fuzzed lines or fuzzed bytes, raises
DataFormatError and nothing else.
"""

import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from asymgraph.errors import DataFormatError
from asymgraph.formats import HEADER, load_config, save_config
from asymgraph.graph import (KeyMap, build_graph, dump_edge_file,
                             dump_feature_file, load_edge_file,
                             load_feature_file)
from asymgraph.model import (CHECKPOINT_MAGIC, DualEmbeddings, ModelParams,
                             dump_embeddings, load_checkpoint,
                             load_embeddings, save_checkpoint)
from asymgraph.synth import SynthConfig, generate, write_corpus
from asymgraph.trainer import (STATE_MAGIC, STATE_VERSION, AdamState,
                               TrainConfig, TrainState, resume, run_digest,
                               save_train_state)

FUZZ = settings(max_examples=60)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("formats")


def _loads_or_rejects(load, path):
    """Malformed input may only raise DataFormatError."""
    try:
        load(path)
    except DataFormatError:
        pass


# --- strategies ---------------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False)
# keys the text formats can carry: non-empty, no tab or line break, no
# leading `#`
keys = st.text(st.characters(blacklist_characters="\t\n\r",
                             blacklist_categories=("Cs",)),
               min_size=1, max_size=8).filter(lambda k: not k.startswith("#"))
# keys they cannot
BAD_KEYS = ["", "#a", "a\tb", "a\rb", "a\nb", "a\r\nb"]


@st.composite
def train_configs(draw):
    layers = draw(st.integers(1, 4))
    return TrainConfig(
        lr=draw(st.floats(0, 1)),
        batch_size=draw(st.integers(1, 10**6)),
        max_epochs=draw(st.integers(1, 100)),
        num_layers=layers,
        embed_dim=draw(st.integers(1, 256)),
        fanouts=tuple(draw(st.lists(st.integers(1, 50), min_size=layers,
                                    max_size=layers))),
        num_negatives=draw(st.integers(1, 20)),
        beta1=draw(st.floats(0, 1, exclude_max=True)),
        beta2=draw(st.floats(0, 1, exclude_max=True)),
        eps=draw(st.floats(1e-12, 1)),
        root_seed=draw(st.integers(0, 2**40)),
        patience=draw(st.integers(1, 10)),
        coview_per_batch=draw(st.integers(1, 4096)),
        negative_form=draw(st.sampled_from(["one_minus_dot", "negated_dot"])),
        term_weights=tuple(draw(st.lists(finite, min_size=6, max_size=6))))


synth_configs = st.builds(
    SynthConfig, num_categories=st.integers(1, 500),
    products_per_category=st.integers(1, 500),
    accessory_fraction=st.floats(0, 1), cp_edge_prob=st.floats(0, 1),
    reciprocal_prob=st.floats(0, 1), cv_clique_size=st.integers(1, 20),
    feature_dim=st.integers(1, 128), noise_std=st.floats(0, 10),
    seed=st.integers(0, 2**40))


@st.composite
def keyed_rows(draw, groups):
    """(key map, `groups` finite n x d matrices), n >= 0, d >= 1."""
    names = draw(st.lists(keys, unique=True, max_size=6))
    d = draw(st.integers(1, 4))
    mats = [np.array(draw(st.lists(st.lists(finite, min_size=d, max_size=d),
                                   min_size=len(names), max_size=len(names))),
                     dtype=np.float64).reshape(len(names), d)
            for _ in range(groups)]
    return KeyMap(names), mats


@st.composite
def layer_stacks(draw, count):
    layers, d_in, d_h = (draw(st.integers(1, 3)), draw(st.integers(1, 4)),
                         draw(st.integers(1, 4)))
    return [[np.array(draw(st.lists(finite, min_size=r * d_h,
                                    max_size=r * d_h))).reshape(r, d_h)
             for r in [d_in] + [d_h] * (layers - 1)] for _ in range(count)]


def fuzzed_lines(fragments):
    """Lines glued from format-shaped fragments, plus arbitrary text."""
    line = st.one_of(st.lists(st.sampled_from(fragments), max_size=8)
                     .map("".join), st.text(max_size=20))
    return st.lists(line, max_size=8).map("\n".join)


ROW_FRAGMENTS = ["2", "1", "0", "-1", "\t", ",", "a", "b", "S:", "T:", "1.5",
                 "nan", "inf", "-", "e", "#", " ", "x"]
CONFIG_FRAGMENTS = [f.name for f in dataclasses.fields(TrainConfig)] + [
    f.name for f in dataclasses.fields(SynthConfig)] + [
    " = ", "=", "1", "0", ",", ".", "5", "-", "e", "nan", "inf", "#", " ",
    "one_minus_dot", "x"]


# --- configs ------------------------------------------------------------

@given(cfg=train_configs())
def test_train_config_roundtrip_matches_reference(scratch, cfg):
    path = scratch / "train.cfg"
    save_config(cfg, path)
    assert load_config(path, TrainConfig) == cfg == ref.load_config(path)


@given(cfg=synth_configs)
def test_synth_config_roundtrip_matches_reference(scratch, cfg):
    path = scratch / "synth.cfg"
    save_config(cfg, path)
    assert load_config(path, SynthConfig) == cfg == ref.load_synth_config(path)


@FUZZ
@given(text=fuzzed_lines(CONFIG_FRAGMENTS))
def test_config_fuzzed_lines_raise_only_data_errors(scratch, text):
    path = scratch / "fuzz.cfg"
    path.write_text(text, encoding="utf-8")
    for cls in (TrainConfig, SynthConfig):
        _loads_or_rejects(lambda p: load_config(p, cls), path)


@pytest.mark.parametrize("body, line", [
    ("lr = 0.1\n# note\nlr = 0.2\n", 3),           # duplicate key
    ("lr = nan\n", 1),
    ("\nbeta1 = inf\n", 2),
    ("eps = 1e400\n", 1),                          # overflows to inf
    ("term_weights = 1,1,1,-inf,1,1\n", 1),
    ("batch_size = 1.5\n", 1),
])
def test_config_rejects_with_line(tmp_path, body, line):
    path = tmp_path / "train.cfg"
    path.write_text(body)
    with pytest.raises(DataFormatError, match=rf"line {line}\b"):
        load_config(path, TrainConfig)


@pytest.mark.parametrize("body", ["negative_form = bogus\n", "beta1 = 1.0\n",
                                  "beta2 = -0.1\n"])
def test_config_rejects_out_of_range_values(tmp_path, body):
    path = tmp_path / "train.cfg"
    path.write_text(body)
    with pytest.raises(DataFormatError):
        load_config(path, TrainConfig)


def test_train_config_validates_negative_form_and_betas():
    with pytest.raises(ValueError, match="negative_form"):
        TrainConfig(negative_form="bogus")
    for name, val in (("beta1", 1.0), ("beta2", 1.5), ("beta1", -0.1)):
        with pytest.raises(ValueError, match=name):
            TrainConfig(**{name: val})
    TrainConfig(beta1=0.0, beta2=0.0)  # [0, 1) includes 0
    for name, val in (("lr", np.nan), ("eps", np.inf), ("batch_size", -1)):
        with pytest.raises(ValueError, match=name):
            TrainConfig(**{name: val})


def test_equal_configs_digest_alike(random_graph):
    g, X = random_graph()
    assert run_digest(TrainConfig(lr=1, beta1=0), g, X) == \
        run_digest(TrainConfig(lr=1.0, beta1=0.0), g, X)
    assert run_digest(TrainConfig(max_epochs=3), g, X) == \
        run_digest(TrainConfig(max_epochs=9), g, X)
    assert run_digest(TrainConfig(), g, X) != \
        run_digest(TrainConfig(patience=6), g, X)


# --- text rows: features and embeddings ---------------------------------

@given(data=keyed_rows(1))
def test_feature_roundtrip_matches_reference(scratch, data):
    km, (X,) = data
    path = scratch / "features.tsv"
    dump_feature_file(X, km, path)
    X2, km2 = load_feature_file(path)
    X3, km3 = ref.load_feature_file(path)
    assert np.array_equal(X2, X) and np.array_equal(X3, X)
    assert km2.keys() == km3.keys() == km.keys()


@given(data=keyed_rows(2))
def test_embedding_roundtrip_matches_reference(scratch, data):
    km, (S, T) = data
    emb = DualEmbeddings(np.arange(len(km)), S, T)
    path = scratch / "embeddings.tsv"
    dump_embeddings(emb, km, path)
    got, km2 = load_embeddings(path)
    want, km3 = ref.load_embeddings(path)
    for loaded in (got, want):
        assert np.array_equal(loaded.theta_s, S)
        assert np.array_equal(loaded.theta_t, T)
        assert np.array_equal(loaded.nodes, np.arange(len(km)))
    assert km2.keys() == km3.keys() == km.keys()


@FUZZ
@given(text=fuzzed_lines(ROW_FRAGMENTS))
def test_row_files_fuzzed_lines_raise_only_data_errors(scratch, text):
    path = scratch / "fuzz.tsv"
    path.write_text(text, encoding="utf-8")
    for load in (load_feature_file, load_embeddings, load_edge_file):
        _loads_or_rejects(load, path)


@FUZZ
@given(blob=st.binary(max_size=64))
def test_text_loaders_fuzzed_bytes_raise_only_data_errors(scratch, blob):
    path = scratch / "fuzz.bin"
    path.write_bytes(blob)
    for load in (load_feature_file, load_embeddings, load_edge_file,
                 lambda p: load_config(p, TrainConfig),
                 lambda p: load_config(p, SynthConfig)):
        _loads_or_rejects(load, path)


@pytest.mark.parametrize("body, line", [
    ("2\t2\np0\t1,2\np1\t3,nan\n", 3),            # non-finite, named
    ("1\t2\n# comment\n\np0\t1,inf\n", 4),
    ("-1\t2\n", 1),                                # negative header
    ("2\t-3\np0\t1,2\n", 1),
    ("1.5\t2\n", 1),                               # non-integer header
    ("1\t2\t3\n", 1),
    ("", 1),
])
def test_feature_file_rejects_with_line(tmp_path, body, line):
    path = tmp_path / "features.tsv"
    path.write_text(body)
    with pytest.raises(DataFormatError, match=rf"line {line}\b"):
        load_feature_file(path)


def test_feature_file_skips_blank_and_comment_lines(tmp_path):
    path = tmp_path / "features.tsv"
    path.write_text("2\t2\n# written by hand\np0\t1,2\n\np1\t3,4\n")
    X, km = load_feature_file(path)
    assert X.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert km.keys() == ["p0", "p1"]


def test_embeddings_skip_comment_lines(tmp_path):
    path = tmp_path / "emb.tsv"
    path.write_text("1\t1\n# dumped\na\tS:1\tT:2\n")
    emb, km = load_embeddings(path)
    assert emb.theta_s.tolist() == [[1.0]] and km.keys() == ["a"]


def test_row_header_count_is_not_preallocated(tmp_path):
    path = tmp_path / "features.tsv"
    path.write_text(f"{10**15}\t{10**15}\np0\t1,2\n")
    with pytest.raises(DataFormatError, match="line 2"):
        load_feature_file(path)
    path.write_text(f"{10**15}\t2\np0\t1,2\n")
    with pytest.raises(DataFormatError, match="found 1"):
        load_feature_file(path)


@pytest.mark.parametrize("load", [load_feature_file, load_embeddings,
                                  load_edge_file,
                                  lambda p: load_config(p, TrainConfig)])
def test_non_utf8_input_is_a_data_error(tmp_path, load):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"1\t2\np\xe9\t1,2\n")
    with pytest.raises(DataFormatError, match="UTF-8"):
        load(path)


@given(pairs=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                      max_size=12),
       cv=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                   max_size=6))
def test_edge_file_roundtrip(scratch, pairs, cv):
    km = KeyMap(f"p{i}" for i in range(6))
    g = build_graph(pairs, cv, 6)
    path = scratch / "graph.tsv"
    dump_edge_file(g, km, path)
    cp2, cv2, _ = load_edge_file(path, key_map=km)
    g2 = build_graph(cp2, cv2, 6)
    assert np.array_equal(g2.cp_edges, g.cp_edges)
    assert np.array_equal(g2.cv_pairs, g.cv_pairs)


# --- keys the text formats cannot hold ----------------------------------

def _writers(key):
    """Each text writer, given a key map holding `key` beside a good one."""
    km = KeyMap(["p0", key])
    X = np.ones((2, 2))
    g = build_graph([(0, 1)], [(0, 1)], 2)
    return {
        "features.tsv": lambda p: dump_feature_file(X, km, p),
        "embeddings.tsv": lambda p: dump_embeddings(
            DualEmbeddings(np.arange(2), X, X), km, p),
        "graph.tsv": lambda p: dump_edge_file(g, km, p),
    }


@pytest.mark.parametrize("key", BAD_KEYS)
@pytest.mark.parametrize("name", ["features.tsv", "embeddings.tsv",
                                  "graph.tsv"])
def test_writers_refuse_keys_their_readers_cannot_hold(tmp_path, key, name):
    path = tmp_path / name
    path.write_text("old\n")
    with pytest.raises(DataFormatError, match="cannot be written"):
        _writers(key)[name](path)
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == [name]


@FUZZ
@given(key=st.text(max_size=4))
def test_any_key_is_refused_or_read_back(scratch, key):
    """Whatever the key, a text file either refuses it or gives it back."""
    for name, write in _writers(key).items():
        path = scratch / name
        try:
            write(path)
        except DataFormatError:
            continue
        if name == "graph.tsv":
            cp, cv, km = load_edge_file(path)
            assert km.keys() == ["p0", key] and cp == cv == [(0, 1)]
        else:
            load = load_feature_file if name == "features.tsv" \
                else load_embeddings
            assert load(path)[1].keys() == ["p0", key]


@pytest.mark.parametrize("body, line", [
    ("a\tb\tcp\na\t#b\tcp\n", 2),    # a comment line once reordered
    ("a\t#b\tcv\n", 1),
    ("\tb\tcp\n", 1),                 # empty keys
    ("a\tb\tcp\na\t\tcv\n", 2),
])
def test_edge_file_refuses_keys_a_dump_cannot_hold(tmp_path, body, line):
    path = tmp_path / "edges.tsv"
    path.write_text(body)
    with pytest.raises(DataFormatError, match=rf"malformed edge lines {line}$"):
        load_edge_file(path)


def test_feature_file_refuses_an_empty_key(tmp_path):
    path = tmp_path / "features.tsv"
    path.write_text("2\t1\np0\t1\n\t2\n")
    with pytest.raises(DataFormatError, match="line 3"):
        load_feature_file(path)


def test_synth_output_refuses_a_bad_key_before_writing(tmp_path):
    data = generate(SynthConfig(num_categories=2, seed=3))
    keys = data.key_map.keys()
    bad = dataclasses.replace(data, key_map=KeyMap(["#" + keys[0]] + keys[1:]))
    with pytest.raises(DataFormatError, match="cannot be written"):
        write_corpus(bad, tmp_path)
    assert list(tmp_path.iterdir()) == []
    paths = write_corpus(data, tmp_path)
    cp, cv, km = load_edge_file(paths["edges"])
    X, km2 = load_feature_file(paths["features"])
    assert len(cp) == len(data.cp_pairs) and len(cv) == len(data.cv_pairs)
    assert np.array_equal(X, data.features)
    assert sorted(km.keys()) == sorted(keys) and km2.keys() == keys


# --- binary: checkpoint and training state -------------------------------

@given(stacks=layer_stacks(1))
def test_checkpoint_roundtrip_matches_reference(scratch, stacks):
    params = ModelParams(stacks[0])
    path = scratch / "model.ckpt"
    save_checkpoint(params, path)
    for loaded in (load_checkpoint(path), ref.load_checkpoint(path)):
        assert len(loaded.weights) == len(params.weights)
        for a, b in zip(loaded.weights, params.weights):
            assert np.array_equal(a, b)


@given(stacks=layer_stacks(4),
       counters=st.tuples(st.integers(0, 2**40), st.integers(0, 2**20),
                          st.integers(-1, 2**20), st.integers(0, 2**20)),
       metric=st.one_of(finite, st.just(-np.inf)),
       digest=st.binary(min_size=32, max_size=32))
def test_train_state_roundtrip_matches_reference(scratch, stacks, counters,
                                                 metric, digest):
    weights, m, v, best = stacks
    adam_t, epoch, best_epoch, since = counters
    state = TrainState(params=ModelParams(weights),
                       adam=AdamState(m=m, v=v, t=adam_t), epoch=epoch,
                       best_params=ModelParams(best), best_metric=metric,
                       best_epoch=best_epoch, epochs_since_best=since,
                       digest=digest)
    new, old = scratch / "state-v2.ckpt", scratch / "state-v1.ckpt"
    save_train_state(state, new)
    ref.save_train_state(state, old)
    got, want = resume(new), ref.resume(old)
    assert got.digest == digest
    for loaded in (got, want):
        for name in ("epoch", "best_metric", "best_epoch",
                     "epochs_since_best"):
            assert getattr(loaded, name) == getattr(state, name)
        assert loaded.adam.t == adam_t
        for a, b in zip(loaded.params.weights + loaded.adam.m + loaded.adam.v
                        + loaded.best_params.weights, weights + m + v + best):
            assert np.array_equal(a, b)


def _state(tmp_path):
    params = ModelParams.init(3, 2, 2, np.random.default_rng(0))
    state = TrainState(params=params, adam=AdamState.zeros(params),
                       digest=b"d" * 32)
    path = tmp_path / "train_state.ckpt"
    save_train_state(state, path)
    return state, path


def _header(magic, version, layers, d_in, d_h):
    return magic + HEADER.pack(version, layers, d_in, d_h)


@pytest.mark.parametrize("kind", ["checkpoint", "state"])
def test_binary_header_sizes_checked_before_reading(tmp_path, kind):
    magic, version, load = {
        "checkpoint": (CHECKPOINT_MAGIC, 1, load_checkpoint),
        "state": (STATE_MAGIC, STATE_VERSION, resume)}[kind]
    path = tmp_path / "f.ckpt"
    path.write_bytes(_header(magic, version, 2, 0xFFFFFFFF, 0xFFFFFFFF)
                     + b"\0" * 64)
    with pytest.raises(DataFormatError, match="truncated"):
        load(path)
    path.write_bytes(_header(magic, version, 0, 3, 2))
    with pytest.raises(DataFormatError, match="0 layers"):
        load(path)


def test_train_state_rejects_trailing_bytes(tmp_path):
    _, path = _state(tmp_path)
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(DataFormatError, match="trailing bytes"):
        resume(path)


@pytest.mark.parametrize("stack", [1, 3])  # Adam m, best weights
def test_train_state_rejects_non_finite_matrices(tmp_path, stack):
    state, path = _state(tmp_path)
    blob = bytearray(path.read_bytes())
    per_stack = sum(w.size for w in state.params.weights) * 8
    at = len(STATE_MAGIC) + HEADER.size + stack * per_stack
    blob[at:at + 8] = struct.pack("<d", np.nan)
    path.write_bytes(bytes(blob))
    with pytest.raises(DataFormatError, match="non-finite"):
        resume(path)


def test_version_1_state_is_refused_by_version(tmp_path):
    state, _ = _state(tmp_path)
    old = tmp_path / "v1.ckpt"
    ref.save_train_state(state, old)
    with pytest.raises(DataFormatError, match="version 1 is not supported"):
        resume(old)


@FUZZ
@given(data=st.data())
def test_binary_loaders_fuzzed_bytes_raise_only_data_errors(scratch, data):
    """Truncate, extend or overwrite a valid file at random."""
    params = ModelParams.init(3, 2, 2, np.random.default_rng(1))
    files = {"model.ckpt": (lambda p: save_checkpoint(params, p),
                            load_checkpoint),
             "train_state.ckpt": (lambda p: save_train_state(
                 TrainState(params=params, adam=AdamState.zeros(params)), p),
                 resume)}
    for name, (write, load) in files.items():
        path = scratch / name
        write(path)
        blob = bytearray(path.read_bytes())
        cut = data.draw(st.integers(0, len(blob)))
        patch = data.draw(st.binary(max_size=16))
        if data.draw(st.booleans()):
            blob[cut:cut + len(patch)] = patch      # overwrite in place
        else:
            blob = blob[:cut] + patch               # truncate and extend
        path.write_bytes(bytes(blob))
        _loads_or_rejects(load, path)
