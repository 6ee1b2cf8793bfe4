import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference as ref
from asymgraph import cli, evaluation, trainer
from asymgraph.graph import KeyMap, dump_edge_file, dump_feature_file

PKG_ROOT = Path(__file__).parent.parent


def with_src(env):
    """`env` with the source tree importable without an installed package
    (an explicit env replaces the parent's)."""
    src = str(PKG_ROOT / "src")
    old = env.get("PYTHONPATH")
    return {**env, "PYTHONPATH": f"{src}:{old}" if old else src}


def run_cli(*args, **kw):
    if kw.get("env") is not None:
        kw["env"] = with_src(kw["env"])
    return subprocess.run([sys.executable, "-m", "asymgraph", *args],
                          capture_output=True, text=True, cwd=PKG_ROOT, **kw)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small corpus generated through the CLI itself."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "synth.cfg"
    cfg.write_text("num_categories = 4\nproducts_per_category = 30\n"
                   "feature_dim = 8\nseed = 5\n")
    out = root / "corpus"
    proc = run_cli("synth", "--config", str(cfg), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return root, out


def test_help_exits_zero():
    proc = run_cli("--help")
    assert proc.returncode == 0
    assert "synth" in proc.stdout and "recommend" in proc.stdout


def test_missing_required_flag_exits_one():
    proc = run_cli("synth")
    assert proc.returncode == 1
    assert "--out" in proc.stderr


def test_unknown_subcommand_exits_one():
    proc = run_cli("frobnicate")
    assert proc.returncode == 1


def test_cli_import_loads_no_scipy_stats():
    """The package needs numpy and scipy.sparse only: scipy.stats alone
    costs about a second of every command's start-up. A subprocess, since
    the test oracles load scipy.stats into this one."""
    code = ("import asymgraph.cli, sys; print(sorted(m for m in sys.modules "
            "if m == 'scipy.stats' or m.startswith('scipy.stats.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=PKG_ROOT, env=with_src(os.environ))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_malformed_edge_line_exits_two(tmp_path, workspace):
    _root, out = workspace
    bad = tmp_path / "bad_edges.tsv"
    lines = (out / "edges.tsv").read_text().splitlines()
    lines.insert(3, "only_two\tfields")
    bad.write_text("\n".join(lines) + "\n")
    proc = run_cli("build-graph", "--edges", str(bad),
                   "--out", str(tmp_path / "g"))
    assert proc.returncode == 2
    assert "4" in proc.stderr  # offending line number


def test_synth_writes_manifest_and_files(workspace):
    _root, out = workspace
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["config"]["num_categories"] == 4
    assert manifest["seeds"] == {"seed": 5}
    for name in ("edges.tsv", "features.tsv", "ground_truth.tsv"):
        assert (out / name).exists()


def test_build_graph_stats(workspace, tmp_path):
    _root, out = workspace
    gdir = tmp_path / "graph"
    proc = run_cli("build-graph", "--edges", str(out / "edges.tsv"),
                   "--features", str(out / "features.tsv"),
                   "--out", str(gdir))
    assert proc.returncode == 0, proc.stderr
    stats = dict(line.split("\t") for line in
                 (gdir / "stats.tsv").read_text().splitlines())
    assert int(stats["num_nodes"]) == 120
    assert (gdir / "graph.tsv").exists()


@pytest.fixture(scope="module")
def trained(workspace, tmp_path_factory):
    root, out = workspace
    model_dir = tmp_path_factory.mktemp("model")
    cfg = root / "train.cfg"
    cfg.write_text("max_epochs = 2\nbatch_size = 256\nnum_layers = 2\n"
                   "embed_dim = 8\nfanouts = 10,10\nlr = 0.001\n"
                   "num_negatives = 2\n")
    proc = run_cli("train", "--graph", str(out / "edges.tsv"),
                   "--features", str(out / "features.tsv"),
                   "--config", str(cfg), "--out", str(model_dir),
                   "--split", "edge", "--split-seed", "0")
    assert proc.returncode == 0, proc.stderr
    return model_dir


def test_train_outputs(trained):
    for name in ("manifest.json", "model.ckpt", "train_state.ckpt",
                 "train_log.tsv", "config.txt", "graph.tsv"):
        assert (trained / name).exists(), name
    log_lines = (trained / "train_log.tsv").read_text().splitlines()
    assert len(log_lines) > 0
    assert len(log_lines[0].split("\t")) == 10


def test_embed_and_recommend(workspace, trained, tmp_path):
    _root, out = workspace
    emb_dir = tmp_path / "emb"
    proc = run_cli("embed", "--model", str(trained),
                   "--graph", str(trained / "graph.tsv"),
                   "--features", str(out / "features.tsv"),
                   "--out", str(emb_dir))
    assert proc.returncode == 0, proc.stderr
    assert (emb_dir / "graph.tsv").exists()  # self-contained index dir
    proc = run_cli("recommend", "--index", str(emb_dir),
                   "--query", "c00m000", "--k", "5", "--mode", "related")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split("\t") for line in proc.stdout.strip().splitlines()]
    assert len(rows) <= 5
    assert all(r[0] == "c00m000" for r in rows)
    ranks = [int(r[1]) for r in rows]
    assert ranks == sorted(ranks)
    scores = [float(r[3]) for r in rows]
    assert scores == sorted(scores, reverse=True)


def test_recommend_unknown_key_exits_two(workspace, trained, tmp_path):
    _root, out = workspace
    emb_dir = tmp_path / "emb2"
    run_cli("embed", "--model", str(trained),
            "--graph", str(trained / "graph.tsv"),
            "--features", str(out / "features.tsv"), "--out", str(emb_dir))
    proc = run_cli("recommend", "--index", str(emb_dir),
                   "--query", "nonexistent-product")
    assert proc.returncode == 2
    assert "unknown" in proc.stderr.lower()


def test_recommend_key_file_keeps_spaces_in_keys(tmp_path):
    """A key file's lines lose only their line break, so a key with a
    trailing space answers from a file as it does from --query."""
    km = KeyMap(["a ", "b", "c"])
    dump_feature_file(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), km,
                      tmp_path / "features.tsv")
    (tmp_path / "edges.tsv").write_text("a \tb\tcp\nb\tc\tcp\nc\ta \tcp\n")
    (tmp_path / "train.cfg").write_text(
        "batch_size = 4\nnum_layers = 1\nembed_dim = 4\nfanouts = 5\n"
        "num_negatives = 1\n")
    assert cli.main(["train", "--graph", str(tmp_path / "edges.tsv"),
                     "--features", str(tmp_path / "features.tsv"),
                     "--config", str(tmp_path / "train.cfg"),
                     "--out", str(tmp_path / "model"), "--epochs", "1"]) == 0
    assert cli.main(["embed", "--model", str(tmp_path / "model"),
                     "--graph", str(tmp_path / "edges.tsv"),
                     "--features", str(tmp_path / "features.tsv"),
                     "--out", str(tmp_path / "index")]) == 0
    (tmp_path / "keys.txt").write_bytes(b"a \r\n\n")
    recs = {}
    for name, query in (("arg", "a "), ("file", str(tmp_path / "keys.txt"))):
        assert cli.main(["recommend", "--index", str(tmp_path / "index"),
                         "--query", query, "--k", "2",
                         "--out", str(tmp_path / f"{name}.tsv")]) == 0
        recs[name] = (tmp_path / f"{name}.tsv").read_text().splitlines()
    assert len(recs["arg"]) == 2 and recs["file"] == recs["arg"]
    assert all(line.startswith("a \t") for line in recs["file"])


def test_recommend_query_key_beats_file_of_that_name(
        workspace, trained, tmp_path, monkeypatch, capsys):
    """A --query value that is a key of the index is a key, even when the
    working directory holds a file of that name."""
    _root, out = workspace
    assert cli.main(["embed", "--model", str(trained),
                     "--graph", str(trained / "graph.tsv"),
                     "--features", str(out / "features.tsv"),
                     "--out", str(tmp_path / "index")]) == 0
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c00m000").touch()
    assert cli.main(["recommend", "--index", str(tmp_path / "index"),
                     "--query", "c00m000", "--k", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert all(line.startswith("c00m000\t") for line in lines)


def test_recommend_malformed_embeddings_exits_two(workspace, trained, tmp_path):
    _root, out = workspace
    emb_dir = tmp_path / "emb3"
    run_cli("embed", "--model", str(trained),
            "--graph", str(trained / "graph.tsv"),
            "--features", str(out / "features.tsv"), "--out", str(emb_dir))
    path = emb_dir / "embeddings.tsv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + [lines[-1].replace("\t", "x\t", 1)])
                    + "\n")
    proc = run_cli("recommend", "--index", str(emb_dir), "--query", "c00m000")
    assert proc.returncode == 2
    assert f"line {len(lines) + 1}" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_coldstart_command(workspace, trained, tmp_path):
    _root, out = workspace
    cold = tmp_path / "cold.tsv"
    features = (out / "features.tsv").read_text().splitlines()
    header_dim = features[0].split("\t")[1]
    first_row = features[1].split("\t")[1]
    cold.write_text(f"1\t{header_dim}\nnewprod\t{first_row}\n")
    # --graph defaults to the training graph saved in the model directory
    proc = run_cli("coldstart", "--model", str(trained),
                   "--features", str(out / "features.tsv"),
                   "--cold", str(cold), "--k", "5")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split("\t") for line in proc.stdout.strip().splitlines()]
    assert rows and all(r[0] == "newprod" for r in rows)


def test_eval_command_writes_reports(workspace, trained, tmp_path):
    _root, out = workspace
    eval_dir = tmp_path / "eval"
    proc = run_cli("eval", "--task", "node-rec", "--model", str(trained),
                   "--graph", str(out / "edges.tsv"),
                   "--features", str(out / "features.tsv"),
                   "--split-seed", "0", "--out", str(eval_dir))
    assert proc.returncode == 0, proc.stderr
    metrics = (eval_dir / "metrics.tsv").read_text().splitlines()
    assert metrics[0] == "metric\tvalue"
    names = {line.split("\t")[0] for line in metrics[1:]}
    assert {"hitrate@5", "hitrate@10", "hitrate@20",
            "mrr@5", "mrr@10", "mrr@20"} <= names
    assert (eval_dir / "summary.txt").exists()
    assert (eval_dir / "manifest.json").exists()


@pytest.mark.parametrize("command,flag,value", [
    ("synth", "--seed", "-1"),
    ("train", "--seed", "-1"),
    ("train", "--epochs", "0"),
    ("train", "--split-seed", "-1"),
    ("recommend", "--k", "0"),
    ("coldstart", "--k", "0"),
    ("coldstart", "--k-sim", "0"),
    ("eval", "--ks", "5,x"),
    ("eval", "--split-seed", "-1"),
])
def test_bad_numeric_flag_is_a_usage_error(workspace, trained, tmp_path,
                                           capsys, command, flag, value):
    """A count below 1 or a negative seed exits 1 with argparse's message
    before any input is read or any output is written."""
    _root, corpus = workspace
    edges, features = str(corpus / "edges.tsv"), str(corpus / "features.tsv")
    out = tmp_path / "out"
    inputs = {
        "synth": [],
        "train": ["--graph", edges, "--features", features],
        "recommend": ["--index", str(trained), "--query", "c00m000"],
        "coldstart": ["--model", str(trained), "--features", features,
                      "--cold", features],
        "eval": ["--task", "node-rec", "--model", str(trained),
                 "--graph", edges, "--features", features],
    }[command]
    with pytest.raises(SystemExit) as exc:
        cli.main([command, *inputs, flag, value, "--out", str(out)])
    assert exc.value.code == cli.EXIT_USAGE
    assert f"argument {flag}" in capsys.readouterr().err
    assert not out.exists()


def test_missing_input_file_exits_two(tmp_path):
    proc = run_cli("build-graph", "--edges", str(tmp_path / "ghost.tsv"),
                   "--out", str(tmp_path / "o"))
    assert proc.returncode == 2


def test_numerical_failure_exits_three(tmp_path):
    edges = tmp_path / "edges.tsv"
    edges.write_text("a\tb\tcp\nb\ta\tcp\n")
    features = tmp_path / "features.tsv"
    # values near the float64 ceiling overflow inside the aggregation
    features.write_text("2\t2\na\t1e308,1e308\nb\t1e308,1e308\n")
    cfg = tmp_path / "train.cfg"
    cfg.write_text("max_epochs = 1\nnum_layers = 1\nfanouts = 4\n"
                   "embed_dim = 4\nbatch_size = 8\nnum_negatives = 1\n")
    proc = run_cli("train", "--graph", str(edges), "--features", str(features),
                   "--config", str(cfg), "--out", str(tmp_path / "m"),
                   "--split", "none")
    assert proc.returncode == 3
    assert "non-finite" in proc.stderr


def test_log_level_env_var(workspace, tmp_path):
    _root, out = workspace
    proc = run_cli("build-graph", "--edges", str(out / "edges.tsv"),
                   "--out", str(tmp_path / "g1"),
                   env={"ASYMGRAPH_LOG": "debug", "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0
    assert "INFO" in proc.stderr
    proc = run_cli("build-graph", "--edges", str(out / "edges.tsv"),
                   "--out", str(tmp_path / "g2"),
                   env={"ASYMGRAPH_LOG": "error", "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0
    assert "INFO" not in proc.stderr


# --- resume, in process -------------------------------------------------

RESUME_CFG = ("batch_size = 256\nnum_layers = 2\nembed_dim = 8\n"
              "fanouts = 10,10\nlr = 0.001\nnum_negatives = 2\n")


def _train(edges, features, cfg, out, *extra):
    return cli.main(["train", "--graph", str(edges), "--features",
                     str(features), "--config", str(cfg), "--out", str(out),
                     "--split", "edge", "--split-seed", "0", *extra])


def _snapshot(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.fixture(scope="module")
def one_epoch(workspace, tmp_path_factory):
    """A one-epoch training directory to resume from."""
    root, corpus = workspace
    cfg = root / "resume.cfg"
    cfg.write_text(RESUME_CFG)
    out = tmp_path_factory.mktemp("one_epoch")
    assert _train(corpus / "edges.tsv", corpus / "features.tsv", cfg, out,
                  "--epochs", "1") == 0
    return corpus, cfg, out


@pytest.mark.parametrize("change", ["config", "graph", "features", "v1-state"])
def test_resume_refuses_a_different_run(one_epoch, tmp_path, caplog, change):
    corpus, cfg, out = one_epoch
    edges, features = corpus / "edges.tsv", corpus / "features.tsv"
    state = out / "train_state.ckpt"
    if change == "config":
        cfg = tmp_path / "changed.cfg"
        cfg.write_text(RESUME_CFG.replace("lr = 0.001", "lr = 0.002"))
    elif change == "graph":
        lines = edges.read_text().splitlines()
        edges = tmp_path / "edges.tsv"
        edges.write_text("\n".join(lines[1:]) + "\n")
    elif change == "features":
        lines = features.read_text().splitlines()
        key, values = lines[1].split("\t")
        first, rest = values.split(",", 1)
        lines[1] = f"{key}\t{float(first) + 0.5!r},{rest}"
        features = tmp_path / "features.tsv"
        features.write_text("\n".join(lines) + "\n")
    else:
        state = tmp_path / "v1.ckpt"
        ref.save_train_state(trainer.resume(out / "train_state.ckpt"), state)
    before = _snapshot(out)
    code = _train(edges, features, cfg, out, "--epochs", "2",
                  "--resume", str(state))
    assert code == 2
    assert _snapshot(out) == before
    assert ("version 1" if change == "v1-state" else "different run") \
        in caplog.text


def test_resume_with_more_epochs_matches_straight_run(one_epoch, tmp_path):
    corpus, cfg, out = one_epoch
    edges, features = corpus / "edges.tsv", corpus / "features.tsv"
    resumed, straight = tmp_path / "resumed", tmp_path / "straight"
    shutil.copytree(out, resumed)
    assert _train(edges, features, cfg, resumed, "--epochs", "2",
                  "--resume", str(resumed / "train_state.ckpt")) == 0
    assert _train(edges, features, cfg, straight, "--epochs", "2") == 0
    for name in ("model.ckpt", "train_state.ckpt"):
        assert (resumed / name).read_bytes() == (straight / name).read_bytes()


def test_train_splits_on_the_seed_eval_defaults_to(workspace, tmp_path):
    """`train --seed 5` without `--split-seed` holds out the edges that
    `eval` (split seed 0 by default) scores, not those of split seed 5;
    the manifest records the split seed and whether co-view was dropped."""
    root, corpus = workspace
    edges, features = corpus / "edges.tsv", corpus / "features.tsv"
    cfg = tmp_path / "train.cfg"
    cfg.write_text(RESUME_CFG)
    eval_default = cli.build_parser().parse_args(
        ["eval", "--task", "node-rec", "--model", "m", "--graph", "g",
         "--features", "f", "--out", "o"]).split_seed
    g, _features, km = cli._load_graph(edges, features)
    split = evaluation.make_edge_split(g, seed=eval_default)
    for no_coview in (False, True):
        out, want = tmp_path / f"model{no_coview}", tmp_path / "want.tsv"
        assert cli.main(["train", "--graph", str(edges), "--features",
                         str(features), "--config", str(cfg), "--out",
                         str(out), "--seed", "5", "--epochs", "1"]
                        + ["--no-coview"] * no_coview) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seeds"]["split_seed"] == eval_default
        assert manifest["seeds"]["no_coview"] is no_coview
        dump_edge_file(evaluation.train_graph(g, split,
                                              use_coview=not no_coview),
                       km, want)
        assert (out / "graph.tsv").read_bytes() == want.read_bytes()


# --- rerun determinism, in process --------------------------------------

def _pipeline(root, run):
    """synth -> train (one epoch, edge split) -> embed -> recommend ->
    coldstart into root/run; returns every output file's bytes."""
    out = root / run
    assert cli.main(["synth", "--config", str(root / "synth.cfg"),
                     "--out", str(out / "corpus")]) == 0
    edges, features = out / "corpus" / "edges.tsv", out / "corpus" / "features.tsv"
    model, index = out / "model", out / "index"
    assert _train(edges, features, root / "train.cfg", model, "--epochs",
                  "1") == 0
    assert cli.main(["embed", "--model", str(model), "--graph", str(edges),
                     "--features", str(features), "--out", str(index)]) == 0
    keys = [line.split("\t")[0]
            for line in features.read_text().splitlines()[1:6]]
    (out / "keys.txt").write_text("\n".join(keys) + "\n")
    assert cli.main(["recommend", "--index", str(index), "--query",
                     str(out / "keys.txt"), "--k", "5",
                     "--out", str(out / "recs.tsv")]) == 0
    rows = features.read_text().splitlines()
    (out / "cold.tsv").write_text(
        "3\t8\n" + "".join(f"cold{i}\t{row.split(chr(9))[1]}\n"
                           for i, row in enumerate(rows[1:4])))
    assert cli.main(["coldstart", "--model", str(model), "--features",
                     str(features), "--cold", str(out / "cold.tsv"), "--k",
                     "5", "--out", str(out / "cold_recs.tsv")]) == 0
    return {str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


def test_pipeline_rerun_is_byte_identical(tmp_path):
    """Two runs of the whole pipeline write the same bytes: one fixed
    operation order per run, so float reassociation cannot leak between
    runs. Only the manifests' timestamps and the log's batch times
    differ."""
    (tmp_path / "synth.cfg").write_text(
        "num_categories = 4\nproducts_per_category = 30\nfeature_dim = 8\n"
        "seed = 5\n")
    (tmp_path / "train.cfg").write_text(RESUME_CFG)
    first, second = _pipeline(tmp_path, "a"), _pipeline(tmp_path, "b")
    assert first.keys() == second.keys()
    for name in ("model/model.ckpt", "model/train_state.ckpt",
                 "index/embeddings.tsv", "recs.tsv", "cold_recs.tsv"):
        assert first[name] and first[name] == second[name], name
    logs = [[line.split("\t")[:-1] for line in run["model/train_log.tsv"]
             .decode().splitlines()] for run in (first, second)]
    assert logs[0] and logs[0] == logs[1]
    for name in first:
        if not name.endswith(("manifest.json", "train_log.tsv")):
            assert first[name] == second[name], name


# --- the default corpus's pipeline, pinned ------------------------------

PIPELINE_2K = r"""
import sys
from pathlib import Path

from asymgraph import evaluation
from asymgraph.cli import main

root = Path(sys.argv[1])
corpus, model = root / "corpus", root / "model"
edges, features = corpus / "edges.tsv", corpus / "features.tsv"


def run(*args):
    assert main([str(a) for a in args]) == 0, args


run("synth", "--seed", 1, "--out", corpus)
run("train", "--graph", edges, "--features", features, "--epochs", 1,
    "--out", model)
run("embed", "--model", model, "--graph", edges, "--features", features,
    "--out", root / "index")
rows = features.read_text().splitlines()[1:]
(root / "keys.txt").write_text("".join(r.split("\t")[0] + "\n"
                                       for r in rows[:200]))
run("recommend", "--index", root / "index", "--query", root / "keys.txt",
    "--filter", "exclude_train_neighbors", "--out", root / "recs.tsv")
dim = len(rows[0].split("\t")[1].split(","))
(root / "cold.tsv").write_text(f"20\t{dim}\n" + "".join(
    f"cold{i}\t{r.split(chr(9))[1]}\n" for i, r in enumerate(rows[-20:])))
run("coldstart", "--model", model, "--features", features,
    "--cold", root / "cold.tsv", "--out", root / "cold_recs.tsv")
for task in evaluation.TASKS:
    run("eval", "--task", task, "--model", model, "--graph", edges,
        "--features", features, "--out", root / f"eval-{task}")
"""

# sha256 of the 2k pipeline's text outputs with BLAS on one thread. The
# embeddings and the checkpoint are not pinned: their bits depend on the
# BLAS kernel, where these outputs round them away.
PIPELINE_2K_SHA256 = {
    "recs.tsv":
        "b1e4fdf777e850dbb20a04d169b1e43a495fa87991eebf2dd1b3325dad53886e",
    "cold_recs.tsv":
        "b3bfd7c441350816e822f0c90764e4a8967ee6d6f0c9c8d4adbce51c9b632362",
    "eval-node-rec/metrics.tsv":
        "5abebb67a95a558c99b7d49e29cf324900facd2ea65dd0c2c3de2f88790c78aa",
    "eval-lp-exist/metrics.tsv":
        "eabde1bf8e748904e19827002d67e9308a5c435f0b7073c5071ad47f312858fd",
    "eval-lp-dir/metrics.tsv":
        "b43778cca1a37689f6838e9961472d8f56ffd7a9feff8b1b3cd2847cae092c1a",
    "eval-coldstart/metrics.tsv":
        "c05edfbd91515dd86b8788a780038bfa4b046be523d11ad4df2b35ace29de73e",
    "eval-selection-bias/metrics.tsv":
        "2178a54ad1f9ccd776ca981a4406eadb5226ec40350aa72119ba5ebe0e75e6f2",
}


def test_default_corpus_pipeline_outputs_are_pinned(tmp_path):
    """synth --seed 1, train --epochs 1, embed, recommend over 200 keys,
    coldstart over 20 cold rows and all five eval tasks, in one process,
    write the pinned bytes."""
    env = with_src({**os.environ, "OPENBLAS_NUM_THREADS": "1",
                    "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
    proc = subprocess.run([sys.executable, "-c", PIPELINE_2K, str(tmp_path)],
                          capture_output=True, text=True, cwd=PKG_ROOT,
                          env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in PIPELINE_2K_SHA256}
    assert got == PIPELINE_2K_SHA256
