"""CLI surface: exit codes, file outputs, and cross-command agreement."""

import numpy as np
import pytest

from tsmkit import cli
from tsmkit.net import (
    BlockSpec,
    NetworkSpec,
    consensus_average,
    forward_offline_array,
    init_weights,
    save_spec,
    save_weights,
)
from tsmkit.ops import ConvSpec
from tsmkit.shift import ShiftSpec
from tsmkit.tensor import FRAME_AXES, Tensor, load_tensor, save_tensor


@pytest.fixture(scope="module")
def uni_fixture(tmp_path_factory):
    """A small streaming-safe network, its weights, and one clip on disk."""
    root = tmp_path_factory.mktemp("cli")
    block = BlockSpec(ConvSpec(4, 4, 3, pad=1), ConvSpec(4, 4, 3, pad=1),
                      placement="residual",
                      shift=ShiftSpec(1, 0, "zero", "uni"))
    spec = NetworkSpec(in_channels=1, height=8, width=8, frames=4,
                       stem=ConvSpec(1, 4, 3, pad=1), blocks=(block,),
                       num_classes=2)
    store = init_weights(spec, seed=5)
    save_spec(spec, root / "net.json")
    save_weights(store, root / "net.tsmw")
    rng = np.random.default_rng(11)
    clip = rng.standard_normal((1, 4, 1, 8, 8)).astype(np.float32)
    save_tensor(Tensor(clip, ("N", "T", "C", "H", "W")), root / "clip.tsmt")
    return root, spec, store, clip


def test_no_command_is_usage_error(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert "shift-check" in capsys.readouterr().out


def test_unknown_command(capsys):
    assert cli.main(["frobnicate"]) == 2
    capsys.readouterr()


def test_shift_check_passes(capsys):
    assert cli.main(["shift-check", "--cases", "25", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4
    assert "FAIL" not in out


def test_shift_check_zero_cases(capsys):
    assert cli.main(["shift-check", "--cases", "0"]) == 2
    capsys.readouterr()


def test_shift_check_detects_breakage(monkeypatch, capsys):
    # negative control: a wrong reference implementation must trip the suite
    def bad(x, spec):
        return Tensor(x.data + 1.0, x.labels)

    monkeypatch.setattr(cli, "shift_offline_naive", bad)
    assert cli.main(["shift-check", "--cases", "5"]) == 3
    assert "FAIL" in capsys.readouterr().out


def test_infer_offline_roundtrip(uni_fixture, tmp_path, capsys):
    root, spec, store, clip = uni_fixture
    out = tmp_path / "out"
    code = cli.main([
        "infer-offline", "--spec", str(root / "net.json"),
        "--weights", str(root / "net.tsmw"),
        "--clip", str(root / "clip.tsmt"), "--out", str(out),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "class" in printed
    logits = load_tensor(out / "logits.tsmt")
    consensus = load_tensor(out / "consensus.tsmt")
    expect = forward_offline_array(clip, spec, store)
    np.testing.assert_array_equal(logits.data, expect)
    np.testing.assert_array_equal(consensus.data, consensus_average(expect))


def test_infer_offline_missing_file(uni_fixture, tmp_path, capsys):
    root, *_ = uni_fixture
    code = cli.main([
        "infer-offline", "--spec", str(root / "nope.json"),
        "--weights", str(root / "net.tsmw"),
        "--clip", str(root / "clip.tsmt"), "--out", str(tmp_path / "o"),
    ])
    assert code == 1
    assert "error" in capsys.readouterr().err


def _write_frames(clip: np.ndarray, frames_dir) -> None:
    frames_dir.mkdir()
    for t in range(clip.shape[1]):
        save_tensor(Tensor(clip[:, t], FRAME_AXES),
                    frames_dir / f"frame_{t:05d}.tsmt")


def test_infer_online_matches_offline(uni_fixture, tmp_path, capsys):
    root, spec, store, clip = uni_fixture
    frames = tmp_path / "frames"
    _write_frames(clip, frames)
    out = tmp_path / "out"
    code = cli.main([
        "infer-online", "--spec", str(root / "net.json"),
        "--weights", str(root / "net.tsmw"),
        "--frames-dir", str(frames), "--out", str(out),
    ])
    assert code == 0
    assert "median step" in capsys.readouterr().out
    logits = load_tensor(out / "logits.tsmt")
    expect = forward_offline_array(clip, spec, store)
    assert np.abs(logits.data - expect).max() <= 1e-5


def test_infer_online_single_frame(uni_fixture, tmp_path, capsys):
    root, spec, store, clip = uni_fixture
    frames = tmp_path / "frames"
    _write_frames(clip[:, :1], frames)
    out = tmp_path / "out"
    assert cli.main([
        "infer-online", "--spec", str(root / "net.json"),
        "--weights", str(root / "net.tsmw"),
        "--frames-dir", str(frames), "--out", str(out),
    ]) == 0
    capsys.readouterr()
    logits = load_tensor(out / "logits.tsmt")
    consensus = load_tensor(out / "consensus.tsmt")
    np.testing.assert_array_equal(consensus.data, logits.data[:, 0])


def test_infer_online_empty_dir(uni_fixture, tmp_path, capsys):
    root, *_ = uni_fixture
    empty = tmp_path / "frames"
    empty.mkdir()
    assert cli.main([
        "infer-online", "--spec", str(root / "net.json"),
        "--weights", str(root / "net.tsmw"),
        "--frames-dir", str(empty), "--out", str(tmp_path / "o"),
    ]) == 1
    capsys.readouterr()


def test_infer_online_gap_in_numbering(uni_fixture, tmp_path, capsys):
    root, spec, store, clip = uni_fixture
    frames = tmp_path / "frames"
    _write_frames(clip, frames)
    (frames / "frame_00001.tsmt").rename(frames / "frame_00007.tsmt")
    assert cli.main([
        "infer-online", "--spec", str(root / "net.json"),
        "--weights", str(root / "net.tsmw"),
        "--frames-dir", str(frames), "--out", str(tmp_path / "o"),
    ]) == 1
    assert "contiguous" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["weights", "clip"])
def test_infer_offline_rejects_non_finite(uni_fixture, tmp_path, capsys, bad, where):
    root, spec, store, clip = uni_fixture
    weights, clip_path = root / "net.tsmw", root / "clip.tsmt"
    if where == "weights":
        poisoned = {k: v.copy() for k, v in store.items()}
        poisoned["block0.conv1.w"][0, 0, 1, 1] = bad
        weights = tmp_path / "bad.tsmw"
        save_weights(poisoned, weights)
    else:
        data = clip.copy()
        data[0, 2, 0, 3, 4] = bad
        clip_path = tmp_path / "bad.tsmt"
        save_tensor(Tensor(data, ("N", "T", "C", "H", "W")), clip_path)
    out = tmp_path / "out"
    assert cli.main([
        "infer-offline", "--spec", str(root / "net.json"),
        "--weights", str(weights), "--clip", str(clip_path), "--out", str(out),
    ]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "NaN or Inf" in err
    assert ("block0.conv1.w" in err) == (where == "weights")
    assert not out.exists()


@pytest.mark.parametrize("where", ["weights", "frame"])
def test_infer_online_rejects_non_finite(uni_fixture, tmp_path, capsys, where):
    root, spec, store, clip = uni_fixture
    weights = root / "net.tsmw"
    data = clip.copy()
    if where == "weights":
        poisoned = {k: v.copy() for k, v in store.items()}
        poisoned["head.b"][1] = np.inf
        weights = tmp_path / "bad.tsmw"
        save_weights(poisoned, weights)
    else:
        data[0, 3, 0, 0, 0] = np.nan  # the last frame: three steps run first
    frames = tmp_path / "frames"
    _write_frames(data, frames)
    out = tmp_path / "out"
    assert cli.main([
        "infer-online", "--spec", str(root / "net.json"),
        "--weights", str(weights), "--frames-dir", str(frames), "--out", str(out),
    ]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "NaN or Inf" in err
    assert ("frame_00003.tsmt" in err) == (where == "frame")
    assert not out.exists()


def test_bench_shift_writes_header(tmp_path, capsys):
    csv_path = tmp_path / "b.csv"
    code = cli.main([
        "bench-shift", "--shape", "1x8x2x8x8", "--fractions", "0,1/2",
        "--reps", "20", "--csv", str(csv_path),
    ])
    assert code == 0
    capsys.readouterr()
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ("label,n,c,t,h,w,n_fwd,n_bwd,bytes_moved,"
                        "median_ns,p10_ns,p90_ns,reps,baseline_ns,overhead_pct")
    assert len(lines) == 3


@pytest.mark.parametrize("argv", [
    ["bench-shift", "--shape", "8x8x8"],
    ["bench-shift", "--shape", "1x8x2x8xfoo"],
    ["bench-shift", "--fractions", "0,oops"],
    ["bench-shift", "--reps", "0"],
])
def test_bench_shift_usage_errors(argv, capsys):
    assert cli.main(argv) == 2
    capsys.readouterr()


def test_bench_net_rows(uni_fixture, tmp_path, capsys):
    root, *_ = uni_fixture
    csv_path = tmp_path / "n.csv"
    assert cli.main([
        "bench-net", "--spec", str(root / "net.json"),
        "--reps", "20", "--csv", str(csv_path),
    ]) == 0
    capsys.readouterr()
    lines = csv_path.read_text().splitlines()
    assert lines[1].startswith("plain,")
    assert lines[2].startswith("tsm,")


def test_gen_data_deterministic_tree(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert cli.main(["gen-data", "--seed", "4", "--count", "6",
                         "--out-dir", str(out)]) == 0
    capsys.readouterr()
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    assert "labels.csv" in names and "clip_00005.tsmt" in names
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()
    labels = (a / "labels.csv").read_text().splitlines()
    assert labels[0] == "index,label,start_row,start_col"
    assert len(labels) == 7


def test_gen_data_odd_count(tmp_path, capsys):
    assert cli.main(["gen-data", "--count", "5",
                     "--out-dir", str(tmp_path / "x")]) == 2
    capsys.readouterr()


def test_train_toy_small_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"epochs": 2, "train_count": 8, "test_count": 4,'
                   ' "batch_size": 4}')
    weights = tmp_path / "w.tsmw"
    metrics = tmp_path / "m.csv"
    code = cli.main(["train-toy", "--config", str(cfg),
                     "--out-weights", str(weights),
                     "--metrics-csv", str(metrics)])
    assert code == 0
    assert "test accuracy" in capsys.readouterr().out
    assert weights.exists()
    lines = metrics.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,train_acc,test_acc"
    assert len(lines) == 3


def test_train_toy_bad_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"epochs": 1, "train_count": 8, "test_count": 4,'
                   ' "warp_speed": true}')
    assert cli.main(["train-toy", "--config", str(cfg)]) == 1
    assert "warp_speed" in capsys.readouterr().err

    cfg.write_text('{"epochs": ')
    assert cli.main(["train-toy", "--config", str(cfg)]) == 1
    capsys.readouterr()
