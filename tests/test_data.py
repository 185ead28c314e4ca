import numpy as np
import pytest

from gdscope import (
    ContractViolation,
    DatasetFormatError,
    MLPCost,
    MetricFlags,
    OptimizerConfig,
    SynthSpec,
    gd_run,
    load_cifar10_binary,
    synth_dataset,
)

RECORD = 3073


def test_synth_balance_and_determinism():
    spec = SynthSpec(n=4, d=2, classes=2, cluster_spread=0.5, seed=1)
    ds = synth_dataset(spec)
    assert np.sum(ds.labels == 0) == 2 and np.sum(ds.labels == 1) == 2
    again = synth_dataset(spec)
    assert np.array_equal(ds.features, again.features)
    assert np.array_equal(ds.labels, again.labels)

    ds7 = synth_dataset(SynthSpec(n=7, d=3, classes=3, seed=2))
    counts = np.bincount(ds7.labels, minlength=3)
    assert counts.max() - counts.min() <= 1


def test_synth_validation():
    with pytest.raises(ContractViolation):
        SynthSpec(n=1, d=2, classes=2)
    with pytest.raises(ContractViolation):
        SynthSpec(n=8, d=0, classes=2)
    with pytest.raises(ContractViolation):
        SynthSpec(n=8, d=2, classes=2, cluster_spread=0.0)


def test_tiny_spread_is_linearly_separable():
    # with nearly point-mass clusters a bias-only linear classifier must hit
    # 100% train accuracy under plain GD
    ds = synth_dataset(SynthSpec(n=64, d=4, classes=2, cluster_spread=1e-4, seed=9))
    model = MLPCost(ds, hidden_sizes=(), activation="linear")
    traj = gd_run(model, model.init_params(0),
                  OptimizerConfig(eta=0.5, max_iter=3000, stop_accuracy=1.0),
                  MetricFlags(rp=False, dir=False))
    assert model.accuracy(traj.final_theta) == 1.0


def _write_records(path, labels):
    rng = np.random.default_rng(0)
    recs = []
    for lab in labels:
        body = rng.integers(0, 256, size=3072, dtype=np.uint8)
        recs.append(np.concatenate(([np.uint8(lab)], body)))
    raw = np.concatenate(recs).astype(np.uint8)
    raw.tofile(path)
    return raw


def test_cifar_loader_roundtrip(tmp_path):
    path = tmp_path / "batch.bin"
    _write_records(path, [3, 7])
    ds = load_cifar10_binary(path, 2)
    assert ds.n == 2 and ds.d == 3072
    assert list(ds.labels) == [3, 7]
    assert ds.num_classes == 10
    # standardized per channel over the loaded subset
    chans = ds.features.reshape(2, 3, 1024)
    for c in range(3):
        assert abs(chans[:, c, :].mean()) < 1e-12
        assert abs(chans[:, c, :].std() - 1.0) < 1e-12


def test_cifar_truncated_file(tmp_path):
    path = tmp_path / "bad.bin"
    raw = _write_records(path, [1, 2])
    raw[:-1].tofile(path)  # 6145 bytes: second record truncated
    with pytest.raises(DatasetFormatError, match="offset 3073"):
        load_cifar10_binary(path, 2)


def test_cifar_bad_label_names_record(tmp_path):
    path = tmp_path / "bad-label.bin"
    raw = _write_records(path, [1, 2])
    raw[RECORD] = 11  # label byte of record 1
    raw.tofile(path)
    with pytest.raises(DatasetFormatError, match="record 1"):
        load_cifar10_binary(path, 2)


def test_cifar_too_many_requested(tmp_path):
    path = tmp_path / "two.bin"
    _write_records(path, [0, 1])
    with pytest.raises(DatasetFormatError):
        load_cifar10_binary(path, 3)


