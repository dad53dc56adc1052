"""CLI surface: commands, artifacts, exit codes, determinism."""

import json
import math
import os
import shutil
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import svkit
from svkit.cli import main
from svkit.models.checkpoint import load_checkpoint, save_checkpoint
from svkit.protocol.enrollment import load_speaker_models

SEED = "33"


@pytest.fixture(scope="module")
def micro_corpus(tmp_path_factory):
    """4 speakers (2 development, 2 evaluation-phase), seconds to train on."""
    root = tmp_path_factory.mktemp("micro")
    rc = main(
        ["synth", "--speakers", "4", "--utterances", "2", "--seed", SEED,
         "--out", str(root / "data"), "--duration", "2.0", "--dev-speakers", "2"]
    )
    assert rc == 0
    return root


@pytest.fixture(scope="module")
def trained(micro_corpus):
    """One cnn3d and one lcn_dvector checkpoint over the micro corpus."""
    manifest = str(micro_corpus / "data" / "manifest.csv")
    out = {}
    for model, lr in (("cnn3d", "0.003"), ("lcn_dvector", "0.0003")):
        ckpt = micro_corpus / model / "checkpoint.svck"
        rc = main(
            ["train", "--manifest", manifest, "--model", model, "--zeta", "2",
             "--epochs", "2", "--lr", lr, "--batch", "4", "--seed", SEED,
             "--max-slices", "6", "--out", str(ckpt)]
        )
        assert rc == 0
        out[model] = ckpt
    return micro_corpus, out


_TRAIN_AT_AFFINITY = """
import os, sys
if sys.argv[1] == "one-cpu":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from svkit.cli import main
from svkit.nn import layers
print(layers._WORKERS, flush=True)
sys.exit(main(sys.argv[2:]))
"""


def _train_in_child(corpus, out, affinity):
    """`svkit train` on the micro corpus in a fresh process at 1 BLAS thread; returns svkit's worker count."""
    env = dict(os.environ, PYTHONPATH=str(Path(svkit.__file__).parents[1]))
    env.update({var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    argv = ["train", "--manifest", str(corpus / "data" / "manifest.csv"), "--model", "cnn3d", "--zeta", "2",
            "--epochs", "2", "--lr", "0.003", "--batch", "4", "--seed", SEED, "--max-slices", "6",
            "--out", str(out)]  # fmt: skip
    proc = subprocess.run(
        [sys.executable, "-c", _TRAIN_AT_AFFINITY, affinity, *argv],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    return int(proc.stdout.splitlines()[0])


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2, reason="needs 2 CPUs"
)
def test_train_bytes_do_not_depend_on_the_cpu_count(micro_corpus, tmp_path):
    """The README's promise: at one BLAS thread count, one CPU and every CPU write the same bytes."""
    one = tmp_path / "one" / "checkpoint.svck"
    every = tmp_path / "every" / "checkpoint.svck"
    assert _train_in_child(micro_corpus, one, "one-cpu") == 1
    assert _train_in_child(micro_corpus, every, "every-cpu") >= 2
    assert one.read_bytes() == every.read_bytes()
    assert one.with_suffix(".loss.log").read_bytes() == every.with_suffix(".loss.log").read_bytes()


def test_import_leaves_scipy_signal_unloaded():
    """Only `svkit synth` needs scipy.signal, so importing the CLI does not pay for it."""
    env = dict(os.environ, PYTHONPATH=str(Path(svkit.__file__).parents[1]))
    code = "import sys, svkit.cli; sys.exit('scipy.signal' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0


class TestSynth:
    def test_manifest_row_count(self, micro_corpus):
        lines = (micro_corpus / "data" / "manifest.csv").read_text().splitlines()
        assert len(lines) == 1 + 4 * 2  # header + speakers * files

    def test_rerun_is_byte_identical(self, micro_corpus, tmp_path):
        rc = main(
            ["synth", "--speakers", "4", "--utterances", "2", "--seed", SEED,
             "--out", str(tmp_path / "data"), "--duration", "2.0", "--dev-speakers", "2"]
        )
        assert rc == 0
        for wav in sorted(p.name for p in (micro_corpus / "data").iterdir()):
            assert (tmp_path / "data" / wav).read_bytes() == (micro_corpus / "data" / wav).read_bytes()

    def test_single_speaker_exits_2(self, tmp_path, capsys):
        rc = main(
            ["synth", "--speakers", "1", "--utterances", "2", "--seed", "0", "--out", str(tmp_path),
             "--dev-speakers", "1"]
        )
        assert rc == 2
        assert "speakers" in capsys.readouterr().err

    def test_without_dev_speakers_exits_2(self, tmp_path, capsys):
        """Every manifest synth writes tags each speaker's phase, so the development speaker count is required."""
        out = tmp_path / "data"
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--speakers", "2", "--utterances", "1", "--seed", "0", "--out", str(out)])
        assert exc.value.code == 2
        assert "--dev-speakers" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("duration", ["0", "1e-5", "-1", "nan", "inf"])
    def test_duration_without_samples_exits_2(self, tmp_path, capsys, duration):
        out = tmp_path / "data"
        rc = main(
            ["synth", "--speakers", "2", "--utterances", "1", "--seed", "0", "--out", str(out),
             "--duration", duration, "--dev-speakers", "1"]
        )
        assert rc == 2
        assert "duration" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("command", ["train", "enroll"])
def test_max_slices_below_1_exits_2(trained, tmp_path, capsys, command, value):
    root, ckpts = trained
    out = tmp_path / "out"
    extra = {
        "train": ["--model", "lcn_dvector", "--epochs", "0"],
        "enroll": ["--checkpoint", str(ckpts["cnn3d"])],
    }[command]
    rc = main(
        [command, "--manifest", str(root / "data" / "manifest.csv"), "--seed", SEED,
         "--max-slices", value, "--out", str(out), *extra]
    )
    assert rc == 2
    assert f"--max-slices must be at least 1, got {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "enroll"])
def test_auto_tagged_row_exits_2(trained, tmp_path, capsys, command):
    """A speaker's phase comes from its rows' tags alone: a row tagged 'auto' is rejected at load, by line."""
    root, ckpts = trained
    data = root / "data"
    rows = (data / "manifest.csv").read_text().splitlines()
    retagged = [rows[0]]
    for row in rows[1:]:
        speaker, rel, session, split = row.split(",")
        retagged.append(",".join((speaker, str(data / rel), session, "auto" if rel == "spk002_u00.wav" else split)))
    manifest = tmp_path / "auto.csv"
    manifest.write_text("\n".join(retagged) + "\n")
    out = tmp_path / "out"
    extra = {
        "train": ["--model", "lcn_dvector", "--epochs", "0", "--out", str(out / "x.svck")],
        "enroll": ["--checkpoint", str(ckpts["cnn3d"]), "--out", str(out / "x.svsm")],
    }[command]
    rc = main([command, "--manifest", str(manifest), "--seed", SEED, *extra])
    assert rc == 2
    valid = "('development', 'enrollment', 'evaluation')"
    assert f"{manifest}:6: split 'auto' not one of {valid}" in capsys.readouterr().err
    assert not out.exists()


class TestTrain:
    def test_zero_epochs_checkpoint_equals_initialization(self, micro_corpus, tmp_path):
        manifest = str(micro_corpus / "data" / "manifest.csv")
        paths = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.svck"
            rc = main(
                ["train", "--manifest", manifest, "--model", "lcn_dvector", "--zeta", "2",
                 "--epochs", "0", "--seed", SEED, "--max-slices", "4", "--out", str(out)]
            )
            assert rc == 0
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        ck = load_checkpoint(paths[0])
        assert ck.epoch == 0

    def test_checkpoint_metadata(self, trained):
        _, ckpts = trained
        ck = load_checkpoint(ckpts["cnn3d"])
        assert ck.spec.kind == "cnn3d"
        assert ck.spec.zeta == 2
        assert ck.spec.n_classes == 2
        assert ck.seed == int(SEED)

    def test_loss_log_written(self, trained):
        root, ckpts = trained
        log = ckpts["cnn3d"].with_suffix(".loss.log")
        lines = log.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("1,")
        assert math.isfinite(float(lines[0].split(",")[1]))

    def test_summary_table_written(self, trained):
        _, ckpts = trained
        text = ckpts["cnn3d"].with_suffix(".summary.txt").read_text()
        header = text.splitlines()[0].split()
        assert header == ["layer", "kind", "output", "kernel", "stride", "params"]
        assert "conv1_1" in text and "fc5" in text

    def test_lcn_default_lr_is_the_baseline_rate(self, micro_corpus, tmp_path):
        manifest = str(micro_corpus / "data" / "manifest.csv")
        common = ["train", "--manifest", manifest, "--model", "lcn_dvector", "--epochs", "1",
                  "--batch", "4", "--seed", SEED, "--max-slices", "6"]
        assert main([*common, "--out", str(tmp_path / "default.svck")]) == 0
        assert main([*common, "--lr", "0.0003", "--out", str(tmp_path / "explicit.svck")]) == 0
        for suffix in (".svck", ".loss.log"):
            default = (tmp_path / "default.svck").with_suffix(suffix).read_bytes()
            assert default == (tmp_path / "explicit.svck").with_suffix(suffix).read_bytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_divergent_training_exits_4(self, micro_corpus, tmp_path, capsys):
        manifest = str(micro_corpus / "data" / "manifest.csv")
        rc = main(
            ["train", "--manifest", manifest, "--model", "lcn_dvector", "--zeta", "2",
             "--epochs", "4", "--lr", "50.0", "--seed", SEED, "--max-slices", "6",
             "--out", str(tmp_path / "x.svck")]
        )
        assert rc == 4
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_lr_exits_2(self, micro_corpus, tmp_path, capsys, lr):
        manifest = str(micro_corpus / "data" / "manifest.csv")
        out = tmp_path / "x.svck"
        rc = main(
            ["train", "--manifest", manifest, "--model", "lcn_dvector", "--epochs", "1",
             "--lr", lr, "--seed", SEED, "--max-slices", "6", "--out", str(out)]
        )
        assert rc == 2
        assert "finite positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_overflowing_last_step_exits_4(self, micro_corpus, tmp_path, capsys):
        manifest = str(micro_corpus / "data" / "manifest.csv")
        out = tmp_path / "x.svck"
        rc = main(
            ["train", "--manifest", manifest, "--model", "lcn_dvector", "--epochs", "1",
             "--batch", "1000", "--lr", "1e308", "--seed", SEED, "--max-slices", "6", "--out", str(out)]
        )
        assert rc == 4
        assert "non-finite values in trained" in capsys.readouterr().err
        assert not out.exists()

    def test_dev_speaker_also_in_eval_phase_exits_2(self, micro_corpus, tmp_path, capsys):
        data = micro_corpus / "data"
        manifest = tmp_path / "overlap.csv"
        lines = (data / "manifest.csv").read_text().splitlines()
        # retag one of spk000's files as enrollment while others stay development
        swapped = [
            line.replace("development", "enrollment") if "spk000_u01" in line else line
            for line in lines
        ]
        manifest.write_text("\n".join(swapped) + "\n")
        # paths are relative to the manifest; keep them resolvable
        manifest = tmp_path / "overlap.csv"
        rewritten = []
        for line in manifest.read_text().splitlines():
            if line.startswith("speaker_id"):
                rewritten.append(line)
            else:
                parts = line.split(",")
                parts[1] = str((data / parts[1]).resolve())
                rewritten.append(",".join(parts))
        manifest.write_text("\n".join(rewritten) + "\n")
        rc = main(
            ["train", "--manifest", str(manifest), "--model", "lcn_dvector", "--zeta", "2",
             "--epochs", "0", "--seed", SEED, "--out", str(tmp_path / "x.svck")]
        )
        assert rc == 2
        assert "both development and evaluation" in capsys.readouterr().err

    def test_partial_sample_wav_exits_3(self, micro_corpus, tmp_path, capsys):
        data = shutil.copytree(micro_corpus / "data", tmp_path / "data")
        fmt = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)
        body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
        body += b"data" + struct.pack("<I", 5) + b"\x01" * 5  # 5 bytes: two and a half 16-bit samples
        next(data.glob("spk000_*.wav")).write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        rc = main(
            ["train", "--manifest", str(data / "manifest.csv"), "--model", "lcn_dvector", "--zeta", "2",
             "--epochs", "0", "--seed", SEED, "--out", str(tmp_path / "x.svck")]
        )
        assert rc == 3
        assert "whole number" in capsys.readouterr().err

    def test_zeta_too_deep_for_corpus_exits_2(self, micro_corpus, tmp_path, capsys):
        manifest = str(micro_corpus / "data" / "manifest.csv")
        rc = main(
            ["train", "--manifest", manifest, "--model", "cnn3d", "--zeta", "50",
             "--epochs", "1", "--seed", SEED, "--max-slices", "6", "--out", str(tmp_path / "x.svck")]
        )
        assert rc == 2
        assert "stack depth" in capsys.readouterr().err

    def test_missing_manifest_exits_2(self, tmp_path):
        rc = main(
            ["train", "--manifest", str(tmp_path / "none.csv"), "--model", "cnn3d",
             "--epochs", "1", "--out", str(tmp_path / "x.svck")]
        )
        assert rc == 2

    def test_feature_dump(self, micro_corpus, tmp_path):
        manifest = str(micro_corpus / "data" / "manifest.csv")
        dump = tmp_path / "features"
        rc = main(
            ["train", "--manifest", manifest, "--model", "lcn_dvector", "--zeta", "2",
             "--epochs", "0", "--seed", SEED, "--max-slices", "2", "--out", str(tmp_path / "x.svck"),
             "--dump-features", str(dump)]
        )
        assert rc == 0
        from svkit.dsp.features import read_feature_file

        files = sorted(dump.glob("*.mfec"))
        assert len(files) == 4  # 2 dev speakers * 2 maps
        assert read_feature_file(files[0]).values.shape == (80, 40)

    def test_dumped_features_match_per_slice_framing(self, micro_corpus, tmp_path):
        """Every dumped map, with a cap that reaches into each speaker's second file, equals its slice framed alone."""
        from oracles import feature_maps_per_slice
        from svkit.corpus.manifest import load_manifest
        from svkit.dsp.features import mel_filterbank, read_feature_file

        manifest = micro_corpus / "data" / "manifest.csv"
        dump = tmp_path / "features"
        rc = main(
            ["train", "--manifest", str(manifest), "--model", "lcn_dvector", "--epochs", "0", "--seed", SEED,
             "--max-slices", "10", "--out", str(tmp_path / "x.svck"), "--dump-features", str(dump)]
        )
        assert rc == 0
        dev = [e for e in load_manifest(manifest) if e.split == "development"]
        want = {
            uid.replace("#", "_") + ".mfec": values
            for maps in feature_maps_per_slice(dev, mel_filterbank(), 10).values()
            for uid, values in maps
        }
        assert len(want) == 20 and {name.rsplit("_", 1)[0] for name in want} == {e.path.stem for e in dev}
        assert sorted(p.name for p in dump.glob("*.mfec")) == sorted(want)
        for name, values in want.items():
            assert read_feature_file(dump / name).values.tobytes() == values.tobytes(), name


@pytest.fixture(scope="module")
def nested_corpus(micro_corpus, tmp_path_factory):
    """The micro corpus laid out as <speaker>/take<u>.wav, so every speaker has a take0.wav and a take1.wav."""
    root = tmp_path_factory.mktemp("nested")
    lines = (micro_corpus / "data" / "manifest.csv").read_text().splitlines()
    rows = [lines[0]]
    for line in lines[1:]:
        speaker, rel, session, split = line.split(",")
        name = f"{speaker}/take{int(Path(rel).stem.rsplit('_u', 1)[1])}.wav"  # spk000_u01.wav -> spk000/take1.wav
        (root / speaker).mkdir(exist_ok=True)
        shutil.copyfile(micro_corpus / "data" / rel, root / name)
        rows.append(",".join((speaker, name, session, split)))
    (root / "manifest.csv").write_text("\n".join(rows) + "\n")
    return root


class TestUtteranceIds:
    def test_dumps_mirror_the_speaker_directories(self, nested_corpus, tmp_path):
        """Each speaker's take0 and take1 keep their own dumps, each its slice framed alone."""
        from oracles import feature_maps_per_slice
        from svkit.corpus.manifest import load_manifest
        from svkit.dsp.features import mel_filterbank, read_feature_file

        dump = tmp_path / "features"
        rc = main(
            ["train", "--manifest", str(nested_corpus / "manifest.csv"), "--model", "lcn_dvector", "--epochs", "0",
             "--seed", SEED, "--max-slices", "10", "--out", str(tmp_path / "x.svck"), "--dump-features", str(dump)]
        )  # fmt: skip
        assert rc == 0
        dev = [e for e in load_manifest(nested_corpus / "manifest.csv") if e.split == "development"]
        want = {
            f"{speaker}/{uid.replace('#', '_')}.mfec": values
            for speaker, maps in feature_maps_per_slice(dev, mel_filterbank(), 10).items()
            for uid, values in maps
        }
        assert len(want) == 20
        assert sorted(p.relative_to(dump).as_posix() for p in dump.rglob("*.mfec")) == sorted(want)
        for name, values in want.items():
            assert read_feature_file(dump / name).values.tobytes() == values.tobytes(), name

    def test_scores_name_the_speaker_directory(self, nested_corpus, trained, tmp_path):
        _, ckpts = trained
        common = ["--manifest", str(nested_corpus / "manifest.csv"), "--checkpoint", str(ckpts["lcn_dvector"]),
                  "--seed", SEED, "--max-slices", "6"]  # fmt: skip
        assert main(["enroll", *common, "--out", str(tmp_path / "m.svsm")]) == 0
        assert main(["evaluate", *common, "--models", str(tmp_path / "m.svsm"), "--out-dir", str(tmp_path)]) == 0
        rows = [line.split(",") for line in (tmp_path / "scores.csv").read_text().splitlines()[1:]]
        genuine = [(uid, claimed) for uid, claimed, label, _ in rows if label == "genuine"]
        assert len(genuine) == 6 and all(uid.startswith(f"{claimed}/take") for uid, claimed in genuine)
        assert len({uid for uid, *_ in rows}) == len(genuine)

    def test_dump_of_a_file_outside_the_manifest_directory_exits_2(self, nested_corpus, tmp_path, capsys):
        manifest = tmp_path / "manifest.csv"
        lines = (nested_corpus / "manifest.csv").read_text().splitlines()
        manifest.write_text("\n".join([lines[0], *(line.replace(",spk", f",{nested_corpus}/spk") for line in lines[1:])]))
        rc = main(
            ["train", "--manifest", str(manifest), "--model", "lcn_dvector", "--epochs", "0", "--seed", SEED,
             "--out", str(tmp_path / "x.svck"), "--dump-features", str(tmp_path / "features")]
        )  # fmt: skip
        assert rc == 2
        assert "outside" in capsys.readouterr().err
        assert not (tmp_path / "features").exists()


class TestEnroll:
    def test_records_and_idempotence(self, trained, tmp_path):
        root, ckpts = trained
        manifest = str(root / "data" / "manifest.csv")
        outs = []
        for name in ("m1.svsm", "m2.svsm"):
            out = tmp_path / name
            rc = main(
                ["enroll", "--manifest", manifest, "--checkpoint", str(ckpts["cnn3d"]),
                 "--seed", SEED, "--max-slices", "6", "--out", str(out)]
            )
            assert rc == 0
            outs.append(out)
        assert outs[0].read_bytes() == outs[1].read_bytes()
        models = load_speaker_models(outs[0])
        assert models.speaker_ids == ("spk002", "spk003")
        assert models.kind == "one_shot_3d"
        # the enrollment CRC hashes the enrolled maps' ids: the per-slice oracle's ids, halved by the seed
        from oracles import feature_maps_per_slice
        from svkit.corpus.manifest import load_manifest
        from svkit.corpus.slicing import split_enroll_eval
        from svkit.dsp.features import mel_filterbank

        entries = [e for e in load_manifest(manifest) if e.speaker_id in models.speaker_ids]
        ids = {s: [uid for uid, _ in maps] for s, maps in feature_maps_per_slice(entries, mel_filterbank(), 6).items()}
        enrolled, _ = split_enroll_eval(ids, int(SEED))
        want = zlib.crc32(json.dumps(enrolled, sort_keys=True, separators=(",", ":")).encode())
        assert (models.checkpoint_crc, models.enrollment_crc) == (load_checkpoint(ckpts["cnn3d"]).crc, want)

    def test_dvector_flag_tags_records(self, trained, tmp_path):
        root, ckpts = trained
        manifest = str(root / "data" / "manifest.csv")
        out = tmp_path / "dv.svsm"
        rc = main(
            ["enroll", "--manifest", manifest, "--checkpoint", str(ckpts["cnn3d"]),
             "--mode", "dvector", "--seed", SEED, "--max-slices", "6", "--out", str(out)]
        )
        assert rc == 0
        assert load_speaker_models(out).kind == "d_vector_avg"

    @pytest.mark.parametrize(
        "damage,named",
        [
            (lambda bn: setattr(bn, "bn_running_var", None), "bytes, expected"),
            (lambda bn: setattr(bn, "bias", np.zeros_like(bn.bn_shift)), "128 trailing bytes"),
            (lambda bn: setattr(bn, "kind", "conv2d"), "layer layout"),
        ],
        ids=["missing_array", "extra_array", "unknown_kind"],
    )
    def test_layer_unfit_for_its_kind_with_valid_crc_exits_3(self, trained, tmp_path, capsys, damage, named):
        root, ckpts = trained
        ckpt = load_checkpoint(ckpts["cnn3d"])
        damage(next(layer for layer in ckpt.layers if layer.kind == "batchnorm"))
        bad = tmp_path / "bad.svck"
        save_checkpoint(ckpt, bad)  # the library's own writer: a valid CRC
        rc = main(
            ["enroll", "--manifest", str(root / "data" / "manifest.csv"), "--checkpoint", str(bad),
             "--seed", SEED, "--max-slices", "6", "--out", str(tmp_path / "x.svsm")]
        )
        assert rc == 3
        assert named in capsys.readouterr().err
        assert not (tmp_path / "x.svsm").exists()

    @pytest.mark.parametrize(
        "kind,field,size,named",
        [
            ("batchnorm", "bn_running_var", 3, "bytes, expected"),
            ("conv3d", "bias", 5, "bytes, expected"),
            ("prelu", "prelu_slope", 17, "8 trailing bytes"),
        ],
        ids=["batchnorm_running_var", "conv_bias", "prelu_slope"],
    )
    def test_wrongly_shaped_array_with_valid_crc_exits_3(self, trained, tmp_path, capsys, kind, field, size, named):
        root, ckpts = trained
        ckpt = load_checkpoint(ckpts["cnn3d"])
        setattr(next(layer for layer in ckpt.layers if layer.kind == kind), field, np.ones(size))
        bad = tmp_path / "bad.svck"
        save_checkpoint(ckpt, bad)  # the library's own writer: a valid CRC
        rc = main(
            ["enroll", "--manifest", str(root / "data" / "manifest.csv"), "--checkpoint", str(bad),
             "--seed", SEED, "--max-slices", "6", "--out", str(tmp_path / "x.svsm")]
        )
        assert rc == 3
        assert named in capsys.readouterr().err
        assert not (tmp_path / "x.svsm").exists()

    @pytest.mark.parametrize(
        "edit,named",
        [
            (lambda h, p: (3, h | {"layout": h["layout"] ^ 1}, p), "layer layout"),
            (lambda h, p: (3, h, p[:-8]), "bytes, expected"),
            (lambda h, p: (3, h, p + bytes(8)), "8 trailing bytes"),
            (lambda h, p: (2, h, p), "checkpoint version 2, expected 3"),
            (lambda h, p: (3, h | {"kind": "cnn2d"}, p), "unknown model kind 'cnn2d'"),
            (lambda h, p: (3, h | {"widths": [16, 32.0, 64, 128, 128]}, p), "positive integers"),
        ],
        ids=["layout", "payload_short", "payload_long", "version_2", "unknown_kind", "float_width"],
    )
    def test_edited_v3_file_with_valid_crc_exits_3(self, trained, tmp_path, capsys, edit, named):
        root, ckpts = trained
        raw = ckpts["cnn3d"].read_bytes()
        (hlen,) = struct.unpack_from("<I", raw, 8)
        version, header, payload = edit(json.loads(raw[12 : 12 + hlen]), raw[12 + hlen : -4])
        hjson = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        body = b"SV3D" + struct.pack("<II", version, len(hjson)) + hjson + payload
        bad = tmp_path / "bad.svck"
        bad.write_bytes(body + struct.pack("<I", zlib.crc32(body)))  # a valid CRC
        rc = main(
            ["enroll", "--manifest", str(root / "data" / "manifest.csv"), "--checkpoint", str(bad),
             "--seed", SEED, "--max-slices", "6", "--out", str(tmp_path / "x.svsm")]
        )
        assert rc == 3
        assert named in capsys.readouterr().err
        assert not (tmp_path / "x.svsm").exists()

    def test_tagged_speaker_without_enrollment_audio_exits_2(self, trained, tmp_path, capsys):
        """spk002's files are both tagged 'evaluation'; spk003's untagged files are split as usual."""
        root, ckpts = trained
        data = root / "data"
        rows = (data / "manifest.csv").read_text().splitlines()
        tagged = [rows[0]]
        for row in rows[1:]:
            speaker, rel, session, split = row.split(",")
            split = "evaluation" if speaker == "spk002" else split
            tagged.append(",".join((speaker, str(data / rel), session, split)))
        manifest = tmp_path / "tagged.csv"
        manifest.write_text("\n".join(tagged) + "\n")
        rc = main(
            ["enroll", "--manifest", str(manifest), "--checkpoint", str(ckpts["cnn3d"]),
             "--seed", SEED, "--max-slices", "6", "--out", str(tmp_path / "x.svsm")]
        )
        assert rc == 2
        assert "speaker 'spk002' lacks enrollment or evaluation audio" in capsys.readouterr().err
        assert not (tmp_path / "x.svsm").exists()

    def test_cap_below_the_one_shot_rule_exits_2(self, trained, tmp_path, capsys):
        """--max-slices caps each speaker before the seeded halving: at zeta 2, a cap of 2 leaves one enrollment map."""
        root, ckpts = trained
        out = tmp_path / "x.svsm"
        rc = main(
            ["enroll", "--manifest", str(root / "data" / "manifest.csv"), "--checkpoint", str(ckpts["cnn3d"]),
             "--seed", SEED, "--max-slices", "2", "--out", str(out)]
        )  # fmt: skip
        assert rc == 2
        assert "speaker 'spk002' has 1" in capsys.readouterr().err
        assert not out.exists()

    def test_one_shot_on_lcn_exits_2(self, trained, tmp_path, capsys):
        root, ckpts = trained
        manifest = str(root / "data" / "manifest.csv")
        rc = main(
            ["enroll", "--manifest", manifest, "--checkpoint", str(ckpts["lcn_dvector"]),
             "--mode", "one_shot", "--seed", SEED, "--out", str(tmp_path / "x.svsm")]
        )
        assert rc == 2
        assert "one-shot" in capsys.readouterr().err


@pytest.fixture(scope="module")
def evaluated(trained, tmp_path_factory):
    root, ckpts = trained
    manifest = str(root / "data" / "manifest.csv")
    models = root / "cnn3d" / "models.svsm"
    rc = main(
        ["enroll", "--manifest", manifest, "--checkpoint", str(ckpts["cnn3d"]),
         "--seed", SEED, "--max-slices", "6", "--out", str(models)]
    )
    assert rc == 0
    out_dir = tmp_path_factory.mktemp("eval")
    rc = main(
        ["evaluate", "--manifest", manifest, "--checkpoint", str(ckpts["cnn3d"]),
         "--models", str(models), "--seed", SEED, "--max-slices", "6",
         "--out-dir", str(out_dir)]
    )
    assert rc == 0
    return root, ckpts, models, out_dir


class TestEvaluate:
    def test_metrics_json_fields(self, evaluated):
        _, _, _, out_dir = evaluated
        metrics = json.loads((out_dir / "metrics.json").read_text())
        assert set(metrics) == {"eer", "auc", "n_genuine", "n_impostor", "zeta", "model_kind"}
        assert metrics["zeta"] == 2
        assert metrics["model_kind"] == "one_shot_3d"
        assert 0.0 <= metrics["eer"] <= 1.0
        assert 0.0 <= metrics["auc"] <= 1.0
        assert metrics["n_genuine"] > 0 and metrics["n_impostor"] > 0

    def test_metrics_recomputable_from_roc_csv(self, evaluated):
        _, _, _, out_dir = evaluated
        metrics = json.loads((out_dir / "metrics.json").read_text())
        rows = (out_dir / "roc.csv").read_text().splitlines()
        assert rows[0] == "tau,tpr,far"
        assert rows[-2] == "eer,auc"
        data = [tuple(map(float, r.split(","))) for r in rows[1:-2]]
        eer = _eer_from_points(data)
        auc = _auc_from_points(data)
        assert abs(eer - metrics["eer"]) < 1e-9
        assert abs(auc - metrics["auc"]) < 1e-9
        summary = tuple(map(float, rows[-1].split(",")))
        assert summary == (metrics["eer"], metrics["auc"])

    def test_score_log_shape(self, evaluated):
        _, _, models_path, out_dir = evaluated
        lines = (out_dir / "scores.csv").read_text().splitlines()
        n_models = len(load_speaker_models(models_path).speaker_ids)
        assert lines[0] == "utterance_id,claimed_id,label,score"
        assert (len(lines) - 1) % n_models == 0
        labels = {line.split(",")[2] for line in lines[1:]}
        assert labels == {"genuine", "impostor"}

    def test_svg_plot_written(self, evaluated):
        _, _, _, out_dir = evaluated
        svg = (out_dir / "roc.svg").read_text()
        assert svg.startswith("<svg")
        assert "polyline" in svg and "EER=" in svg

    def test_rerun_bit_identical(self, evaluated, tmp_path):
        root, ckpts, models, out_dir = evaluated
        manifest = str(root / "data" / "manifest.csv")
        rc = main(
            ["evaluate", "--manifest", manifest, "--checkpoint", str(ckpts["cnn3d"]),
             "--models", str(models), "--seed", SEED, "--max-slices", "6",
             "--out-dir", str(tmp_path)]
        )
        assert rc == 0
        for name in ("metrics.json", "roc.csv", "scores.csv", "roc.svg"):
            assert (tmp_path / name).read_bytes() == (out_dir / name).read_bytes()

    def test_missing_models_file_exits_3(self, evaluated, tmp_path, capsys):
        root, ckpts, _, _ = evaluated
        manifest = str(root / "data" / "manifest.csv")
        rc = main(
            ["evaluate", "--manifest", manifest, "--checkpoint", str(ckpts["cnn3d"]),
             "--models", str(tmp_path / "ghost.svsm"), "--seed", SEED,
             "--out-dir", str(tmp_path)]
        )
        assert rc == 3

    def test_corrupt_checkpoint_header_exits_3(self, evaluated, tmp_path, capsys):
        root, ckpts, models, _ = evaluated
        raw = bytearray(ckpts["cnn3d"].read_bytes())
        raw[12] ^= 0xFF
        bad = tmp_path / "bad.svck"
        bad.write_bytes(bytes(raw))
        rc = main(
            ["evaluate", "--manifest", str(root / "data" / "manifest.csv"), "--checkpoint", str(bad),
             "--models", str(models), "--seed", SEED, "--out-dir", str(tmp_path)]
        )
        assert rc == 3
        assert "header" in capsys.readouterr().err

    def test_nan_model_record_with_valid_crc_exits_3(self, evaluated, tmp_path, capsys):
        root, ckpts, models, _ = evaluated
        body = models.read_bytes()[:-4]
        body = body[:-8] + struct.pack("<d", math.nan)  # the last model's last float
        bad = tmp_path / "nan.svsm"
        bad.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        rc = main(
            ["evaluate", "--manifest", str(root / "data" / "manifest.csv"), "--checkpoint", str(ckpts["cnn3d"]),
             "--models", str(bad), "--seed", SEED, "--out-dir", str(tmp_path)]
        )
        assert rc == 3
        assert "unit-norm" in capsys.readouterr().err


@pytest.fixture(scope="module")
def other_checkpoints(micro_corpus):
    """cnn3d checkpoints that did not enroll `evaluated`'s models: one at another seed, one at another zeta."""
    manifest = str(micro_corpus / "data" / "manifest.csv")
    out = {}
    for name, zeta, seed in (("other_seed", "2", "34"), ("other_zeta", "3", SEED)):
        out[name] = micro_corpus / name / "checkpoint.svck"
        rc = main(
            ["train", "--manifest", manifest, "--model", "cnn3d", "--zeta", zeta, "--epochs", "1",
             "--batch", "4", "--seed", seed, "--max-slices", "6", "--out", str(out[name])]
        )  # fmt: skip
        assert rc == 0
    return out


class TestModelBinding:
    """A model file is evaluated only with the checkpoint that enrolled it, and only where the split gives the
    enrollment maps it was enrolled from (its `enrollment_crc`), whichever inputs of the split differ."""

    @pytest.mark.parametrize("other", ["other_seed", "other_zeta"])
    def test_models_of_another_checkpoint_exit_2(self, evaluated, other_checkpoints, tmp_path, capsys, other):
        root, ckpts, models, _ = evaluated
        rc = main(
            ["evaluate", "--manifest", str(root / "data" / "manifest.csv"),
             "--checkpoint", str(other_checkpoints[other]), "--models", str(models),
             "--seed", SEED, "--max-slices", "6", "--out-dir", str(tmp_path / "out")]
        )  # fmt: skip
        assert rc == 2
        err = capsys.readouterr().err
        crcs = (load_checkpoint(ckpt).crc for ckpt in (ckpts["cnn3d"], other_checkpoints[other]))
        assert "enrolled at checkpoint_crc {}, this run has {}".format(*crcs) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "change",
        [{"--seed": "34"}, {"--max-slices": "5"}, "appended_file"],  # the last: one more file for spk002 after enroll
        ids=["seed", "max_slices", "appended_file"],
    )
    def test_another_split_exits_2(self, evaluated, tmp_path, capsys, change):
        root, ckpts, models, _ = evaluated
        manifest, flags = root / "data" / "manifest.csv", {"--seed": SEED, "--max-slices": "6"}
        if change == "appended_file":
            # models enrolled without a cap, so the appended file's maps reach the split
            corpus = shutil.copytree(manifest.parent, tmp_path / "corpus")  # same ids: they are manifest-relative
            manifest, models = corpus / "manifest.csv", tmp_path / "uncapped.svsm"
            flags, change = {"--seed": SEED}, {}
            rc = main(["enroll", "--manifest", str(manifest), "--checkpoint", str(ckpts["cnn3d"]), "--seed", SEED,
                       "--out", str(models)])  # fmt: skip
            assert rc == 0
            shutil.copyfile(corpus / "spk002_u01.wav", corpus / "spk002_u02.wav")
            with open(manifest, "a") as fh:
                fh.write("spk002,spk002_u02.wav,s3,enrollment\n")
        rc = main(
            ["evaluate", "--manifest", str(manifest), "--checkpoint", str(ckpts["cnn3d"]), "--models", str(models),
             *(arg for item in (flags | change).items() for arg in item), "--out-dir", str(tmp_path / "out")]
        )  # fmt: skip
        assert rc == 2
        assert "enrolled at enrollment_crc " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_file_tagged_split_ignores_the_seed(self, trained, tmp_path):
        """With every evaluation speaker's files tagged, the split never reads --seed: another seed scores the same."""
        root, ckpts = trained
        data = root / "data"
        rows = (data / "manifest.csv").read_text().splitlines()
        tagged = [rows[0]]
        for row in rows[1:]:
            speaker, rel, session, split = row.split(",")
            if split != "development":
                split = "evaluation" if rel.endswith("_u01.wav") else "enrollment"
            tagged.append(",".join((speaker, str(data / rel), session, split)))
        manifest = tmp_path / "tagged.csv"
        manifest.write_text("\n".join(tagged) + "\n")
        common = ["--manifest", str(manifest), "--checkpoint", str(ckpts["cnn3d"]), "--max-slices", "6"]
        models = str(tmp_path / "m.svsm")
        assert main(["enroll", *common, "--seed", SEED, "--out", models]) == 0
        for seed in (SEED, "34"):
            assert main(["evaluate", *common, "--models", models, "--seed", seed, "--out-dir", str(tmp_path / seed)]) == 0
        assert (tmp_path / "34" / "scores.csv").read_bytes() == (tmp_path / SEED / "scores.csv").read_bytes()

    def test_version_1_model_file_exits_3(self, evaluated, tmp_path, capsys):
        """A file in the per-speaker record layout that version 1 wrote: re-enroll to read it."""
        root, ckpts, models, _ = evaluated
        m = load_speaker_models(models)
        body = b"SVSM" + struct.pack("<II", 1, len(m.speaker_ids))
        for speaker, vec in zip(m.speaker_ids, m.vectors):
            body += struct.pack("<H", len(speaker)) + speaker.encode()
            body += struct.pack("<BII", 0, 2, vec.size) + vec.astype("<f8").tobytes()  # zeta 2, the checkpoint's
        v1 = tmp_path / "v1.svsm"
        v1.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        rc = main(
            ["evaluate", "--manifest", str(root / "data" / "manifest.csv"), "--checkpoint", str(ckpts["cnn3d"]),
             "--models", str(v1), "--seed", SEED, "--max-slices", "6", "--out-dir", str(tmp_path / "out")]
        )  # fmt: skip
        assert rc == 3
        assert "model file version 1, expected 3" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_version_2_model_file_exits_3(self, evaluated, tmp_path, capsys):
        """A file whose header holds the split's seed and max_slices, as version 2 wrote it: re-enroll to read it."""
        root, ckpts, models, _ = evaluated
        m = load_speaker_models(models)
        header = {"kind": m.kind, "zeta": 2, "speaker_ids": list(m.speaker_ids), "shape": list(m.vectors.shape),
                  "checkpoint_crc": m.checkpoint_crc, "seed": int(SEED), "max_slices": 6}  # fmt: skip
        hjson = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        body = b"SVSM" + struct.pack("<II", 2, len(hjson)) + hjson + m.vectors.astype("<f8").tobytes()
        v2 = tmp_path / "v2.svsm"
        v2.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        rc = main(
            ["evaluate", "--manifest", str(root / "data" / "manifest.csv"), "--checkpoint", str(ckpts["cnn3d"]),
             "--models", str(v2), "--seed", SEED, "--max-slices", "6", "--out-dir", str(tmp_path / "out")]
        )  # fmt: skip
        assert rc == 3
        assert "model file version 2, expected 3" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestConfigFile:
    """A run's settings come from its flags and RunConfig's defaults: no file, no environment variable."""

    def test_seed_environment_variable_is_ignored(self, micro_corpus, tmp_path, monkeypatch):
        argv = ["train", "--manifest", str(micro_corpus / "data" / "manifest.csv"), "--model", "lcn_dvector",
                "--epochs", "0", "--max-slices", "4"]  # fmt: skip
        assert main([*argv, "--out", str(tmp_path / "unset.svck")]) == 0
        monkeypatch.setenv("SVKIT_SEED", "7")
        assert main([*argv, "--out", str(tmp_path / "set.svck")]) == 0
        assert (tmp_path / "set.svck").read_bytes() == (tmp_path / "unset.svck").read_bytes()
        assert load_checkpoint(tmp_path / "set.svck").seed == 0

    @pytest.mark.parametrize("source", ["flag"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, source):
        rc = main(
            ["synth", "--speakers", "2", "--utterances", "1", "--seed", "-1", "--out", str(tmp_path / "d"),
             "--dev-speakers", "1"]
        )
        assert rc == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()


class TestZetaSweep:
    def test_two_depth_sweep(self, micro_corpus, tmp_path):
        manifest = str(micro_corpus / "data" / "manifest.csv")
        out_dir = tmp_path / "sweep"
        rc = main(
            ["zeta-sweep", "--manifest", manifest, "--zetas", "3,2", "--models", "cnn3d,lcn_dvector",
             "--epochs", "1", "--batch", "4", "--seed", SEED, "--max-slices", "6", "--out-dir", str(out_dir)]
        )
        assert rc == 0
        table = (out_dir / "sweep.txt").read_text().splitlines()
        rows = [row.split() for row in table[1:]]
        # the cube rows ascend whatever the flag order; the baseline reads one map, so it runs once, at zeta 1
        assert [(system, int(zeta), kind) for system, zeta, kind, _, _ in rows] == [
            ("cnn3d", 2, "one_shot_3d"), ("cnn3d", 3, "one_shot_3d"), ("lcn_dvector", 1, "d_vector_avg"),
        ]  # fmt: skip
        for system, zeta, *_ in rows:
            assert (out_dir / system / f"zeta_{int(zeta):03d}" / "metrics.json").exists()
        # a sweep step writes what the three commands write when run by hand at the same flags
        hand = tmp_path / "hand"
        ckpt, svsm = str(hand / "checkpoint.svck"), str(hand / "models.svsm")
        shared = ["--manifest", manifest, "--seed", SEED, "--max-slices", "6"]
        assert main(["train", *shared, "--model", "cnn3d", "--zeta", "3", "--epochs", "1", "--batch", "4",
                     "--out", ckpt]) == 0  # fmt: skip
        assert main(["enroll", *shared, "--checkpoint", ckpt, "--out", svsm]) == 0
        assert main(["evaluate", *shared, "--checkpoint", ckpt, "--models", svsm, "--out-dir", str(hand)]) == 0
        for name in ("checkpoint.svck", "models.svsm", "scores.csv"):
            assert (out_dir / "cnn3d" / "zeta_003" / name).read_bytes() == (hand / name).read_bytes(), name

    def test_bad_zeta_list_exits_2(self, micro_corpus, tmp_path):
        manifest = str(micro_corpus / "data" / "manifest.csv")
        rc = main(["zeta-sweep", "--manifest", manifest, "--zetas", "a,b", "--out-dir", str(tmp_path)])
        assert rc == 2
        rc = main(["zeta-sweep", "--manifest", manifest, "--zetas", "2", "--models", "cnn3d,foo",
                   "--out-dir", str(tmp_path)])  # fmt: skip
        assert rc == 2
        assert not list(tmp_path.iterdir())

    def test_rejected_run_leaves_no_step_directory(self, micro_corpus, tmp_path):
        out_dir = tmp_path / "sweep"
        rc = main(["zeta-sweep", "--manifest", str(micro_corpus / "data" / "manifest.csv"),
                   "--zetas", "2", "--max-slices", "0", "--out-dir", str(out_dir)])
        assert rc == 2
        assert not list(tmp_path.glob("**/zeta_*"))


def _eer_from_points(rows):
    for j in range(1, len(rows)):
        _, tpr0, far0 = rows[j - 1]
        _, tpr1, far1 = rows[j]
        d0 = far0 - (1.0 - tpr0)
        d1 = far1 - (1.0 - tpr1)
        if d1 <= 0.0:
            if d1 == 0.0:
                return far1
            t = d0 / (d0 - d1)
            return far0 + t * (far1 - far0)
    raise AssertionError("no EER crossing found")


def _auc_from_points(rows):
    pts = sorted((far, tpr) for _, tpr, far in rows)
    return sum(
        0.5 * (pts[j][0] - pts[j - 1][0]) * (pts[j][1] + pts[j - 1][1]) for j in range(1, len(pts))
    )
