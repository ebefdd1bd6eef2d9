"""Byte identity of the whole command-line chain across commits.

Criterion 7 compares two runs of one commit. This test compares one run
with sha256 digests recorded on an earlier commit, so a refactor or a
speed-up that moves a single bit of any output fails here. A behaviour
change updates the digests in the same change and says which files moved
and why.

The corpus is ``small_corpus`` with one bad intervals cell and one bad
confidence, so that the failure paths (errors.log, exit code 1) are
pinned with the rest. The temporary directory is masked wherever an
output names it: in stdout, in errors.log and in ``config --dump``.

Recorded with numpy 2.4.6 and OpenBLAS on x86-64. No feature bit comes
from a BLAS product: the spectral centroid is a row reduction, and the
band-pass's block products reach the outputs only through peak
comparisons. ``np.fft`` decides bits everywhere, so another numpy, BLAS
or CPU family may still read different digests without any change to the
code.
"""
from __future__ import annotations

import hashlib
import shutil

import numpy as np
import pytest

from readskill.classify import PLANS, save_model, train_plan
from readskill.cli import main

CHAIN = (("featurize", "--dump-frames", "--dump-events"), ("cluster",), ("evaluate",),
         ("train",), ("predict",), ("asr-align",), ("report",), ("config", "--dump"))

DIGESTS = {
    "asr_classes.csv": "ff50366f875ca939661697c175382fa695a92ac0914d38b5a6f9835a7ba5c7c2",
    "asr_confusion.csv": "ce1daba1f80aa6cae2ee061205ce8e2a8890dc370d4f79f46e16a772b7576f96",
    "cluster_model.json": "e1c83ac5083923b6956bbb7f233310a36b3ec154c8a2edba2b25bb450c1d9ee8",
    "clusters.csv": "94234487ff88a4432c5bf91ca64457cea41ba3621aa70fa3ad8359ef766a6051",
    "clusters.svg": "39a397c13a5163af776ec0db2a714c3b4df2a66559f75a3448e306593db87271",
    "confusion_one_stage.csv": "d491765142b8a7f47b3ea03c27c5ff5f387fca31774bb776026cbea887bae479",
    "confusion_two_stage_P.csv": "51d38cba0c56e0e4bf895783a5c7ca1738f387985df9707109c9013de1921fcf",
    "confusion_two_stage_Q.csv": "51d38cba0c56e0e4bf895783a5c7ca1738f387985df9707109c9013de1921fcf",
    "cvreport_one_stage.json": "67a3bdfa571aa75efbc7b5eb103b36ce38eb75d8a4e051f1239dee0cc43323a1",
    "cvreport_two_stage_P.json": "c1cb8ac0506610af07a4e74e5f07fac8ef38707782f011df120eed1461992926",
    "cvreport_two_stage_Q.json": "c663be23ac35cbd834253e66be3c52aff87dd5aa36c3adacb38cfcd13357e7a8",
    "errors.log": "f769394c7c6d94e1aa2b84107f37b078d478c96ae9f3e1dd0b00b113e1ce601e",
    "errors.log after cluster": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "errors.log after featurize": "5e1b72606870263b4062480dbcc6cc9cdd75df91e3b22b303b07c714625346ee",
    "events_c_a_000.csv": "fa0b7dbfe36f8a96d578874af7de5aef95039a7dd9aa358c1408cf314b8b3e94",
    "events_c_a_001.csv": "c60e2175807685593f6a2e84d4b8084592fffe199bd8db33dbb93e9b68af9605",
    "events_c_a_002.csv": "62eaae1fefe3ac757318cad77d8d63188a5a76c639daf7283dc137b8d7c71287",
    "events_i_a_000.csv": "079da3aef933cc092ba781a5a787b86eea98cd14e4f1506225e2e5829aaea057",
    "events_i_a_001.csv": "1ed192e1c3a4d63a07d9142cadf0e0a4511d8b18830e990f7a3ad7eae726eb39",
    "events_i_a_002.csv": "1619ef9f0eb1c5290ff64549e0f381c8dc916f001a0c15be2a3972090217d9f1",
    "events_m_a_000.csv": "f75c1d34f40a974c9179c96381ffd9c3b1b67ef348d5f946bc8cf5924831f4aa",
    "events_m_a_002.csv": "5a3ec2ebd23f670effc1c2b5b33733d8f0cc10ebd19f66ee663bf5cf102452cc",
    "features.csv": "0488207d13749e3004ccf55a1d9d263cf84482f767e25723621a9886ee9b2958",
    "frames_c_a_000.csv": "8d934406d3420bf8b5984ad414cfba75aa4edce518e1d6be0f2feeab3473479c",
    "frames_c_a_001.csv": "b94a5eb9f78352747342e792d95b2b845cfe6c369b0dc5ca3909542e287068eb",
    "frames_c_a_002.csv": "ed4ba5d20ebf5c01fc046090ac690d2f1cfbc5827f73edc777572b72af2630a3",
    "frames_i_a_000.csv": "138d61672b41356445ded77d6f73ee17a01a1e54c0d51ee8bccc7773ae422fe2",
    "frames_i_a_001.csv": "1b7bec6d250c5b823176e10cf953d61b0d555b423221347cfb70cc294cf1f7a0",
    "frames_i_a_002.csv": "c96505a50e395a18cc5bea6bc6aff89b814dd173b4b2612c41ab42ac56fb183c",
    "frames_m_a_000.csv": "f608d241519d9cf0dae46de9fcd4aaee3977f1e1159576fd405d40f7ff03ce18",
    "frames_m_a_002.csv": "67cedca28596258a98f49a156f77a928560e87e6b3320a5831795b6991077f99",
    "model_one_stage.json": "9189be3e8341e93fbecafd9598e0111d2af2c3e04d619805906e9fc82de8304e",
    "model_two_stage_P.json": "d0d1f7d09519d601902df6e41409934c2b7613d2fe18dc1e79671935f83adae9",
    "model_two_stage_Q.json": "3fefe25afd4b55aa62a824bc1a43b90c622b64c15302e7a6dc670a6a915a0193",
    "predictions.csv": "96b4a2c485d6d007e078b9db1b16a1ddca1c8d321b6ba5b5e2ef96f591062e56",
    "report.txt": "b716267038f876d8b22190367f67a4eee59a1c3ac87d41c468cc20d0db34d2e7",
    "silhouette.csv": "f57ab076d3a8a7debc12b2039ecb8d53f29f0a64fc8c2642ae4611b2d68fb1bb",
    "silhouette.svg": "163b00ffba308f9aebfe4aedc8df4c59e9ecceee7a1c8c7a6d258d4b1a752108",
    "transcript": "8669785747c33f86718a65a98c6b740c987112edce2bc7337ececce725ae620e",
}


def _chain_outputs(small_corpus, tmp_path, capsys) -> dict[str, bytes]:
    """Every output of the chain by name, with the temporary directory
    masked: the files left in the output directory, each errors.log as the
    command that wrote it left it, and one transcript of every command's
    exit code, stdout and stderr."""
    corpus, out = tmp_path / "corpus", tmp_path / "out"
    shutil.copytree(small_corpus, corpus)
    (corpus / "m_a_001.intervals.csv").write_text("0.0,2.0\n2.0,two\n")
    hyp = corpus / "i_a_002.hyp.csv"
    rows = hyp.read_text().splitlines()
    rows[3] = rows[3].split(",")[0] + ",1.5"
    hyp.write_text("\n".join(rows) + "\n")

    def mask(data: bytes) -> bytes:
        return data.replace(str(tmp_path).encode(), b"<tmp>")

    outputs, transcript = {}, []
    for command in CHAIN:
        capsys.readouterr()
        rc = main(["--set", f"corpus_root={corpus}", "--set", f"out_dir={out}",
                   "--set", "plan=one_stage,two_stage_P,two_stage_Q", "--set", "folds=2",
                   "--jobs", "1", *command])
        captured = capsys.readouterr()
        transcript.append(f"$ {' '.join(command)} -> {rc}\n{captured.out}"
                          f"[stderr]\n{captured.err}")
        if command[0] in ("featurize", "cluster"):
            outputs[f"errors.log after {command[0]}"] = mask(
                (out / "errors.log").read_bytes())
    outputs["transcript"] = mask("".join(transcript).encode())
    for path in out.iterdir():
        outputs[path.name] = mask(path.read_bytes())
    return outputs


def test_chain_outputs_match_pinned_digests(small_corpus, tmp_path, capsys):
    outputs = _chain_outputs(small_corpus, tmp_path, capsys)
    got = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
    differ = sorted(name for name in got.keys() | DIGESTS.keys()
                    if got.get(name) != DIGESTS.get(name))
    assert not differ, f"outputs that differ from the pinned digests: {differ}"


# The chain above runs on nine recordings with two folds, so none of its
# split rounds holds more than a handful of rows. These models are grown at
# the paper's scale: 189 rows of 17 features with ~40 tied values per
# column, all three classes, and 50 trees per stage.
PAPER_SCALE_MODEL_DIGESTS = {
    "one_stage": "c66c08d82edfd22a462bdccf6beb7b865c5c31ab282536c25661c1ebfedc51e7",
    "two_stage_P": "2324a07ce509c1f55e704c5bdaa7364852376500bb009e1bc2b70717c6ac7316",
    "two_stage_Q": "c52d42030f48d847cae912855d786f1da10ef2ad4ee72c682d5b33d9fd0c3a75",
}


@pytest.mark.parametrize("plan_id", sorted(PAPER_SCALE_MODEL_DIGESTS))
def test_paper_scale_models_match_pinned_digests(plan_id, tmp_path):
    rng = np.random.default_rng(189)
    y = np.repeat(np.arange(3), 63)
    X = np.round(rng.normal(size=(189, 17)) + 0.5 * y[:, None], 2)
    path = tmp_path / "model.json"
    save_model(train_plan(PLANS[plan_id], X, y, seed_path=(189,)), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PAPER_SCALE_MODEL_DIGESTS[plan_id]
