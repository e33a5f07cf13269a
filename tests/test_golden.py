"""Golden-output gate: every CLI output file keeps its recorded bytes.

Each config in ``tests/golden/`` runs all five commands in process in two
modes, ``--seed 7`` and ``--seed 7 --noiseless``, and the sha256 of each
output file must equal its line in ``tests/golden/sha256.txt``.  A mismatch
names every changed, missing or new file as ``config/mode/file``.

The bytes hold for the numpy build they were recorded with: libm, SIMD paths
and BLAS can move the last bit of a cosine or a matrix product.  The record
therefore carries the numpy version and a probe hash over such operations.
Where this host's probe differs, the exact check is skipped, visibly (``pytest
-rs`` lists the reason), and the ``--noiseless`` outputs are compared as
numbers with the lines sampled in ``tests/golden/noiseless.json`` instead.

A change that alters output bytes on purpose regenerates both files with

    PYTHONPATH=src python tests/test_golden.py

and lists the changed files in CHANGES.md.
"""

import hashlib
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

from noonsim.cli import main

GOLDEN = Path(__file__).parent / "golden"
HASHES = GOLDEN / "sha256.txt"
SAMPLES = GOLDEN / "noiseless.json"
CONFIGS = sorted(GOLDEN.glob("*.cfg"))
COMMANDS = ("spectra", "hom", "bunching", "fringe", "budget")
MODES = {"seed7": ("--seed", "7"), "seed7-noiseless": ("--seed", "7", "--noiseless")}
#: Lines kept per ``--noiseless`` file for the numeric comparison; shorter files are kept whole.
SAMPLED_LINES = 32
RELATIVE = 1e-12


def probe() -> str:
    """sha256 of cos, log, exp and a matrix product on fixed inputs."""
    x = np.linspace(-60.0, 60.0, 4099)
    a = np.cos(np.outer(np.linspace(0.0, 3.0, 64), x[:96]))
    digest = hashlib.sha256()
    for values in (np.cos(x), np.log(x * x + 1e-3), np.exp(x / 5.0), a @ a.T):
        digest.update(values.tobytes())
    return digest.hexdigest()


def run_config(config: Path, out: Path) -> dict[str, bytes]:
    """``mode/file`` -> bytes of every file the five commands write for ``config``."""
    files = {}
    for mode, flags in MODES.items():
        for command in COMMANDS:
            assert main(["--config", str(config), *flags, "--out", str(out / mode), command]) == 0, command
        files.update({f"{mode}/{path.name}": path.read_bytes() for path in sorted((out / mode).iterdir())})
    return files


def read_record() -> tuple[dict[str, str], dict[str, str]]:
    """(header, ``config/mode/file`` -> sha256) from ``sha256.txt``."""
    header, hashes = {}, {}
    for line in HASHES.read_text().splitlines():
        if line.startswith("# ") and " = " in line:
            key, _, value = line[2:].partition(" = ")
            header[key] = value
        elif line and not line.startswith("#"):
            digest, name = line.split("  ")
            hashes[name] = digest
    return header, hashes


def sampled(text: str) -> list[list]:
    """[line count, [[index, line], ...]] of ``text``, evenly spaced lines when it is long."""
    lines = text.splitlines()
    keep = np.unique(np.linspace(0, len(lines) - 1, min(len(lines), SAMPLED_LINES)).round().astype(int))
    return [len(lines), [[int(i), lines[i]] for i in keep]]


def same_numbers(got: str, want: str) -> bool:
    """Equal tokens, numbers within RELATIVE plus one unit in the twelfth digit.

    ``%.12g`` rounds to twelve digits, so a value that moved by less than
    RELATIVE can still be written one unit apart in the last one.
    """
    got_tokens, want_tokens = re.split(r"[\s,=()]+", got), re.split(r"[\s,=()]+", want)
    if len(got_tokens) != len(want_tokens):
        return False
    for g, w in zip(got_tokens, want_tokens):
        try:
            a, b = float(g), float(w)
        except ValueError:
            if g != w:
                return False
            continue
        if math.isnan(b) or math.isinf(b):
            if not (a == b or math.isnan(a) and math.isnan(b)):
                return False
            continue
        digit = 10.0 ** (math.floor(math.log10(abs(b))) - 11) if b else 0.0
        if abs(a - b) > RELATIVE * max(abs(a), abs(b)) + digit:
            return False
    return True


@pytest.mark.parametrize("config", CONFIGS, ids=[c.stem for c in CONFIGS])
def test_outputs_match_golden(config, tmp_path):
    header, hashes = read_record()
    files = {f"{config.stem}/{name}": data for name, data in run_config(config, tmp_path).items()}
    recorded = {name: digest for name, digest in hashes.items() if name.startswith(f"{config.stem}/")}
    assert recorded, f"no hashes recorded for {config.name}"
    host = probe()
    if host == header["probe"]:
        digests = {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}
        changed = sorted(name for name in recorded.keys() | digests.keys() if recorded.get(name) != digests.get(name))
        assert not changed, "output bytes changed: " + ", ".join(changed)
        return
    samples = json.loads(SAMPLES.read_text())
    assert sorted(files) == sorted(recorded), "output files differ from the recorded set"
    for name, digest in recorded.items():
        if "/seed7-noiseless/" not in name:
            continue
        count, lines = samples[digest]
        got = files[name].decode().splitlines()
        assert len(got) == count, f"{name}: {len(got)} lines, recorded {count}"
        for index, want in lines:
            assert same_numbers(got[index], want), f"{name} line {index + 1}: {got[index]!r}, recorded {want!r}"
    pytest.skip(
        f"exact bytes not checked: numpy {np.__version__} probe {host[:12]} differs from the recorded "
        f"numpy {header['numpy']} probe {header['probe'][:12]}; --noiseless values matched at {RELATIVE:g} relative"
    )


@pytest.mark.parametrize("config", CONFIGS, ids=[c.stem for c in CONFIGS])
def test_outputs_match_golden_numbers_on_another_build(config, tmp_path, monkeypatch):
    # A probe that differs from the record sends every config to the numeric --noiseless check.
    monkeypatch.setitem(globals(), "probe", lambda: "0" * 64)
    with pytest.raises(pytest.skip.Exception, match="--noiseless values matched"):
        test_outputs_match_golden(config, tmp_path)


def regenerate() -> None:
    """Rewrite ``sha256.txt`` and ``noiseless.json`` from this checkout's outputs."""
    lines = [
        "# sha256 of every CLI output file, written by: PYTHONPATH=src python tests/test_golden.py",
        f"# numpy = {np.__version__}",
        f"# probe = {probe()}",
    ]
    samples = {}
    with tempfile.TemporaryDirectory() as tmp:
        for config in CONFIGS:
            for name, data in run_config(config, Path(tmp) / config.stem).items():
                digest = hashlib.sha256(data).hexdigest()
                lines.append(f"{digest}  {config.stem}/{name}")
                if name.startswith("seed7-noiseless/"):
                    samples[digest] = sampled(data.decode())
    HASHES.write_text("\n".join(lines) + "\n")
    SAMPLES.write_text(json.dumps(samples, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
