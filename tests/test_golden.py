"""Golden CLI outputs: every file of five seeded runs, pinned by SHA-256.

The runs cover every subcommand and every ingest path: ``synth --blocks``
writes a small increments panel; a gappy, row-shuffled levels copy of it
goes through ``report`` with forward-fill; ``hurst --crossover``,
``dcca --all --pair`` and ``network --period`` read the synth panel.
Refactors must keep every hash.  ``run_manifest.json`` is hashed with its
``versions`` key removed, since that records the installed libraries.
"""

import csv
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from longmem.cli import main

RUNS = {
    "synth": ["synth", "--blocks", "3x4", "--weight", "0.7", "--hurst", "0.7",
              "--n", "700", "--seed", "5"],
    "report": ["report", "--input", "levels.csv", "--align", "forward_fill",
               "--max-gap", "3", "--pair", "b1:m1,b1:m2", "--pair", "b1:m1,b3:m4",
               "--scale", "20,60", "--threshold", "0.5", "--seed", "2"],
    "hurst": ["hurst", "--input", "synth/panel.csv", "--input-kind",
              "increments", "--crossover"],
    "dcca": ["dcca", "--input", "synth/panel.csv", "--input-kind", "increments",
             "--all", "--pair", "b1:m1,b2:m1", "--scale", "20,60",
             "--smax", "300"],
    "network": ["network", "--input", "synth/panel.csv", "--input-kind",
                "increments", "--threshold", "0.5", "--scale", "20,40",
                "--period", "2000-01-01:2001-06-30",
                "--period", "2001-01-01:2002-12-31"],
}

EXPECTED = {
    "dcca": {
        "dcca.json":
            "ea6e734781eb597e05a0f6880067eabf1042352a34ebbfe979ee7e157850fdce",
        "rho_curve_00_b1_m1__b2_m1.csv":
            "3508410cf12df6fb097f5c6a2cc6c216338661d43a860e57d6e7298af0bd38a8",
        "rho_matrix_s20.csv":
            "4cf332b4d32a56253a73ef69ec149346bd3d32300301c8add397d9f65050addc",
        "rho_matrix_s60.csv":
            "33b09a176d4a9d7f67ef47c0dd8f2bdbbf11dad35c43600f8e4b9c31340b85b8",
        "run_manifest.json":
            "9f0053c20a9f3183ae8b6ccd16fa814e3ed06b844289300c463fb9e37f9bab0a",
    },
    "hurst": {
        "crossover.csv":
            "e6265c969ee7a099042491cc9ed70b2a8b44fc2e8bcd8e8f89ac18f744a7e712",
        "hurst.json":
            "c4cbfe1b939e2a3bdbe6403277f01674b144ee4fad3cb1361b3cbf85210b861e",
        "hurst_estimates.csv":
            "1d0dc5bce422a998bcd895343f18ffcb87c1727a38273ef254360b20c89edd28",
        "hurst_histogram.csv":
            "46c7a7233797b71481b41d17d6e0220f0fc49f51d7188c7986b1cbbbfe496202",
        "run_manifest.json":
            "d406f9f5afe20e54cb752d34d503e4d4ff65c7cec5c9ff9f07ff075a5cb44ed9",
    },
    "network": {
        "network.json":
            "24f814bbdabf859eba81484d8b636fa01c42e05de75c3aed7e008bad644611fc",
        "period_1/degree_vs_scale.csv":
            "b430b8581827c33fc3581097cfe8ef7e0394c9079e328c116544e3fdacb9a643",
        "period_1/network_s20.dot":
            "26451cca5a6da15b0b924185a079e37bbd8a4ccf50babac3c96b04228f6a9c55",
        "period_1/network_s20.graphml":
            "5aeba3de74502483e6d44366e7c6e4a737eb4b94ee5bc7df6852f7a3321d24a4",
        "period_1/network_s40.dot":
            "94b6d9638094021c904797dea969285b56e2c50daa624213c6b1931c325314b3",
        "period_1/network_s40.graphml":
            "446a3ca481a4f02b72cc0c8bf34492c253c511be212e3d258b0ae83e8bd7d2d3",
        "period_1/partition_s20.csv":
            "58ef828423b74576394c228c026f4f69c8591930d889acc65133480f7b82f101",
        "period_1/partition_s40.csv":
            "58ef828423b74576394c228c026f4f69c8591930d889acc65133480f7b82f101",
        "period_2/degree_vs_scale.csv":
            "fa73a64cbe05fcbbbed0c448852e94ebec481916ffa741b5e1a84b8383a7c2aa",
        "period_2/network_s20.dot":
            "bdcefe865a025390782516236f19ff935db9e6d342897c03b87e4cbdb6bbd19d",
        "period_2/network_s20.graphml":
            "78427fbf51742338faaa43f8dfa28b204ffc76153c29aa837e00743e4b694c10",
        "period_2/network_s40.dot":
            "af57f96e8eaa18d5b3d8fb09bf0dad4a6ca24ac1115590bba2da55d2995704a0",
        "period_2/network_s40.graphml":
            "6e201649b3bae2fb2e253161b1450a3dc2d63b2465c41447bcd86db7cf06ab84",
        "period_2/partition_s20.csv":
            "58ef828423b74576394c228c026f4f69c8591930d889acc65133480f7b82f101",
        "period_2/partition_s40.csv":
            "58ef828423b74576394c228c026f4f69c8591930d889acc65133480f7b82f101",
        "run_manifest.json":
            "a30df6e74dd139e4be37f62a152935e42df82045158cdac00da1866986f382fc",
    },
    "report": {
        "dcca/dcca.json":
            "be93166672cc9533f2189415981ed5b09e28698aa655c31d7544ceb422440ebf",
        "dcca/rho_curve_00_b1_m1__b1_m2.csv":
            "2540cb020b26834b5189cab2b859df30aa8d879e2aa1b32e766eb02e1fab5119",
        "dcca/rho_curve_01_b1_m1__b3_m4.csv":
            "5f53c3e02046e710bf63ef35c75ef05e036a78e4ca1139481c90ac996f4e7516",
        "dcca/rho_matrix_s20.csv":
            "7a0f3c6eab4a0e1daa24e43f6888fec76041fbf7cafbc0c1a71877c669522961",
        "dcca/rho_matrix_s60.csv":
            "aa05eb2cfe238f4adf486ec1bd8c5ecf5d3b4cbc6cdca622d38265a812757bea",
        "hurst/crossover.csv":
            "e5d4f4439afe7b175c85aaac9fcde7a038936c5df5795701ce2031c07fbee936",
        "hurst/hurst.json":
            "18b3901db8125967725326b3c3203eaee55014097c187bfe3f97d17169deb594",
        "hurst/hurst_estimates.csv":
            "89c9a986cc08c82f40e9e56e890afeb13d2bff297443a878f4afc4d50e1f57f2",
        "hurst/hurst_histogram.csv":
            "f65c4777e889693c60151611e231446e88699c6ca5e8b818a408e7729a60b3cb",
        "network/degree_vs_scale.csv":
            "20933f17c1b9c41afcd49ecfe9101002e48e24d59d0da0cd2315056a1ba8cd8a",
        "network/network.json":
            "4a7c9a85cdbc19ddd97660268e517724c2c9ded266b511cdc11019dad21dde21",
        "network/network_s20.dot":
            "d15b9ba83b43080e321561d2864ec63884be8457360f639e2acfe66696a125bf",
        "network/network_s20.graphml":
            "f93d62645ed4211d4e009f5567a38917eb1c4ec73b1c85fe76e619b053f21a85",
        "network/network_s60.dot":
            "33b46104af0b4053b0ea8895f8ae7e6432451e3de86d5dc5ee8b20a5253c242f",
        "network/network_s60.graphml":
            "bb40ca0bcd8fc52f2f91b667d6a5a1694179bda89bd53ff8752f02de0c54e34b",
        "network/partition_s20.csv":
            "58ef828423b74576394c228c026f4f69c8591930d889acc65133480f7b82f101",
        "network/partition_s60.csv":
            "58ef828423b74576394c228c026f4f69c8591930d889acc65133480f7b82f101",
        "run_manifest.json":
            "a6257f8eb59ffb3935ccfef7c0eae606eba5458317502dde20ac935756339a1f",
    },
    "synth": {
        "panel.csv":
            "07c94a1f4ae8b77d92af1569bfd5232c74ee19cd278d7be43e39af469ef990be",
        "run_manifest.json":
            "210551263475b7ef9c2c8f47406e04ee9ce4224b7ca278fde756b8a764aef8bf",
    },
}


def _levels_csv(panel_csv: Path, out: Path) -> None:
    """Cumulate the synth panel into levels, blank some cells, shuffle rows."""
    with open(panel_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    levels = 5.0 + 0.1 * np.cumsum(
        np.array([[float(c) for c in r[1:]] for r in body]), axis=0)
    rng = np.random.default_rng(11)
    blank = rng.random(levels.shape) < 0.03
    blank[:4] = False  # every series starts observed
    blank[10:15, 0] = True  # a run longer than --max-gap
    lines = [",".join(header)]
    for i in rng.permutation(len(body)):
        cells = ["" if b else repr(float(v))
                 for v, b in zip(levels[i], blank[i])]
        lines.append(",".join([body[i][0], *cells]))
    out.write_text("\n".join(lines) + "\n")


def _digests(root: Path) -> dict[str, str]:
    out = {}
    for p in sorted(root.rglob("*")):
        if not p.is_file():
            continue
        data = p.read_bytes()
        if p.name == "run_manifest.json":
            manifest = json.loads(data)
            del manifest["versions"]
            data = json.dumps(manifest, indent=2, sort_keys=True).encode()
        out[str(p.relative_to(root))] = hashlib.sha256(data).hexdigest()
    return out


def _changes(expected: dict, found: dict) -> list[str]:
    """One line per run/file whose digest changed, went missing or appeared."""
    lines = []
    for run in sorted(expected.keys() | found.keys()):
        want, got = expected.get(run, {}), found.get(run, {})
        for rel in sorted(want.keys() | got.keys()):
            if want.get(rel) != got.get(rel):
                lines.append(f"{run}/{rel}: expected {want.get(rel, 'no file')}, "
                             f"found {got.get(rel, 'no file')}")
    return lines


@pytest.fixture(scope="module")
def golden_root(tmp_path_factory) -> Path:
    """A directory holding one output directory per run of RUNS."""
    root = tmp_path_factory.mktemp("golden")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)  # relative paths keep the manifests stable
        for name, argv in RUNS.items():
            assert main([*argv, "--output-dir", name]) == 0, name
            if name == "synth":
                _levels_csv(root / "synth" / "panel.csv", root / "levels.csv")
    return root


def test_golden_outputs(golden_root):
    found = {name: _digests(golden_root / name) for name in RUNS}
    assert found == EXPECTED, "\n".join(
        ["golden digests differ:", *_changes(EXPECTED, found)])


def test_every_table_is_rectangular_csv(golden_root):
    tables = [golden_root / run / rel for run, files in EXPECTED.items()
              for rel in files if rel.endswith(".csv")]
    for path in tables:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert path.read_bytes().endswith(b"\n"), path
        assert len(rows) > 1 and all(len(r) == len(rows[0]) for r in rows), path


def test_whole_sample_period_is_the_unsplit_run(golden_root, tmp_path):
    # a --period spanning every date writes the unsplit run's files under
    # period_1/, and its network.json differs only in each entry's prefix
    argv = ["network", "--input", str(golden_root / "synth" / "panel.csv"),
            "--input-kind", "increments", "--threshold", "0.5",
            "--scale", "20,40"]
    whole, split = tmp_path / "whole", tmp_path / "split"
    assert main([*argv, "--output-dir", str(whole)]) == 0
    assert main([*argv, "--period", "2000-01-01:2002-12-31",
                 "--output-dir", str(split)]) == 0
    files = {p.name: p.read_bytes() for p in whole.iterdir()}
    payload = json.loads(files.pop("network.json"))
    del files["run_manifest.json"]
    assert {p.name: p.read_bytes() for p in (split / "period_1").iterdir()} == files
    entries = json.loads((split / "network.json").read_text())
    assert [e.pop("prefix") for e in entries] == ["period_1"] * len(payload)
    assert entries == [{k: v for k, v in e.items() if k != "prefix"}
                       for e in payload]
