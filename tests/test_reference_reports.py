"""The report.json of each reference run, byte for byte.

The digests are those ``python tests/reference_reports.py`` prints for the
default, random and KNN models, and those ``perfbench/evaluate.py`` prints
for the knn-catalog benchmark input at seeds 1-4; so are the two fixture
CSVs the reference runs read. A change that moves no
reported number leaves them as they are. MF is left out, here and in the
benchmark's mf-heavy input: its dot products run through BLAS kernels
chosen per CPU, so its digests may differ between machines.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from recbench.synthetic import write_csv
from reference_reports import FIXTURES, digests

PINNED = {
    "clustered default exclude_seen=true": "7c146cc5e1c72bc432cf9826c38b931aa9be26d8efe40edd0e6a1d7f95ccaa4c",
    "clustered default exclude_seen=false": "2c14105a956e71a195f6f6e75f44301cbcdb52724e6ad4385b8a34a17f929614",
    "clustered random exclude_seen=true": "24eedc5cecdec4ec5ee378e62aec3c0fb1c1dfbf33ef569ad5bfb3849275f120",
    "clustered random exclude_seen=false": "a29219e92737c3e470f835f147c709e0b24d6760fd3c6e577279c516c4d21820",
    "clustered knn exclude_seen=true": "e992ff115bc9c2e38d97445ba186f8e66c62ae568208d2d72a5aabed62a2f169",
    "clustered knn exclude_seen=false": "d8185c903feedb1eba50b92462d8993b6da400dff3672059b6b58737c6ffa4c6",
    "uniform default exclude_seen=true": "64115ca2b375f312d8c90567ab195c53ee377a142ea0719bc65ef8896f83cfbc",
    "uniform default exclude_seen=false": "fd1ddf25e4d4a91af56d64d0f4a11c38a4c26cbb1478ad96d94dff34f18b17f4",
    "uniform random exclude_seen=true": "8d4574555702d31f0ed242825d1d1bb5d533b2c4f0c592d8ccba01746ff5cc29",
    "uniform random exclude_seen=false": "ff43f055a672fb85964e27c371855f0803f31c4346089ae4f5a0c5d932a5a677",
    "uniform knn exclude_seen=true": "da391684c9f203e62d72ca6dde87e28d204678e9b72ffb3f33ed9b1c974ec1f7",
    "uniform knn exclude_seen=false": "b79812e79af933b6f478c331e110b7cf9960bcb08420c376e5dead5b31b0ddb7",
}

# sha256 of each reference fixture as synthetic.write_csv writes it
FIXTURE_CSVS = {
    "clustered": "d80ca42f6793688bd14893440f4981678182c1ef182bd9186a0dedf68e31d68c",
    "uniform": "49cfb8b2595050b9a42ff766491387fc8eb4dae7034942aa35cb3a2c97aedbd3",
}

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# report_sha256 of perfbench/evaluate.py on the full knn-catalog input, by seed
KNN_CATALOG = {
    1: "653a236a82daecfe3924fe203dd545c34fc39d38489bd69814a55c5f7c96d177",
    2: "18e136ae56b191e33c5f9f6e994aa48ba1e835c53c966b5436651b9ede1f6d2f",
    3: "0a152b83a29bff3fe80b0bfee862856bf0724a34d07acfa9b27f8122e6baf6bf",
    4: "3b16ebd33558f439a6961046b64185307a531b331e0c7522f7b389a16ea267d8",
}

GENERATE = """
import sys
from pathlib import Path

sys.path.insert(0, sys.argv[1])
from generators import generate
from workloads import WORKLOADS

generate(WORKLOADS["knn-catalog"], int(sys.argv[2]), Path(sys.argv[3]))
"""


@pytest.fixture(scope="module")
def measured(tmp_path_factory):
    return digests(tmp_path_factory.mktemp("reference"), models=("default", "random", "knn"))


def test_every_run_is_pinned(measured):
    assert measured.keys() == PINNED.keys()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_report_is_byte_identical(measured, name):
    assert measured[name] == PINNED[name]


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_fixture_csv_is_byte_identical(fixture, tmp_path):
    path = tmp_path / f"{fixture}.csv"
    write_csv(FIXTURES[fixture](), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FIXTURE_CSVS[fixture]


@pytest.mark.parametrize("seed", sorted(KNN_CATALOG))
def test_knn_catalog_benchmark_report_is_byte_identical(seed, tmp_path):
    path = tmp_path / "input.csv"
    subprocess.run(
        [sys.executable, "-c", GENERATE, str(PERFBENCH), str(seed), str(path)],
        check=True,
        timeout=300,
    )
    result = subprocess.run(
        [
            sys.executable, str(PERFBENCH / "evaluate.py"), "--workload", "knn-catalog",
            "--seed", str(seed), "--input", str(path), "--out", str(tmp_path / "out"),
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1])["report_sha256"] == KNN_CATALOG[seed]
