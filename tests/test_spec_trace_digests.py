"""Committed digests of every built-in trace.

Region ids do not depend on where the package lives: SPEC region ids
hash region names, and PBBS region ids hash allocation callpoints, each
the module name, function qualname and line offset of the two frames
above the allocator.  So trace bytes can be pinned: a change to workload
synthesis that alters any line, region id or instruction count fails
here.  Each SPEC app is pinned at train scale with its Fig-22 seed
(``crc32(name) % 1000``) and at ref scale with seed 1005, and each PBBS
app at train scale with the same name-derived seed.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.workloads import build_workload
from repro.workloads.registry import PBBS_APPS, SPEC_APPS

#: app -> (train-scale sha256, ref-scale sha256) of lines, regions and
#: the float64 instruction count.
DIGESTS = {
    "bzip2": (
        "353145a5ef67b3e8d8f18d53e006a408b64c2ca3900a45369984a36122b384dc",
        "238d13e7d78d5af5addd314ff9e571b451de52a78cb9ede704fb07db1788a201",
    ),
    "gcc": (
        "2f67985b81c6fab70abf7962d411f812e993d828cd81248713e1e1b42483d008",
        "14a75d1c202209d190b140f386f21a114408c7f3a8f0f459fd5c9d48a3a2e787",
    ),
    "mcf": (
        "d22ae3c0a2d5f7b3aeae3307cab41296c425a62b2c9084cbdb3ea4047c7176d4",
        "8d795eab5d7e213dc7bcd5ec86354580080756d23c46c3ad25e6c197ccdf5a31",
    ),
    "milc": (
        "faf7363f42785aea5615593e9d50cf9983c8ec4f92b44a22855b352aacb789e9",
        "7e5fcff7efacaba725cd6b0eda7ec14fff1621c198be55fa78118bed8faecf78",
    ),
    "zeusmp": (
        "b381dc5af31290307fa50c6ea65e1b598d8fd9ebc2467ea38ed5fca7c7db90c5",
        "627c24c624dea8632f3f86a918f017cb81b1221ccb1d6d4c1084c25087e2862f",
    ),
    "cactus": (
        "c9fbe4cc10ffbd62f35f4f0e042e2125f5c8b8b2cf25241172a3b3f6b3c57c84",
        "c70a2e24e84e7ef2d9ad503e64746ea64a9b062ac6a82ca878748141f2b41f7a",
    ),
    "leslie": (
        "081ba0d4278d7f3ebf345fc2a0b05f04e09688db53df4cfc26a2075a91e79f65",
        "569dbb8d96547c687fe4505fda8900fc5a1db1d52c8595742cd408f172d96808",
    ),
    "soplex": (
        "ef82db3603e37e97c202aa7df71278e0c9c2f1f59ad07026f946e84c158021fa",
        "c83c1a6ad2497cf968181fa67fe1b472eb77601afa36c0372051367cfccc442e",
    ),
    "gems": (
        "8cfae430a53436a0e8f5a89b802367255394cf83ece1587778761b6c4f281aff",
        "fe153647dac9f9f2dd5830cf74e1539f6b68a115cb098833bd74c7fd9f6979df",
    ),
    "libqntm": (
        "8fcb85212f05afb5f94aae1280ba529590ace530b06366288d1b814f5ca6c873",
        "6d6660b50754046eda08b8d5b1584b5d6c7e51da8ce08ea7e2f52023efbbbec5",
    ),
    "lbm": (
        "6658d705bb27e2dd478bc814a14622db6927ee49febfe6dd33fe608613d7dd3c",
        "3d7e930fedb711e4a24b557dd5e500cc1d2f98a01d08de48723e97bae7133ab5",
    ),
    "omnet": (
        "d3a6f2809cd3fb5fb5d6a1465a5c683fe7ab6a2513929b32c6edb1b60252df91",
        "86eea0b401a4b82412715785e2468f3d161832754714e8a584f91fa42cf3b13a",
    ),
    "astar": (
        "c9b155f95c26cf381deb743ffb79f834d571493fa54cfdd4aedacf58890dbc2a",
        "aefe57c2d05ed96228b95fd8a418e89c8836a87cbcfac2c86e1f8876fab34f35",
    ),
    "sphinx3": (
        "d47989fdd21a0bb25690f944aeba6a3c144f30082ca31aa4a5e3142155e00f06",
        "d61dec1f972c0200e4e746f76e6cf9a4a593467891abecfe35feee5ca709deb3",
    ),
    "xalanc": (
        "6e70d12e912d830ae645ffe9660b2ff868a65ba620672d2efad29ad608b5a8dd",
        "951b8adb1a47efcc462182dddf87f0beac5734c391afcc5d0e5985c89af0053e",
    ),
}

#: app -> train-scale sha256 of lines, regions and the float64
#: instruction count.
PBBS_DIGESTS = {
    "BFS": "b49f281ef2b4a65e145b53ebd36607f605958e9962b228326ab40187091924a9",
    "MIS": "87789566b2ddcafb360c2e46e4bf033b7fd1e60d6266887fb2504b4f08a5210e",
    "MST": "1ee1db110a27b21c3e8b2ea29dd4d19efb0b114dbce3257bb7280e5e0da3987c",
    "SA": "d2b86baf5b8196cddecf43b6c227f5932fce9ac128f3241c4cf7e625e8121e85",
    "ST": "94631ae9716396a86d6f235de2e6f603131836d2ce518091d756b8ef561b4f77",
    "delaunay": "74c8aaf8df034541fcb6193a03166963beabbd96eb00f8335f212b0d62ecc00a",
    "dict": "1f744cce2617fa721b2f0096496ee504572ea9e5c991e69f4b38b54516be116a",
    "hull": "64f261fcb18fb66ed2b60b33e2938200454fafd3d9a650374275ecb299f94026",
    "isort": "ec09a02556e6ef0ff57da43431de62e238a7afe2d785c18efc2dabfb940de4e7",
    "matching": "87d79544f8fec2097f4e131dffd63a9828a6badfc34d2ced17d98eb0c89342a0",
    "neighbors": "842d1de6d62c58cde6c247b32fbb624df65d696c73c564a88fb3513ccb9cd841",
    "ray": "35f4a19aab639eda43b898a2d88a100dcfeab6d100b43b886f56159831f4ff6b",
    "refine": "e61fd7b63638a644680c24f2733fd37b27d6b5699090ebbee77c60e3b54e9030",
    "remDups": "e75067b183b288727a3411f077d19386fc5a0f7036cc300d6095800a8e706434",
    "setCover": "3a77c5471f5a2a1f0629ed61ead724fcf347aa7e4feeedf0cab8cd2eb94fda70",
    "sort": "53f4c9d509d79360442775312a0b4059954dd145a5b3453a49381e4b5dd481cc",
}


def trace_digest(trace) -> str:
    h = hashlib.sha256()
    h.update(trace.lines.tobytes())
    h.update(trace.regions.tobytes())
    h.update(np.float64(trace.instructions).tobytes())
    return h.hexdigest()


def test_every_spec_app_is_pinned():
    assert sorted(DIGESTS) == sorted(SPEC_APPS)


@pytest.mark.parametrize("name", SPEC_APPS)
@pytest.mark.parametrize("scale", ["train", "ref"])
def test_trace_bytes_are_unchanged(name, scale):
    seed = zlib.crc32(name.encode()) % 1000 if scale == "train" else 1005
    trace = build_workload(name, scale=scale, seed=seed).trace
    assert trace.lines.dtype == np.int64 and trace.regions.dtype == np.int32
    want = DIGESTS[name][0 if scale == "train" else 1]
    assert trace_digest(trace) == want


def test_every_pbbs_app_is_pinned():
    assert sorted(PBBS_DIGESTS) == sorted(PBBS_APPS)


@pytest.mark.parametrize("name", PBBS_APPS)
def test_pbbs_trace_bytes_are_unchanged(name):
    seed = zlib.crc32(name.encode()) % 1000
    trace = build_workload(name, scale="train", seed=seed).trace
    assert trace_digest(trace) == PBBS_DIGESTS[name]


def test_pbbs_region_ids_do_not_depend_on_the_checkout(tmp_path):
    apps = ("MIS", "delaunay")
    shutil.copytree(
        Path(repro.__file__).parent,
        tmp_path / "repro",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    script = (
        "import json, sys, repro\n"
        "from repro.workloads import build_workload\n"
        "ids = [sorted(build_workload(a, scale='train', seed=0).region_names)\n"
        "       for a in sys.argv[1:]]\n"
        "print(json.dumps([repro.__file__, ids]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script, *apps],
        env={**os.environ, "PYTHONPATH": str(tmp_path)},
        cwd=tmp_path,
        capture_output=True,
        text=True,
        check=True,
    )
    where, ids = json.loads(out.stdout)
    assert Path(where).is_relative_to(tmp_path)
    assert ids == [
        sorted(build_workload(a, scale="train", seed=0).region_names)
        for a in apps
    ]
