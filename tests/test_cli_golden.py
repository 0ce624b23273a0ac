"""The CLI's stdout bytes, pinned by sha256 digests.

A change to any report row, its format or its order changes a digest.  The
documents are the README worked example and that model with a fourth site
tied to site 1 by an infinite coupling and to site 2 by a finite one, so
that contracting the infinite coupling changes every value.  Two ring
models, with one and with two infinite clusters, pin stderr as well, whose
note names the site map of the contraction.  The sweep is pinned at seeds
42, 7 and 3 in every format, the json and human ones with an empty stderr.
"""

import hashlib
import json

import pytest

from pottsverify.cli import main

README_DOC = {
    "n": 3, "q": 3,
    "interactions": [
        {"sites": [1, 3], "x": "2"},
        {"sites": [2, 3], "x": "3"},
        {"sites": [1, 2, 3], "x": "5"},
    ],
    "lists": {"R": [1, 3], "S": [2, 2], "B": [1, 2]},
}
INFINITE_DOC = dict(README_DOC, n=4, interactions=README_DOC["interactions"] + [
    {"sites": [2, 4], "x": "7"}, {"sites": [1, 4], "x": "inf"},
])

SWEEP_DIGEST = "10807d21760b16ecfbafc02942734e26781bae85f1ea77b6f2d12870e7619707"
# The same sweep at two more seeds, so three instance sets pin the rows.
MORE_SWEEP_DIGESTS = {
    7: "c422095db87f5a17b7c06e86a96d2bed6d99ec102a3b85c7eb8bf63e016f6f99",
    3: "900150b5a52055b63bb3f9c27409bdaea280f8c2e6adb19548fa159a71ce513b",
}
# The same three sweeps in the other two formats, by (format, seed).
FORMAT_SWEEP_DIGESTS = {
    ("json", 42): "7d7ab3ebdd7f335d7355d52b16b48a21bc94d1ee8ec033799f468368c6ee5cb8",
    ("json", 7): "62de27a02a1a39600d5afe84d6e67d97a7b5675c1680e8f38f6dee88c0cf2486",
    ("json", 3): "0cae72aab877be91a13113e9ea10e589d8ff12eca1a2c362776053501b68065b",
    ("human", 42): "4f25ff95018cb68ae215389bf8f561ed7baa8b6a116abb2cf567f4c954e201ba",
    ("human", 7): "49078fd5969fe67d152e6ebba8edc8feb6d3e95f54fd17c1f9defd92f266571c",
    ("human", 3): "515d8d81b590a230b92915925f46c284101bea4a1611c1fa2e6503ca0134a882",
}
MODEL_DIGESTS = {
    ("expect", "csv", "readme"): "b6026a0ae878b47d8fbac6b4b6d5ebf7ae740601801b36c71cc5c6d9754138d9",
    ("expect", "csv", "infinite"): "e6b494d02f8a523d305716f4bee7b1bc210906c87079a31d51c6c3c5895f5462",
    ("expect", "json", "readme"): "31afdc5a3860ceafff77150e9aa4c80e79833b5b9658b093114da963f622ed28",
    ("expect", "json", "infinite"): "2dd011b538130aa928f142d2d57a36c4f1b4d1e426b01d5fc9ab6640b5456994",
    ("expect", "human", "readme"): "58ed39444c551e6fbbf7b648e10cc6e3ba9f7027a694e887443d58373d3567c1",
    ("expect", "human", "infinite"): "89cab04525cecb0000a6d2bb164b54f7a5afec42f602c12a3f69dd0f1c25d840",
    ("verify", "csv", "readme"): "bd2f221ad657da414f8fc6cead2bc2fb1ab47a9ee94706d18d2f618d6446a528",
    ("verify", "csv", "infinite"): "2d2564c587c9220021cefc13887c2da5f8526e41f4a90900a03bbce8443f6313",
    ("verify", "json", "readme"): "4b50580f442efedeb489dba5ec8c88c06269ff2d420b3087642c381e7bc77e59",
    ("verify", "json", "infinite"): "0b3ac2392b1310f0881a2a0423fc079914747075345a44d7b2d1ed9753167c7e",
    ("verify", "human", "readme"): "52c0bac47829ccd4c07f3181ef39c64181433273ccc0e8220a30d5d94a5cf022",
    ("verify", "human", "infinite"): "c64a65487a2e746638bf830a31bf92caf79440998ba25436038e2257d9c90aab",
    ("contract-check", "csv", "readme"): "3d3852319db1ed84d28097b831ab98ea1964fec50f9aca501925dedf028266d0",
    ("contract-check", "csv", "infinite"): "30f182da3c11cd4a3cb1c389b8f89bcd3f2fb964395a52b99dbb95ac4e7e2721",
    ("contract-check", "json", "readme"): "509b5533743ec2ca4c18c7a61af3b8b6a80b7a5d74ce6ebd1f51cea1791d74d7",
    ("contract-check", "json", "infinite"): "6794af73f131204399d461078e52f8f4e0c4521d683bf738d8ee625944ca2b45",
    ("contract-check", "human", "readme"): "a075fa1b094cb3a8124b13f52c938d54d41657e227b420281f34621cf11e8ad7",
    ("contract-check", "human", "infinite"): "8846bc958008b7e59a8056a2239fa405741130a2f362fd4a70b9244331f8e965",
}


def _ring_doc(hard):
    """A 9-site q=3 ring with a triple on every third consecutive triple and a
    chord [6, 9], whose couplings on ``hard`` are infinite.  Once [7, 8, 9]
    merges, the pairs [6, 7] and [6, 9] collide on one key."""
    pairs = [sorted((i, i % 9 + 1)) for i in range(1, 10)]
    interactions = pairs + [[1, 2, 3], [4, 5, 6], [7, 8, 9], [6, 9]]
    return {
        "n": 9, "q": 3,
        "interactions": [
            {"sites": sites, "x": "inf" if sites in hard else f"{k + 2}/{k % 3 + 1}"}
            for k, sites in enumerate(interactions)
        ],
        "lists": {"R": [1, 4, 5, 8], "S": [4, 8, 2, 2], "B": [2, 5, 6]},
    }


RING_DOCS = {
    "one-cluster": _ring_doc([[3, 4]]),
    "two-clusters": _ring_doc([[3, 4], [7, 8], [8, 9]]),
}
# The (stdout, stderr) digests of each (command, format, document).
RING_DIGESTS = {
    ('expect', 'csv', 'one-cluster'): (
        "18537a95aac86299fbf234c4dc1a6f1c28f7067196e304f1f3dce97739bea05a",
        "309c27fb42b3d080bb65282e2d6efa33fe0dc8e7edfa4c89cfa25c6486cc9efd"),
    ('expect', 'json', 'one-cluster'): (
        "a49898b0c64ab6d829f8d3e058f058b0e4b30011503ceec93dce673ece4630e2",
        "309c27fb42b3d080bb65282e2d6efa33fe0dc8e7edfa4c89cfa25c6486cc9efd"),
    ('expect', 'human', 'one-cluster'): (
        "18327387bac523619092a30d77b23d4620092b6887a5f0a3a65e0f7ca41e3342",
        "309c27fb42b3d080bb65282e2d6efa33fe0dc8e7edfa4c89cfa25c6486cc9efd"),
    ('verify', 'csv', 'one-cluster'): (
        "680fab7749155b5ebbe08650c4eb3a4dfe44f75500226325bf8d88c042c4ee6e",
        "309c27fb42b3d080bb65282e2d6efa33fe0dc8e7edfa4c89cfa25c6486cc9efd"),
    ('verify', 'json', 'one-cluster'): (
        "b545a217404cf31df7b43b74051b882a0788b1c44a1c7778c101efba625a453b",
        "309c27fb42b3d080bb65282e2d6efa33fe0dc8e7edfa4c89cfa25c6486cc9efd"),
    ('verify', 'human', 'one-cluster'): (
        "2fc519a3221a00f25e4e8fa683c9dd3d67996350805b041b99967041cf2c17f7",
        "309c27fb42b3d080bb65282e2d6efa33fe0dc8e7edfa4c89cfa25c6486cc9efd"),
    ('contract-check', 'csv', 'one-cluster'): (
        "442bc6adfb0b96c27d8e1672ead853592cbd7b5570610c2b4e205c09288c5201",
        "84982391895486398d2c983a6054c3987aefcb2836ab6e9f7497d94af11fc64d"),
    ('contract-check', 'json', 'one-cluster'): (
        "44009e33feef6f91bacc8724561673b40acab5675864d295851ff8e5781d451d",
        "84982391895486398d2c983a6054c3987aefcb2836ab6e9f7497d94af11fc64d"),
    ('contract-check', 'human', 'one-cluster'): (
        "6aeb3481578199f9dc44b6fcceec6c992cbe92de152e88f428ccc7d967dc8704",
        "84982391895486398d2c983a6054c3987aefcb2836ab6e9f7497d94af11fc64d"),
    ('expect', 'csv', 'two-clusters'): (
        "bfee60c092b6a784e116045c6fdeba3bbff358db39abf48e14b440a17018f95a",
        "2731474b3b9a61ffddec9b16bf252854353dbb2939bb320c23d327778f8f614c"),
    ('expect', 'json', 'two-clusters'): (
        "05106ab383c0860127b917bd8be8f2109851e5f07db4e69d98cc27a93b5e86aa",
        "2731474b3b9a61ffddec9b16bf252854353dbb2939bb320c23d327778f8f614c"),
    ('expect', 'human', 'two-clusters'): (
        "6a1f5dba5d8d48c71212276a66189417c1d6ac2a831a6335755eb25fa4d4bd4d",
        "2731474b3b9a61ffddec9b16bf252854353dbb2939bb320c23d327778f8f614c"),
    ('verify', 'csv', 'two-clusters'): (
        "dc978a898c35a5da7c404831123b97fd33b3d4de15f17e432b70e9a38fbec72f",
        "2731474b3b9a61ffddec9b16bf252854353dbb2939bb320c23d327778f8f614c"),
    ('verify', 'json', 'two-clusters'): (
        "f8294501c8bb668bc06abd9c82f6f96ce5611fd88252349e3cec8cc4a2f160bb",
        "2731474b3b9a61ffddec9b16bf252854353dbb2939bb320c23d327778f8f614c"),
    ('verify', 'human', 'two-clusters'): (
        "96f2dca92424ca1bb54b8fcd8d37e7ed0dd4cc67cc1a1679fdcf1148bd0debb5",
        "2731474b3b9a61ffddec9b16bf252854353dbb2939bb320c23d327778f8f614c"),
    ('contract-check', 'csv', 'two-clusters'): (
        "32d01bf9f88b8b59c16f41a47fe3f508586f5475a92e47666f86d9532e777855",
        "ab62da380cc3fa690d53a3956a5731f34e6f695d5b386fb3a80ecff50547c96b"),
    ('contract-check', 'json', 'two-clusters'): (
        "abdde161bd869a12e53a7ddc2b895f1f151a436eb166aaa1b2a768be7c672e68",
        "ab62da380cc3fa690d53a3956a5731f34e6f695d5b386fb3a80ecff50547c96b"),
    ('contract-check', 'human', 'two-clusters'): (
        "06e690061ab20ff72562e870aae1a3c5a46b96255b98c144d824f7e929e1aba6",
        "ab62da380cc3fa690d53a3956a5731f34e6f695d5b386fb3a80ecff50547c96b"),
}


def _stdout_digest(argv, capsys):
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def test_sweep_all_seed_42_csv(capsys):
    argv = ["sweep", "--suite", "all", "--seed", "42", "--trials", "100", "--format", "csv"]
    assert _stdout_digest(argv, capsys) == SWEEP_DIGEST


@pytest.mark.parametrize("seed", sorted(MORE_SWEEP_DIGESTS))
def test_sweep_all_more_seeds_csv(seed, capsys):
    argv = ["sweep", "--suite", "all", "--seed", str(seed), "--trials", "100", "--format", "csv"]
    assert _stdout_digest(argv, capsys) == MORE_SWEEP_DIGESTS[seed]


@pytest.mark.parametrize("fmt,seed", sorted(FORMAT_SWEEP_DIGESTS))
def test_sweep_all_json_and_human(fmt, seed, capsys):
    argv = ["sweep", "--suite", "all", "--seed", str(seed), "--trials", "100", "--format", fmt]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == FORMAT_SWEEP_DIGESTS[fmt, seed]


@pytest.mark.parametrize("doc", ["readme", "infinite"])
@pytest.mark.parametrize("fmt", ["csv", "json", "human"])
@pytest.mark.parametrize("command", [["expect"], ["verify", "--S", "2,2"], ["contract-check"]],
                         ids=["expect", "verify-S", "contract-check"])
def test_model_commands(command, fmt, doc, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(README_DOC if doc == "readme" else INFINITE_DOC))
    argv = [*command, "--model", str(path), "--format", fmt]
    assert _stdout_digest(argv, capsys) == MODEL_DIGESTS[command[0], fmt, doc]


@pytest.mark.parametrize("doc", sorted(RING_DOCS))
@pytest.mark.parametrize("fmt", ["csv", "json", "human"])
@pytest.mark.parametrize("command", ["expect", "verify", "contract-check"])
def test_ring_commands_stdout_and_stderr(command, fmt, doc, tmp_path, capsys):
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(RING_DOCS[doc]))
    assert main([command, "--model", str(path), "--format", fmt]) == 0
    captured = capsys.readouterr()
    digests = tuple(hashlib.sha256(text.encode()).hexdigest()
                    for text in (captured.out, captured.err))
    assert digests == RING_DIGESTS[command, fmt, doc]
