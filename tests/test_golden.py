"""Golden CLI reports: the sha256 of stdout and the exit code of fixed commands.

The digests pin the report bytes of the README examples, of every
registered family claim, of the other family checks and of the file
commands, so that a change meant to keep the output byte-identical is
checked by the suite rather than by a diff made by hand. A report that
changes on purpose needs its digest recorded again here.
"""

from __future__ import annotations

import hashlib

import pytest

from dicuts import main

INPUTS = {
    "diamond.txt": "# a diamond\ns a\ns b\na t\nb t\n",
    "dijoin.txt": "s a\na t\n",
    "crossing.txt": "a t\nb t\n",
    "classes.txt": "t\na t\n",
    "chain.txt": "a b\nb c\nc a\nc d\nd e\ne c\ne f\n",
    "hyperedges.txt": "1 2\n2 3\n3 1\n3 4\n",
    "triangle.txt": "1 2\n2 3\n3 1\n",
    "path.txt": "a x\nx b\na y\ny z\nz b\nx y\n",
}


def _family(name: str, check: str, nmax: int) -> list:
    return ["family", "--name", name, "--check", check, "--nmax", str(nmax)]


# id -> (argv, exit code, sha256 of stdout); file names refer to INPUTS.
GOLDEN = {
    "readme-solve": (["solve", "--input", "diamond.txt"], 0,
        "ebf210fda646ce0b65efee6ce2ddaef51e25bfdea43ebac5fe0c89bdf6fb4311"),
    "readme-family": (_family("zigzag_d1", "nested:diagonals", 4), 0,
        "74630d9dd6b13560dd9b89a8184787098c34f11dc9c5d78d87de6d9d98c90297"),
    "claim-ladder-no-finite-dicut": (_family("ladder", "no-finite-dicut", 4), 0,
        "0f9cf5682cd50190e68591aa5ff40d20fb431f4f03b521a02112c00ea22cfe6e"),
    "claim-zigzag-finitary-diagonals": (_family("zigzag_d1", "finitary:diagonals", 8), 0,
        "8a8992f7b72884e5e970fb97a55094cd1d4e4ee91a339e9a96d45709cf6d5b75"),
    "claim-zigzag-finitary-verticals_and_first_spoke": (
        _family("zigzag_d1", "finitary:verticals_and_first_spoke", 8), 0,
        "0c2e4d62cb1f3c4ff7e80fc1ac0b7e7db6e82f97c14c268d71372d17b7a434bc"),
    "claim-zigzag-nested-diagonals": (_family("zigzag_d1", "nested:diagonals", 8), 0,
        "ea91c8f7591d6586baf5b77ac97ad2cae7622c242d5aa46bb36d3d4ec3bda8f5"),
    "claim-zigzag-nested-verticals_and_first_spoke": (
        _family("zigzag_d1", "nested:verticals_and_first_spoke", 8), 0,
        "34035f339be985c37c2efd571f9446e8b410306c7d67270061ccc024efdfaaa4"),
    "claim-grid-finitary-vertical_drops": (_family("grid_d2", "finitary:vertical_drops", 5), 0,
        "c92914b1f0939df0a3becf1057edba35584a879954e819d5b71cc0704e18571e"),
    "claim-grid-finitary-horizontal_steps": (
        _family("grid_d2", "finitary:horizontal_steps", 5), 0,
        "6630a2ac78376d6b765c051fb1bb16759b9ba07536bf718abd57fdad84be6030"),
    "claim-grid-nested-vertical_drops": (_family("grid_d2", "nested:vertical_drops", 5), 0,
        "361f96b733a03e7c2f8472cccc4430107f643b4b7e70accbb5d3b08ff8363a25"),
    "claim-grid-nested-horizontal_steps": (_family("grid_d2", "nested:horizontal_steps", 5), 0,
        "a2daa1eed74e353f47e6ee9d939c273723f5085a28bb52df67ac381897a0d38b"),
    "unregistered-finitary": (_family("zigzag_d1", "finitary:spokes_without_first", 3), 2,
        "ebd6ab7909bc83ec4127fe644a0d827171841cc0562afa4f4c0197215235a39f"),
    "unregistered-nested": (_family("zigzag_d1", "nested:verticals", 3), 0,
        "b0e483e31763c622bed1753c831038e2bf1d535198909d1c00c8cbb3951e7dca"),
    "no-finite-dicut-refuted": (_family("zigzag_d1", "no-finite-dicut", 3), 2,
        "3bf1028747320b053cb9d8dc175f025c49de52bb4f8d42de0215158b9d37d314"),
    "growth": (_family("zigzag_d1", "growth:a0->b1", 5), 0,
        "df5bcfaa9b74d1a891840c16137c4bef9981ea5444b9051c77c2e5d77b91f758"),
    "compactness": (_family("zigzag_d1", "compactness", 4), 0,
        "3e62b49665b0da5ca726933ed52e2b4af24e2353692872dad7721a01acd4509f"),
    "coherence": (_family("grid_d2", "coherence", 4), 0,
        "4f3c8b9dc68590770e94183028c47e165aa9b88558b86f83a272f2055fcd5a08"),
    "coherence-not-applicable": (_family("transitive_tournament", "coherence", 3), 0,
        "4936c2f89699350a081e0b4fcf6ed9c8136328803ea2ac19d37ea7b8e8a19ee4"),
    "unknown-check": (_family("ladder", "sideways", 2), 1,
        "befbf0b71dd2b7ac8308832a5adf0ed3e3afa8f740f6d1e63aebe31de7b834dc"),
    "hypergraph-hyperedges": (["hypergraph", "--input", "hyperedges.txt"], 0,
        "7178af6ce6d7c7708ea491384717f5585928916e7cb1d57841d07324759c6a32"),
    "hypergraph-no-konig": (["hypergraph", "--input", "triangle.txt"], 0,
        "c828a8291dc58a56c7b7328d65af11ad494773c67218906dcca32635cf987197"),
    "hypergraph-menger": (["hypergraph", "--input", "path.txt", "--menger", "a;b"], 0,
        "19426a18bc47fe4e3d5ac904da42c41171dbe05005332510fffa98c616039e97"),
    "quotient": (["quotient", "--input", "diamond.txt", "--class-file", "classes.txt"], 0,
        "e08b3387d31e5842676c0780855998974cbc34a15e024915af6efb91bdea547a"),
    "blocks": (["blocks", "--input", "chain.txt"], 0,
        "f667990c14acd7bef21aabb82bd871c689031cd99f0404e3cdb7edcd0de8ae0a"),
    "solve-class-file": (["solve", "--input", "diamond.txt", "--class-file", "classes.txt"], 0,
        "f12f5ea2992035a9bcef4cf2a699ba51c576ac9e84b1fc25dd1ff1a683c435a3"),
    "uncross-auto": (["uncross", "--input", "diamond.txt"], 0,
        "e8d2aede28f5bbd6789a3f4916294d1b78760fc91e89eeb43c90e9a55eaa0039"),
    "uncross-given": (
        ["uncross", "--input", "diamond.txt", "--dijoin", "dijoin.txt", "--family", "crossing.txt"],
        0, "ba774d2aad42688283d9dee97782bebd6b0e6d78bc46c71463c39f9f331b9186"),
    "uncross-given-class-file": (
        ["uncross", "--input", "diamond.txt", "--dijoin", "dijoin.txt", "--family", "crossing.txt",
         "--class-file", "classes.txt"],
        0, "ba774d2aad42688283d9dee97782bebd6b0e6d78bc46c71463c39f9f331b9186"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_report_bytes_are_unchanged(case, tmp_path, capsys):
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv, exit_code, digest = GOLDEN[case]
    argv = [str(tmp_path / a) if a in INPUTS else a for a in argv]
    rc = main(argv)
    out = capsys.readouterr().out
    assert (rc, hashlib.sha256(out.encode()).hexdigest()) == (exit_code, digest), out
