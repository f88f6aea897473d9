"""Golden digests of CLI reports: the determinism contract, pinned.

Each argv's stdout must hash to the recorded sha256 and its exit code must
match; each spectral certificate must hash to its recorded sha256, and so
must the billiard return maps of seeds 0..199.  A rewrite of the exact core
that changes any report byte fails here.
"""

import hashlib
import json

import pytest

from refdyn.billiards import build_configuration, return_map
from refdyn.cli import main
from refdyn.core import RatMatrix
from refdyn.transitions import dominant_growth

GOLDEN = [
    (
        "reproduce triangle --precision 40 --seed 3",
        0,
        "6bb82e93a53a4678084dd31a419675ce9c7e11d3b3bed9499a70706733fbf355",
    ),
    (
        "reproduce conic-line",
        0,
        "5571321d2a121fd657fcc3c91afd9a25d0fba358136c4a8fb9522d1d685910c7",
    ),
    (
        "reproduce conic-line --precision 49",
        0,
        "f2f0e3426f8cea5d5197c2ac410f85d012d5dec8b1949f200421fbe5aa7a846d",
    ),
    (
        # about 670 halvings of one isolating interval
        "reproduce conic-line --precision 200",
        0,
        "d2efa7184ade5a090aabd8ff9ea9c228fe06fa75ea3a250fb2b30371076cbe0b",
    ),
    (
        "reproduce triangle --precision 120 --seed 2",
        0,
        "fc7f6c73486d113843cbead4bf037aa02e538889d49c851b9079dc34ab4af7a5",
    ),
    (
        "reproduce triangle --seed 1",
        0,
        "f955523dab445d6c9ec764f02564ad5db995d30fcbab2e99ae1eb98bda528b6d",
    ),
    (
        "reproduce general --n 5",
        0,
        "54645a294664590914fcf042f47e2dcd4130a967d629c69b9eeef64f42b6e579",
    ),
    (
        "billiard check --seed-range 0..20",
        0,
        "964065f54dd13781f683b7198ab31ff83108d75b6da57d36a54e2477cd227c59",
    ),
    (
        "billiard orbit --seed 7 --start 5/1 --format csv",
        0,
        "dc396d321a352ad7bcff80a8db94ac79e23479b5a610d1592597c9774e9deeec",
    ),
    (
        "billiard build --seed 11",
        0,
        "66443fc8d99fce7b629cf53d34e68654c2ef54b7b93c476659000357c8949a62",
    ),
    (
        "billiard orbit --seed 11 --start=-2/5 --word pqrqprqrp",
        0,
        "d25328b9c666cadb4c6c91768e3aa58d278bf6487d9b0514d237627411fdd79e",
    ),
    (
        "billiard check --seed-range 0..40 --horizon 50",
        0,
        "3144fc14e41025f04927d299fc3fb06201723ab38d2161d83996640187b82f2d",
    ),
    (
        # a start whose backward orbit collides with a forbidden point
        "billiard check --seed 2",
        1,
        "586cae116e03bf71549de0639d1dc5903fd6a80b9689ec5863da584c6f99a84b",
    ),
    (
        # the return map has no attractor
        "billiard check --seed 42",
        1,
        "ba87aee01b479d217e935309b7638775353198b8a3fac8bc9b07803965398f9a",
    ),
    (
        # reflections through p and q on L, applied again and again
        "billiard orbit --seed 7 --start=-3/2 --word ppqqpq --format csv",
        0,
        "18f05a4b63bad567f0f37e87190ab7754eab45c28a6e615335e9330356004440",
    ),
    (
        # a long return-word orbit, as the benchmark runs them
        "billiard orbit --seed 64 --start=-347/512 --word " + "rqprqp" * 8 + " --format csv",
        0,
        "3bbf2920da2a503c315fee2c39bf7bd414a8cec95ab1dc787bc6d00cf16f9ba4",
    ),
    (
        # the search certifies on its third attempt
        "billiard check --seed-range 81..88",
        0,
        "8f87018142279d5eabb30ea24c1c2ba02d21fdaac68e7d1b39b9ec8973db7d60",
    ),
    (
        # the search certifies on its second attempt
        "billiard check --seed-range 23..30",
        0,
        "b4ecfd85d74508669a745937c9f74f57f57abc17bf9843108e479c56a796dd94",
    ),
    (
        "germ evolve --steps 120 --order 32 --seed 4 --format csv",
        0,
        "61af28a5688720ed69a8723b108a39cffbbd0e75862565b8e9c735d2d638f43d",
    ),
    (
        "germ pairs --steps 60",
        0,
        "47bcde073179027d0f3f358cfbd48f4f8347f0e09a0f8f1c6a7fc6ea2bb76ab8",
    ),
    (
        # a cancelling trait: the partial report names the step and component
        "germ evolve --steps 5 --order 64 --seed 52",
        1,
        "6bd9935a8b6a22a343bc242caafc86bcf21e9d55498b2a72c365076fc25473fd",
    ),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_report_digest(capsys, argv, code, digest):
    assert main(argv.split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Spectral certificates: sha256 of the canonical JSON of
# dominant_growth(M, ones).to_obj().  The matrices cover irreducible quartic
# and sextic cores, cores that split over Q as 2+2, 2+3 and 3+3, and
# dominant factors with complex roots.
SPECTRAL_GOLDEN = [
    (
        "positive 4x4",
        [[2, 1, 0, 1], [1, 3, 1, 0], [0, 1, 1, 2], [1, 0, 2, 1]],
        "df41c6e5c597dbabf98cf6559b6e1630e97e44a30ada438e3ccbfaba9c9548ad",
    ),
    (
        "positive 4x4, complex pair",
        [[3, 1, 1, 2], [1, 1, 2, 1], [2, 1, 1, 1], [1, 2, 1, 4]],
        "5434161a9effc0ed3d2a0feabc8a96add7fc7890851df5622f636894cfa670a2",
    ),
    (
        "positive 5x5",
        [
            [2, 1, 1, 1, 1],
            [1, 2, 1, 1, 1],
            [1, 1, 3, 1, 1],
            [1, 1, 1, 2, 1],
            [1, 1, 1, 1, 5],
        ],
        "0d438ae7da41d0fb48369300d82e89294e4e8c551c26d85ed2a459589cbccddf",
    ),
    (
        "positive 5x5, complex pair",
        [
            [1, 2, 0, 1, 1],
            [1, 1, 3, 0, 1],
            [2, 0, 1, 1, 1],
            [1, 1, 0, 2, 3],
            [0, 1, 1, 1, 1],
        ],
        "ad4a00755f6ae398055335cc5688067191726e5a41f5339b3a3b846d8750e344",
    ),
    (
        "quartic core splits 2+2",
        [[1, 1, 1, 2], [1, 0, 0, 1], [0, 0, 2, 1], [0, 0, 1, 1]],
        "b8edf7bd133776d7b49ed0354f987abe548900ab339e75e824ebf314d64d679c",
    ),
    (
        "block triangular, complex pair",
        [[3, 1, 1, 2], [1, 2, 0, 1], [0, 0, 0, -1], [0, 0, 1, 1]],
        "99482a964e3acce9c4a6af8f535a79259b43b5d54cac110efd59ade992c560b9",
    ),
    (
        "block triangular 5x5, complex pair",
        [
            [2, 1, 1, 0, 1],
            [1, 1, 0, 1, 2],
            [1, 0, 1, 1, 1],
            [0, 0, 0, 1, -2],
            [0, 0, 0, 1, 1],
        ],
        "e39210dea13757b605ee5f67d49d25fa169398c1d7ca903cc2892dee0d53eff2",
    ),
    (
        "quintic core splits 2+3",
        [
            [2, 1, 1, 1, 0],
            [1, 1, 0, 0, 1],
            [0, 0, 1, 1, 0],
            [0, 0, 0, 1, 1],
            [0, 0, 1, 0, 2],
        ],
        "5fd97b05854be5a843318afcf9eca5998290dd8551f992b17a653488e0f32998",
    ),
    (
        "sextic core splits 3+3",
        [
            [3, 1, 0, 1, 1, 1],
            [0, 1, 1, 1, 1, 0],
            [1, 0, 1, 0, 1, 1],
            [0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, 1],
            [0, 0, 0, 1, 1, 1],
        ],
        "c2a4117220bca5f6622311d84a731e7ffd86c82064f5c7ba9f057de39c39dcca",
    ),
    (
        "irreducible quartic",
        [[0, 0, 0, -2], [1, 0, 0, 3], [0, 1, 0, 1], [0, 0, 1, 2]],
        "cdd7e0b4ba4478f94b50be4365d9f4b8b0310049b1da42e32037e869da857ca3",
    ),
    (
        "irreducible sextic",
        [
            [1, 1, 0, 0, 0, 1],
            [0, 1, 1, 0, 0, 0],
            [0, 0, 1, 1, 0, 0],
            [0, 0, 0, 1, 1, 0],
            [0, 0, 0, 0, 1, 1],
            [1, 0, 0, 0, 0, 1],
        ],
        "ecd22fa8bbefce04bbe020df688a7e058c0df97f8afe392e3e688b7466a6efae",
    ),
]


@pytest.mark.parametrize(
    "rows,digest",
    [g[1:] for g in SPECTRAL_GOLDEN],
    ids=[g[0] for g in SPECTRAL_GOLDEN],
)
def test_spectral_digest(rows, digest):
    obj = dominant_growth(RatMatrix(rows), [1] * len(rows)).to_obj()
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# sha256 of the compact JSON list of return_map(build_configuration(s)).to_obj()
# for s in 0..199: the billiard return map on L, pinned apart from the reports
RETURN_MAP_GOLDEN = "3cc5303be05ca8338fbfb66008e52ccbfab9b4475ab60d3021639cf678ea128d"


def test_return_map_digest():
    maps = [return_map(build_configuration(s)).to_obj() for s in range(200)]
    text = json.dumps(maps, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == RETURN_MAP_GOLDEN
