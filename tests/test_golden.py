"""Golden digests of CLI reports: the determinism contract, pinned.

Each argv's stdout must hash to the recorded sha256 and its exit code must
match.  A rewrite of the exact core that changes any report byte fails here.
"""

import hashlib

import pytest

from refdyn.cli import main

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
        "reproduce triangle --seed 1",
        0,
        "f955523dab445d6c9ec764f02564ad5db995d30fcbab2e99ae1eb98bda528b6d",
    ),
    (
        "reproduce general --n 5",
        0,
        "5f7e73e74fcc0385d4c5d607c24273755d295acdd7614abbb9b0cbeaed7291b3",
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
        "germ evolve --steps 120 --order 32 --seed 4 --format csv",
        0,
        "61af28a5688720ed69a8723b108a39cffbbd0e75862565b8e9c735d2d638f43d",
    ),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_report_digest(capsys, argv, code, digest):
    assert main(argv.split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
