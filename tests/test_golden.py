"""Golden CLI outputs: SHA-256 of stdout and the exit code of small commands.

The digests were recorded before the ring-generic matrix refactor and must
never change: every subcommand, output format and ``--jobs`` value prints
byte-identical output.
"""

import hashlib

import pytest

from qmarkoff.cli import main

GOLDEN = [
    ("compute --map mu --word aabab", 0,
     "ce48ad749cb23520209c386e37bc1f2c9a7f7f0a990614a738cbce44ed6d4aac"),
    ("compute --map M --word bbaaaaabb --format csv", 0,
     "ac6004a9bf55a04715716e48c7901676f283d391a10d25a2ce2312afe0be8959"),
    ("christoffel --max-len 10 --format csv", 0,
     "38b1a9eb1e45c7fd974aa090c4c2963f778b7d177baea2d524589e53c713533c"),
    ("eval --word aabab --k 5", 0,
     "af4115cccf684865fafe0284fbb719503735e91c8155dc662e0fd4df959a36ce"),
    ("eval --word abb --k 6", 0,
     "0a51181ef80fdd85624f424441a18d46731edd2ece5c17126db14f47c11b22b0"),
    ("collide --map mu --max-len 10", 0,
     "53cb2f8e05eed78c35e3b5fe630298e8b7331a30860c82b3c307924d9bcac2ea"),
    ("collide --map M --max-len 9", 3,
     "5bb3b211dc33f9f07c1044b84f75b8f67a41573ee566885f1d583e596017a2ab"),
    ("collide --map M --max-len 9 --format human", 3,
     "cc61396040b9ef8c3980da956bb4602087b643793fbea7e389451f40b3ea7127"),
    ("collide --map M --max-len 9 --jobs 2", 3,
     "5bb3b211dc33f9f07c1044b84f75b8f67a41573ee566885f1d583e596017a2ab"),
    ("verify-identities --cases 50 --seed 3 --max-v 2", 0,
     "5b3459baa43a3f9ba51d3b47d2ee52ac0db5f4838bf4229b93eee8273da7e2c9"),
    ("closure --k 5", 0,
     "2531675388e7642707651dd0e4720065f3f4e9a89745b46f61409daa8cd1ac64"),
    ("closure --k 6 --cap 500", 0,
     "cfbb9782d46b6f58ce78b90e63c9dccef73bc18793ac867eb1b8e3d4f3f564ef"),
    ("residues --k 2 --max-len 10", 0,
     "825b2bb8eb194b42dc348a00aa7e3551bffe1c280e562809242b3fb8c317d929"),
    ("residues --k 3 --max-len 10", 0,
     "f0904cd27d1835251fec0b5a998007bde033399e2ff677ed99040345b6aec1ad"),
    ("residues --k 4 --max-len 10", 0,
     "3d155262b51f4111f3f00dae5c61b2fae7381a06e6f243a8e51eb2a6706329c9"),
    ("residues --k 5 --max-len 10", 0,
     "6841c531cdd66ac6d03dfabcd68ca3776588c7b1d27cab3475044358ea8bedd1"),
    ("figure2-data --max-len 8", 0,
     "46000923c9accafae00cdcf855c7af72f9986cc17f1edbe7d3539d2d885d2a6c"),
    ("markoff --depth 6", 0,
     "a57cb2bf9d97e204f3238c90efb821c321479f5d862a6dae847e43f852264c33"),
]


@pytest.mark.parametrize("command, exit_code, digest", GOLDEN,
                         ids=[c for c, _, _ in GOLDEN])
def test_golden_output(capsys, command, exit_code, digest):
    code = main(command.split())
    out = capsys.readouterr().out
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
