"""Golden CLI outputs: SHA-256 of stdout and the exit code of small commands.

The first digests were recorded before the ring-generic matrix refactor, the
next (one for every command and output format not yet covered) before the
single CLI renderer replaced the per-command format branches, and the last
three (the human and CSV forms of M at length 12, whose output and exit code
read every pair's verdict, and the human form of mu at length 14) before the
collision classifier became one table per pair of distinct brackets.  They must
never change: every subcommand, output format and ``--jobs`` value prints
byte-identical output.
"""

import hashlib
import shlex

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
    ("compute --map mu --word aabab --format human", 0,
     "c4e3aa5ff0f51425dd5a9d0877cb059c690da680bbd2e4985f2cbf3142333d35"),
    ("christoffel --max-len 10", 0,
     "21edc6b80e2240d073e31e4a34dc259762237a4d9e41c80b05ab80e6d8564580"),
    ("christoffel --max-len 10 --format human", 0,
     "e8f88cdf1299756393a4d97e6b525d7b3523ff0a0f551374119a7e3f22b16090"),
    ("eval --word aabab --k 5 --format csv", 0,
     "c729adfe246d7030bbcce0aeac6845ef221429faf38131310bd05a8d7f425d41"),
    ("eval --word aabab --k 5 --format human", 0,
     "322d70750d377aaf9c51db1dcc17770dd8209c5ee66ebfd6167d54ef1afc057c"),
    ("eval --word abb --k 6 --format csv", 0,
     "a2ed2e5f32147e9d33f2008f9ac3948f4fafbf1edf399a360588d2cb28deb96c"),
    ("eval --word abb --k 6 --format human", 0,
     "d45cafd4b02ef145b7b721c1bcfa30db0862f7f236ff266621695bfaf47b363c"),
    ("eval --word '' --k 6", 0,
     "c6d87d54fd70335c3b78f79d51046c3f2d60f9f6ae318610e764ef9badf59c1d"),
    ("eval --word '' --k 6 --format csv", 0,
     "9061023ea72343c961d2cc4c4bce7c20ecdccfba99501e466afcc8f1b56944bf"),
    ("eval --word '' --k 6 --format human", 0,
     "5d3f6dad90adf904c95402950965b495cd943d7af11ba57755f5f764173c0c58"),
    ("collide --map M --max-len 7 --format csv", 3,
     "ea38df1a90567ecee287e6328cc63c0173fe89ccecfb9651936a5bc4d753695a"),
    ("collide --map mu --max-len 8 --format csv", 0,
     "8ed3d1bfe585978fbd52ff1eb5e0fa568ad71711a033d974536fa9b09fbafca1"),
    ("collide --map mu --max-len 8 --format human --no-classify", 0,
     "e72a676eccd9d88b42bb0803e7470c231945262b915f543bfa35306bdbf13f6a"),
    ("verify-identities --cases 20 --seed 3 --max-v 2 --format csv", 0,
     "ae52fa75621243d5cfc045004bd6d037e73bdf0ba643d9715d080afab9b727cb"),
    ("verify-identities --cases 20 --seed 3 --max-v 2 --format human", 0,
     "b4e801794142b0675b16e0d06b838ea7824f8b9329ad28ad6f05a28271c4a62a"),
    ("closure --k 5 --format csv", 0,
     "7668d67edd5a099471a4898177853591a6926efb2b6addaf87934252af58a968"),
    ("closure --k 5 --format human", 0,
     "dd8f54a83df17dd699f0f0ef458895a3f6eb424cdd4b118a3b971f8c5eaa0574"),
    ("closure --k 6 --cap 200 --format human", 0,
     "fbdc4a501b5139469bc2fabb0ddff4ad8bfd534ed4e7240d560883f2b2b55bbe"),
    ("closure --k 4 --no-scaled", 0,
     "9aaa7b813944e25fdfa15523a0062100b809144d3b3260e8d3119795ce8d36b3"),
    ("residues --k 3 --max-len 8 --format csv", 0,
     "38f83e049aa161c75286a90367fc30d8ce845aa5c7b623c1c9f28e16126841da"),
    ("residues --k 3 --max-len 8 --format human", 0,
     "21640f538c097833b981f7212d0728c072b180d308dfdf97f2af8fa4274def18"),
    ("residues --k 5 --max-len 8 --format csv", 0,
     "82bebb89cc57319685e57886275ef4b16820b219e6adfb8e88655b1f5b6a55b8"),
    ("residues --k 5 --max-len 8 --format human", 0,
     "04643c38c2aca2ae3d86133d8ffe23498cf7ecd5f70dfbf5d4f99b276d5c958e"),
    ("figure2-data --max-len 6 --format json", 0,
     "4dad2b59deb46194bd37342690d0c8beb9c61a506771d0474c896fb701383911"),
    ("figure2-data --max-len 6 --format human", 0,
     "8d9974e0c5d505684ae1dc33441dd461918d165f4641589952f9308b8f9dee6b"),
    ("markoff --depth 6 --format csv", 0,
     "67ce1c78d80655cd7c1f0a5e67a692315d65f9ac997c92669d1a60f4e3ed9c11"),
    ("markoff --depth 6 --format human", 0,
     "3d847fcf67a50eb6ca72eb29672eb168b42c1431952001d6f4ce0ea56abfdda6"),
    ("markoff --up-to 1000", 0,
     "c7d593c0e7be0e9f7017aa44b752ee58c586d7571ea3d4c641076e1412e65bce"),
    ("markoff --up-to 1000 --format human", 0,
     "16df7b3bc734c370a241d5bd5170a544512f743f9787614165bedeb47666c862"),
    ("collide --map M --max-len 12 --format human", 3,
     "70c8aeddf977d402ed21ac61122591ae6508041d96074444122930844deeef9c"),
    ("collide --map M --max-len 12 --format csv", 3,
     "0c68e738c5af9836567f10bd1ef64122a666f9b82ef341e2b0348b40e714ce5b"),
    ("collide --map mu --max-len 14 --format human", 0,
     "ff1cbc456aa8f79ca664bb5ca52c8898124f9e3f15a670f9b4cee2be54258bb1"),
]


@pytest.mark.parametrize("command, exit_code, digest", GOLDEN,
                         ids=[c for c, _, _ in GOLDEN])
def test_golden_output(capsys, command, exit_code, digest):
    code = main(shlex.split(command))
    out = capsys.readouterr().out
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
