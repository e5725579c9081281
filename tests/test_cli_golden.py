"""Byte-identical stdout for the README command examples and a few larger cases.

Each digest is the sha256 of the JSON a command prints.  A change to any
route behind these commands that alters a single output byte fails here.
"""

import hashlib

import pytest

from fsz_lab import cli

GOLDEN = [
    ("field --p 3 --n 2",
     "de39fc64041d7376ba19b914d9295fa42eaeccba4a1e78364c6f7e8d5bf2b726"),
    ("qr --q 11",
     "a19b84473d853342c91cdada5ea0d741acb71df8b895046a441dc70711418a15"),
    ("qrdiff --q 5",
     "9b18dd0471351180d9ef307919c0ff6781abe88279a1390ee4e2631df8206616"),
    ("gauss --p 5 --n 2",
     "c55288bb4e6e40e579af8967cd069a10ea7a64fef3aa062338dedb15d0605b95"),
    ("gauss --p 397 --n 1",
     "fb83342cb890aaac0e8cf9c7bd053ccd2eb62890dbca46d570959a44f670c5a3"),
    ("gauss --p 3 --n 5",
     "3b29f1f79f9fa7613ee5fa862920bd2c63ce02749cd0dcd93afec154b25461cf"),
    ("field --p 3 --n 6",
     "90c830fd81f960d5694e73b8dcd2268ab4feca69c9287db16d30725e6308f2b6"),
    ("fibers --p 5 --n 2",
     "552a686e32617543e3df4e9056cfe57995ce1958e2927e74299523e17142dbdc"),
    ("binom --p 5 --j 1",
     "c9873e22737ee9b639d89004875a97e5cd6dde71b0fe3342b702d92be14c24bc"),
    ("pairs --q 13",
     "a1345367eedffb1f0c856b4c14ef1cf30302189ede8b6d63f5f15e343be3540f"),
    ("sylow solve --p 5 --q 5 --j 1 --d 1 --x 1",
     "c9ad87acd608dcf3c6d27af75db678dd86933220b85a1e4991734b3bf3685780"),
    ("sylow gm --p 5 --q 5 --j 1 --d 2 --u U",
     "6e7edcb961a1709bcc760ff9549cd9dcbd26d04795158b06800482d8bb7cb942"),
    ("sylow fsz --p 5 --q 5 --j 1",
     "1e3d999281d2f69920e990bc59d46c5915b064427fdb4c3aaae5b41b71f1f8ae"),
    ("sylow fsz --p 13 --q 13 --j 1",
     "9633f070bb906103fdc4888a2195d7b5da2c6ea479c711143473b84ded3a8b76"),
    ("sylow fsz --p 3 --q 9 --j 1 --mode brute",
     "50301f913e1cefd1c39be9df0450fbe45f0372391e2e979a41c93f7a1c7007ab"),
    ("sylow fsz --p 5 --q 5 --j 1 --beta",
     "70dbfeebefc7d06f936d4c58dd5a3371d843c8485eb64b451b066637a6e176c9"),
    ("sylow beta --p 5 --q 5 --j 1",
     "3bc867133ec7d179f85998062178f124fed76624ec3fca4fbaca659c3bede7a5"),
    ("sylow enumerate --n 2 --q 3 --stop 10",
     "c64bfd53f1c01c6aa56d661b9107a6ff9d6051dc077709bf745f1c8efed3615d"),
    ("centralizer check --p 5 --q 5 --j 1 --samples 20 --seed 7",
     "94f2b5ed2eb8939c952377afebfe53af14fa2e8cc91c1ec93d91592e4e15eb44"),
]


@pytest.mark.parametrize("command,digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_readme_command_output_is_pinned(capsys, command, digest):
    assert cli.main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
