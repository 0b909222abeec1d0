"""Byte-for-byte goldens of the CLI: the sha256 of stdout and the exit code
of ten commands that together reach every module.

A change that means to keep every printed bit (a deletion, a refactor)
passes these unchanged; a change that means to move a printed number
re-pins the digest it moves and says why.
"""

import contextlib
import hashlib
import io

import pytest

from dhtlab.cli import main

GOLDEN = {
    "verify --suite section3":
        (0, "b918739cba1d5acf6acfbc85fb59c26f5c65d51d120784c1b77a8d95a2b2874b"),
    "factorize --window 1024":
        (0, "c24615c70ac1f9f60d6b3ffbef94b4bdd4b27844652c822554f657f6f00143ae"),
    "kernels --kernel E --radius 300":
        (0, "5f945ae072034d0c58192b530a6cc123452806c6eda4a9431d33aa4523f750dd"),
    "kernels --kernel J --radius 5000 --format json":
        (0, "16ce90239adc3932e5b1f97c5548493c3e2c8228aad0e0060014653c7b29e60b"),
    "norms --kernel H --p 1.5 --radii 64,600":
        (0, "804159f6d1e7fd3768387c0e5a92ef79fb73c376ca8e30ed8f132e90284af4f6"),
    "norms --kernel J --p 2 --radii 256":
        (0, "fcb15fc69431212070805b060b1d1cc8ef2bc7944e1fb542df1edfbbf05fade7"),
    "weaktype --kernel J --budget 30":
        (0, "2b6d6acf100a09f40afd6bcb60f064c96bdc9ece98dc88517cf246c377b42c8a"),
    "weaktype --family discretized_bumps --budget 12":
        (0, "be895d8093da809870af888e3857979efbac9d55e9881601791d3c5c06967d44"),
    "mc --paths 200 --seed 3":
        (0, "b5cab4f725e7aaab1ceff1a77b411a2aa56873dd971f3dc5e2253a24deacfe8d"),
    "mc --mode occupation --paths 300 --seed 5":
        (0, "86cabc002a08f0924bb645adf31a3c3e73b45f6c47c0e2a1b29a2046238f48d9"),
}


@pytest.mark.parametrize("command", list(GOLDEN))
def test_cli_output_is_byte_identical(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(command.split())
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert (rc, digest) == GOLDEN[command]
