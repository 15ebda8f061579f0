"""``sncresolve verify`` output is a contract: its bytes are pinned by digest.

The sha256 of standard output and the exit code of ``verify --rule R
--exponent-policy P`` on the default grids, as a table and with
``--json``, recorded from the verifier before its chart maps, polynomial
hashes and parser were memoized.  The memo keys are hashed names, so the
digests must not depend on ``PYTHONHASHSEED``.
"""

import hashlib

from sncresolve import cli
from sncresolve import poly_oracle as po

VERIFY_SHA256 = {
    ("det", "oracle", "text"): (0, "fa816cf075e8fd04834bfe3ef09d089228460aeea6aa3b2e72bfd0faca40c9d5"),
    ("det", "oracle", "json"): (0, "69d2749b7733521a4c1202882a10ef56905870b417d1a8c1d3347225793bc99f"),
    ("det", "paper", "text"): (3, "a3b687ad0962c90d95a629c2627a3944100f625cc40d6df76b33b8ee78454795"),
    ("det", "paper", "json"): (3, "f7597e35ead341a8ba821ea8fedbf20ecb8e8a947a0f5b89f4151cf3e9c820f6"),
    ("mon1", "oracle", "text"): (0, "66f560581d42f7a002e2a4725408fec0e3788158eec587b333e7be09f9c50fcd"),
    ("mon1", "oracle", "json"): (0, "d4c32b8373bbd63789bd02e18f57311b56a66854996d528d7d431fe8b0a50990"),
    ("mon1", "paper", "text"): (0, "66f560581d42f7a002e2a4725408fec0e3788158eec587b333e7be09f9c50fcd"),
    ("mon1", "paper", "json"): (0, "c3c705d6751ed6bc0ae685d5fc1ba01ea0961328cdb4896bf2dc0c50c32a8fa2"),
    ("mon2", "oracle", "text"): (0, "206736801fe69238e27608d9b3a4c505a73805e3133292019c4b76c13e9f1c7f"),
    ("mon2", "oracle", "json"): (0, "96ad4e0861379c484618ba7fe4773f00bb30e68a804a2cbb471c0afddd0d01d5"),
    ("mon2", "paper", "text"): (0, "206736801fe69238e27608d9b3a4c505a73805e3133292019c4b76c13e9f1c7f"),
    ("mon2", "paper", "json"): (0, "778a07a3542753db2d4bd5aee8020ecefde6a9b6b1f47d2761c7f2b35f898a4c"),
    ("mon3", "oracle", "text"): (0, "af1ddadb8a87c49de8e79120f5646d21a62d52c8539bbbb0371cb29036256ebb"),
    ("mon3", "oracle", "json"): (0, "21e1a488e0e5eadb7f929cfcb325aa845ce1eec8ec67c90209df00d9d718dab0"),
    ("mon3", "paper", "text"): (0, "af1ddadb8a87c49de8e79120f5646d21a62d52c8539bbbb0371cb29036256ebb"),
    ("mon3", "paper", "json"): (0, "a2877918dea2206c34335a52b655717c2a178d1c04e69a6c14e3973db983c028"),
    ("bin", "oracle", "text"): (0, "e9ca617893c9fb907326455bf544e4ed0e0312bc88944791762916373be53f96"),
    ("bin", "oracle", "json"): (0, "2a8d9f2c066babec546ec45a0b40a4b35bfdc7aeacf9ae18260fd2004395d494"),
    ("bin", "paper", "text"): (0, "e9ca617893c9fb907326455bf544e4ed0e0312bc88944791762916373be53f96"),
    ("bin", "paper", "json"): (0, "299f58ace07659953cf418c8bb6d2d7ba17b8ff844531e5627672fe59d186607"),
}


def test_verify_output_matches_the_pinned_digests_with_cold_and_warm_memos(capsys,
                                                                          monkeypatch):
    po._chart_map.cache_clear()
    monkeypatch.setattr(po, "_DET_IMAGES", {})
    for memo in ("cold", "warm"):
        got = {}
        for rule, policy, layout in VERIFY_SHA256:
            argv = ["verify", "--rule", rule, "--exponent-policy", policy]
            code = cli.main(argv + (["--json"] if layout == "json" else []))
            out = capsys.readouterr().out.encode("utf-8")
            got[rule, policy, layout] = (code, hashlib.sha256(out).hexdigest())
        assert got == VERIFY_SHA256, memo
