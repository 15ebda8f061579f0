"""``sncresolve dualcomplex`` output is a contract: regenerate it and compare digests.

Each input is written to a file and run through ``cli.main`` twice, once
for the text report and once with ``--json``, both with ``--dot``.  The
sha256 of the text report, of the JSON report and of the DOT file are
pinned below.  The inputs are the coordinate germs 1 to 10, each as a
variety document and as a complex document; the Klein bottle, the
projective plane and the mod-3 Moore space from the test oracles, and
the benchmark's Moore wedge M(Z/2,1) v M(Z/3,1), whose core reaches the
dense Smith normal form; and every variety of three seeded blow-up chains.  Standard output names the DOT
file, so each run writes it under one relative name in its own directory.
"""

import hashlib
import importlib.util
import json
import random
from pathlib import Path

import pytest

from oracles import klein_bottle_complex, moore_space_complex, rp2_complex
from sncresolve import cli
from sncresolve import dual_complex as dc
from sncresolve import snc_model as sm

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
CHAIN_SEEDS = (1, 2, 3)
CHAIN_GERM = 6
CHAIN_STEPS = 3


def _chain(seed):
    """``coordinate_germ(6)`` and three blow-ups in a row, each at a seeded
    choice among the strata left."""
    rng = random.Random(seed)
    snc = sm.coordinate_germ(CHAIN_GERM)
    out = [snc]
    for _ in range(CHAIN_STEPS):
        center = sm.CenterDescriptor("stratum", stratum_id=rng.choice(snc.strata).id)
        snc, _ = sm.blowup_center(snc, center)
        out.append(snc)
    return out


def _documents():
    """Input name -> the document ``dualcomplex`` reads."""
    docs = {}
    for n in range(1, 11):
        germ = sm.coordinate_germ(n)
        docs[f"germ{n}.variety"] = sm.to_json_obj(germ)
        docs[f"germ{n}.complex"] = dc.to_json_obj(sm.dual_complex_of(germ))
    docs["klein"] = dc.to_json_obj(klein_bottle_complex())
    docs["rp2"] = dc.to_json_obj(rp2_complex())
    docs["moore3"] = dc.to_json_obj(moore_space_complex(3))
    spec = importlib.util.spec_from_file_location("bench_fixtures", BENCHMARKS / "fixtures.py")
    fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fixtures)
    docs["moore_wedge"] = dc.to_json_obj(fixtures.torsion_complex(dc))
    for seed in CHAIN_SEEDS:
        for step, snc in enumerate(_chain(seed)):
            docs[f"chain{seed}.{step}"] = sm.to_json_obj(snc)
    return docs


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(args, capsys) -> str:
    assert cli.main(args) == cli.EXIT_OK
    out, err = capsys.readouterr()
    assert err == ""
    return out


def _digests(doc, tmp_path, monkeypatch, capsys) -> dict:
    """The three digests of one input: text report, JSON report, DOT file."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "input.json").write_text(json.dumps(doc), encoding="utf-8")
    text = _run(["dualcomplex", "--input", "input.json", "--dot", "skeleton.dot"], capsys)
    dot = (tmp_path / "skeleton.dot").read_bytes()
    report = _run(["dualcomplex", "--input", "input.json", "--dot", "skeleton.dot", "--json"],
                  capsys)
    assert (tmp_path / "skeleton.dot").read_bytes() == dot
    return {"text": _sha(text.encode("utf-8")), "json": _sha(report.encode("utf-8")),
            "dot": _sha(dot)}


DOCUMENTS = _documents()

# Recorded before the trusted-cell and boundary-build changes to
# ``dual_complex`` and ``snc_model``.
DIGESTS = {
    "chain1.0": {
        "text": "ae3ad45317b5275f09bcbe850821f0aed051a2bea0dd71f5f06d2697aadaa053",
        "json": "b690d85e46e49688911cf0f14b6beadaf2c5238c6927e098f7a3801cc52966ee",
        "dot": "acfb60c87bcb73ea7f6ef912d7d17aedaa1d8f654b6ab801d57d5a11e925dbf6",
    },
    "chain1.1": {
        "text": "1af3b280a3f6559299d500a884d6be8bf61e2b5eafd6efca5dfa7545cc383546",
        "json": "ddee5a6c63ed18c00ff6ef51a39d1541777e5cedb72152113444d5b544e83f25",
        "dot": "acfb60c87bcb73ea7f6ef912d7d17aedaa1d8f654b6ab801d57d5a11e925dbf6",
    },
    "chain1.2": {
        "text": "efc99ed68302faac384a9c02f13fcee455b12405e1ca4912683b77b0364774ee",
        "json": "ff9c8ef7bbd3bf16df442e954f29ceb2f4420345ac04022cd17faea0f0596593",
        "dot": "acfb60c87bcb73ea7f6ef912d7d17aedaa1d8f654b6ab801d57d5a11e925dbf6",
    },
    "chain1.3": {
        "text": "41084a977a5e27c556a248b71b7a648d2ce0b4d4ca6957ddfb8af5e19684218f",
        "json": "9e87b07318b7dacfc8ab7b7600d654028e916b96d50a7d406865337dacde6795",
        "dot": "2a0a66fb13b6d3aa96841ac594ab024eed700dffedadec4c7e9f31849dc14c9e",
    },
    "chain2.0": {
        "text": "ae3ad45317b5275f09bcbe850821f0aed051a2bea0dd71f5f06d2697aadaa053",
        "json": "b690d85e46e49688911cf0f14b6beadaf2c5238c6927e098f7a3801cc52966ee",
        "dot": "acfb60c87bcb73ea7f6ef912d7d17aedaa1d8f654b6ab801d57d5a11e925dbf6",
    },
    "chain2.1": {
        "text": "6adcaf32723945c22adab6e9be9143e451ede3190c2bfee39acac6c8022618c3",
        "json": "73603e42d862f55d0aab73603046a7735609b5d5cce670f26293f5140cc6dac9",
        "dot": "bf9c77e2fe20742d212411ce14dc3191633bd5f9bb7e6a64d8f882661ff2e441",
    },
    "chain2.2": {
        "text": "34f8c20aad5cba768c3cc05bdbd043161fa0fea38bb130b4905563a644eb3608",
        "json": "32e1988417457e4fb4578c9d5ac8143bba80d1711351011526b6f352cea5e16a",
        "dot": "bf9c77e2fe20742d212411ce14dc3191633bd5f9bb7e6a64d8f882661ff2e441",
    },
    "chain2.3": {
        "text": "f6803889d4579e4121c140a76f88c0c46fd4338192439c5ce1c8d471a0cb9527",
        "json": "cf8c3b6ffd4cc86fd773850e27a1a83d88d180d1d6391102a4fe5e20925ddde2",
        "dot": "bf9c77e2fe20742d212411ce14dc3191633bd5f9bb7e6a64d8f882661ff2e441",
    },
    "chain3.0": {
        "text": "ae3ad45317b5275f09bcbe850821f0aed051a2bea0dd71f5f06d2697aadaa053",
        "json": "b690d85e46e49688911cf0f14b6beadaf2c5238c6927e098f7a3801cc52966ee",
        "dot": "acfb60c87bcb73ea7f6ef912d7d17aedaa1d8f654b6ab801d57d5a11e925dbf6",
    },
    "chain3.1": {
        "text": "fd1aa69352770419708e6fcb59d74c01f2a5725ee73f1787d00ba7c71aedf4e2",
        "json": "144443f626afcc38d247479b2a6c61bdf4a19aaaa3e67bf79f2b69fa15986e9a",
        "dot": "acfb60c87bcb73ea7f6ef912d7d17aedaa1d8f654b6ab801d57d5a11e925dbf6",
    },
    "chain3.2": {
        "text": "8d6f3f3f7a74665df3e85d9a579fc77d270bcd811ca443d9b0ebd5175adfd265",
        "json": "bc4dbc872cedd5d68d8124b608e0de7f40314f58cbab73fc6a541b60f9debadc",
        "dot": "8ce4c1a858411da90f7b60731ad5e77708aab60063a2721ae5cefb035077f8cf",
    },
    "chain3.3": {
        "text": "f6803889d4579e4121c140a76f88c0c46fd4338192439c5ce1c8d471a0cb9527",
        "json": "cf8c3b6ffd4cc86fd773850e27a1a83d88d180d1d6391102a4fe5e20925ddde2",
        "dot": "8ce4c1a858411da90f7b60731ad5e77708aab60063a2721ae5cefb035077f8cf",
    },
    "germ1.complex": {
        "text": "f0a484891ca7cf26af24f87c8f96a177ad5b2a78debe60b2ccb230ff306f375f",
        "json": "072f83ef0805970f0b755b5254d25ef14a9c7b4ec35188b40dc3d71b6b529a19",
        "dot": "a888a04cbba5f482e881229cef8a21ee5fc54a3558a1ec60dbeb27bdbde094ca",
    },
    "germ1.variety": {
        "text": "f0a484891ca7cf26af24f87c8f96a177ad5b2a78debe60b2ccb230ff306f375f",
        "json": "072f83ef0805970f0b755b5254d25ef14a9c7b4ec35188b40dc3d71b6b529a19",
        "dot": "a888a04cbba5f482e881229cef8a21ee5fc54a3558a1ec60dbeb27bdbde094ca",
    },
    "germ10.complex": {
        "text": "96ef9ffa2172b4542b87d4373d69bdb4fbc65db597f708ba6432e57878ff4ded",
        "json": "9ab380b073538e78704d8b0430f1dbf4125f4d5bcc6e58892af3afc8533cdfa6",
        "dot": "0ad94802816ba69f2058ffbcde65cde1274eb7757a28cce74d85449db799adfd",
    },
    "germ10.variety": {
        "text": "96ef9ffa2172b4542b87d4373d69bdb4fbc65db597f708ba6432e57878ff4ded",
        "json": "9ab380b073538e78704d8b0430f1dbf4125f4d5bcc6e58892af3afc8533cdfa6",
        "dot": "0ad94802816ba69f2058ffbcde65cde1274eb7757a28cce74d85449db799adfd",
    },
    "germ2.complex": {
        "text": "deebb21f9c9038f0cdb6c06f9995b5e53c584dc61ef7bbfefcc3cb7f45885b0f",
        "json": "52ba7de95100d2571b8d8197944d659c34ab0e6f0528ef39fd6c396be2a6c1f6",
        "dot": "d59e14822fdfd353e7185b91d9600fd39818246f9b58a15dd882bbfb824ccdb3",
    },
    "germ2.variety": {
        "text": "deebb21f9c9038f0cdb6c06f9995b5e53c584dc61ef7bbfefcc3cb7f45885b0f",
        "json": "52ba7de95100d2571b8d8197944d659c34ab0e6f0528ef39fd6c396be2a6c1f6",
        "dot": "d59e14822fdfd353e7185b91d9600fd39818246f9b58a15dd882bbfb824ccdb3",
    },
    "germ3.complex": {
        "text": "bd87aac4994874e8c9f3ce77676cfaee5693c076562532b89718c04c127e0e9e",
        "json": "d1abb65acdab768e97b73ba3394df3e7d9f4060ec4b2af0ca50a5ff6bee59c60",
        "dot": "4ab1f9e41945f0a5c5ce98cc1c7f1e325fe83ce3e8e66effb24fb339a94a79f4",
    },
    "germ3.variety": {
        "text": "bd87aac4994874e8c9f3ce77676cfaee5693c076562532b89718c04c127e0e9e",
        "json": "d1abb65acdab768e97b73ba3394df3e7d9f4060ec4b2af0ca50a5ff6bee59c60",
        "dot": "4ab1f9e41945f0a5c5ce98cc1c7f1e325fe83ce3e8e66effb24fb339a94a79f4",
    },
    "germ4.complex": {
        "text": "a591172196203e8aa48febf36ef3691a38f3f562af6b9f574cc234df207a4ed3",
        "json": "683c064e64b75907b26f0129398feac976991e66aa8264bb81b0cf089c903e0d",
        "dot": "13635dd6a9b8797e13315411e3070d7115dcb46ff21f471eaddccbda5c858583",
    },
    "germ4.variety": {
        "text": "a591172196203e8aa48febf36ef3691a38f3f562af6b9f574cc234df207a4ed3",
        "json": "683c064e64b75907b26f0129398feac976991e66aa8264bb81b0cf089c903e0d",
        "dot": "13635dd6a9b8797e13315411e3070d7115dcb46ff21f471eaddccbda5c858583",
    },
    "germ5.complex": {
        "text": "d3a4e8fbc53a9ee3927f47d17adf7d016f06fcc65aabc15b351f5ae69d663b74",
        "json": "279683624404d716bf38652d95c690510e80415394452edbb921bc1f7810d417",
        "dot": "2a0a66fb13b6d3aa96841ac594ab024eed700dffedadec4c7e9f31849dc14c9e",
    },
    "germ5.variety": {
        "text": "d3a4e8fbc53a9ee3927f47d17adf7d016f06fcc65aabc15b351f5ae69d663b74",
        "json": "279683624404d716bf38652d95c690510e80415394452edbb921bc1f7810d417",
        "dot": "2a0a66fb13b6d3aa96841ac594ab024eed700dffedadec4c7e9f31849dc14c9e",
    },
    "germ6.complex": {
        "text": "ae3ad45317b5275f09bcbe850821f0aed051a2bea0dd71f5f06d2697aadaa053",
        "json": "b690d85e46e49688911cf0f14b6beadaf2c5238c6927e098f7a3801cc52966ee",
        "dot": "acfb60c87bcb73ea7f6ef912d7d17aedaa1d8f654b6ab801d57d5a11e925dbf6",
    },
    "germ6.variety": {
        "text": "ae3ad45317b5275f09bcbe850821f0aed051a2bea0dd71f5f06d2697aadaa053",
        "json": "b690d85e46e49688911cf0f14b6beadaf2c5238c6927e098f7a3801cc52966ee",
        "dot": "acfb60c87bcb73ea7f6ef912d7d17aedaa1d8f654b6ab801d57d5a11e925dbf6",
    },
    "germ7.complex": {
        "text": "d9e0c639cb2af67a531679f73963e5a480b716a0f2fe9d62ab22fe1e199e93d4",
        "json": "37f82f4497e9dda671b98f226b008b5ba4aa0e9203d201efd8a71469338cf3d6",
        "dot": "c6b89aa4943f27ec2b00b9c5155f88d3a8568aaef330890a3b348cf606929f5d",
    },
    "germ7.variety": {
        "text": "d9e0c639cb2af67a531679f73963e5a480b716a0f2fe9d62ab22fe1e199e93d4",
        "json": "37f82f4497e9dda671b98f226b008b5ba4aa0e9203d201efd8a71469338cf3d6",
        "dot": "c6b89aa4943f27ec2b00b9c5155f88d3a8568aaef330890a3b348cf606929f5d",
    },
    "germ8.complex": {
        "text": "ba602949f4a581e6e5adf9ef9eb9ec6b4c4404058302a26d3352c552db9f1681",
        "json": "5e167712d97348889953f1b92eac85228658f03823554a540168e1d8426cecaa",
        "dot": "892bc03d53ab2c7bee205a5d9e4082424abe8ed15719f46816b1ca87657b5576",
    },
    "germ8.variety": {
        "text": "ba602949f4a581e6e5adf9ef9eb9ec6b4c4404058302a26d3352c552db9f1681",
        "json": "5e167712d97348889953f1b92eac85228658f03823554a540168e1d8426cecaa",
        "dot": "892bc03d53ab2c7bee205a5d9e4082424abe8ed15719f46816b1ca87657b5576",
    },
    "germ9.complex": {
        "text": "ae3a2a1bc29bd1d0edf4be870464dd02354ac4d81c1db276fffaa59e1084e391",
        "json": "4277df335f2c9659a6dff386660190ce095a5b04b7dfacb7c1c095301fb06b7a",
        "dot": "8f377316a5433d1ccddaf3925a5d378bd07726f1621874870633dbf3d4d9532f",
    },
    "germ9.variety": {
        "text": "ae3a2a1bc29bd1d0edf4be870464dd02354ac4d81c1db276fffaa59e1084e391",
        "json": "4277df335f2c9659a6dff386660190ce095a5b04b7dfacb7c1c095301fb06b7a",
        "dot": "8f377316a5433d1ccddaf3925a5d378bd07726f1621874870633dbf3d4d9532f",
    },
    "klein": {
        "text": "ae272753ab397c0e7e63e9f6fd7ed9b5d9d4f9150a5d43966a00e277f3cf9095",
        "json": "dc6ef42f1469600f2bda769df7b188242a32b46f2f15699b390d1882c67b26d1",
        "dot": "2d4cdec930d5916da2e7b59c1633aa4ce695f0d80ff611909b0a1230cf0fd9b9",
    },
    "moore3": {
        "text": "b7b3eaa0ef400de44e05ed3ba63f6ab199eec7b282777c55df98af7e582a8e71",
        "json": "7a19248399296313bcd4f3bbdd6417f2d0d9b7514d0b506b0236044d8bc7402c",
        "dot": "e081543e1218d1ba652d3b9644b2e4b5850f349904e838083a3e23532de53a31",
    },
    "moore_wedge": {
        "text": "bc40dff02aa81dabdb8b003039c45bc59c660d40e9b3a73735a7f4219d1379f7",
        "json": "2d1fe45e280823e3efe2e9e1fe61fc0f9e76a0da92cb6fc91d44abc98ea30979",
        "dot": "e7b7f67a7781ffcc423a11355f03f93a90dd24f60c834fa9e0e2a55611c06c80",
    },
    "rp2": {
        "text": "83ba19183374ee415fb3d95b076ca8a94413e25aa83a9f4335567adef371a491",
        "json": "b5fb47e61f1ee38b2ed9830635fa5ceb0339875306e916904c9de710fb1d3ce0",
        "dot": "15b01bcee1850292ec60606b2dd4ca9448de1c40059bda6511b8acabdcda7bde",
    },
}


def test_every_input_has_a_pinned_digest():
    assert sorted(DIGESTS) == sorted(DOCUMENTS)


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_dualcomplex_output_matches_its_pinned_digest(name, tmp_path, monkeypatch, capsys):
    assert _digests(DOCUMENTS[name], tmp_path, monkeypatch, capsys) == DIGESTS[name]
