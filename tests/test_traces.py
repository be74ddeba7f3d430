"""Pinned resampling traces: the sha256 of `mt` stdout on fixed formulas.

The small-formula digests were recorded from the object-per-literal formula
model, and the (9,22,100) ones while events were still sets of (variable,
value) atoms.  Any later change to how formulas are stored, parsed or
turned into events, or to how the resampling loop tests them, must leave
every trace byte-identical: the same draws, the same selections, the same
printed assignment.
"""

import contextlib
import hashlib
import io
import json
import random

import pytest

from satlll.cli import main


def _random_dimacs(seed: int, k: int, m: int, n_clauses: int) -> str:
    rng = random.Random(seed)
    clauses = [[v if rng.random() < 0.5 else -v for v in rng.sample(range(1, m + 1), k)]
               for _ in range(n_clauses)]
    return f"p cnf {m} {n_clauses}\n" + "".join(
        " ".join(map(str, c)) + " 0\n" for c in clauses)


def _stdout(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


EXTREMAL = {"extremal-3-2-4": (3, 2, 4), "extremal-3-3-6": (3, 3, 6),
            "extremal-2-2-10": (2, 2, 10)}
RANDOM = {"random-3sat": (11, 3, 40, 100), "random-4sat": (12, 4, 30, 150),
          "random-2sat": (13, 2, 40, 30)}
RULES = ("first-index", "uniform-random", "lowest-probability")
# The 4200-clause extremal formula; its first-index traces are pinned by the
# benchmark's reference digests.
LARGE = {"extremal-9-22-100": (9, 22, 100)}
LARGE_RULES = ("uniform-random", "lowest-probability")
SEEDS = (0, 7)
LIMIT = ("--max-steps", "20000")

DIGESTS = {
    "extremal-3-2-4 first-index 0 tsv":
        "a47b3043dabc84309fcc2ed6c542b861439ab4bf0c3e253e3fe746401d5e3d5a",
    "extremal-3-2-4 first-index 0 json":
        "e39c8b02413cdea7caa06f2532ac2431fcfc5ea4dbe04db86b96103a2350a285",
    "extremal-3-2-4 first-index 7 tsv":
        "6fcf6201c15d48e49ba284d6bf99cbbcd1713b4229613452ab666d452af3235e",
    "extremal-3-2-4 first-index 7 json":
        "9818d771a81fdcefcc9c80eb0eb161ae2a428c47685be285d64603b28efe2020",
    "extremal-3-2-4 uniform-random 0 tsv":
        "a47b3043dabc84309fcc2ed6c542b861439ab4bf0c3e253e3fe746401d5e3d5a",
    "extremal-3-2-4 uniform-random 0 json":
        "084da31c142223ed3392c81759cac0ca2839f66c504e5b02dfde6ecce5a43cd0",
    "extremal-3-2-4 uniform-random 7 tsv":
        "6fcf6201c15d48e49ba284d6bf99cbbcd1713b4229613452ab666d452af3235e",
    "extremal-3-2-4 uniform-random 7 json":
        "3138087cea7156b2e6d80b67036cd8ac1cc26b571e990e06bf756865a0353b74",
    "extremal-3-2-4 lowest-probability 0 tsv":
        "a47b3043dabc84309fcc2ed6c542b861439ab4bf0c3e253e3fe746401d5e3d5a",
    "extremal-3-2-4 lowest-probability 0 json":
        "8e4d6e990afa744086b764c0ce8b1fce2ec6cd89ff56febf42cbaa6806efcf0f",
    "extremal-3-2-4 lowest-probability 7 tsv":
        "6fcf6201c15d48e49ba284d6bf99cbbcd1713b4229613452ab666d452af3235e",
    "extremal-3-2-4 lowest-probability 7 json":
        "664ede68d173e3a1638fc302ad85b869ac5b35b6445c9d328d4ea58a67aa6108",
    "extremal-3-3-6 first-index 0 tsv":
        "e9eccd3ff0c79dd62e11a14b65e98f7ea58bc4291691149e667f8cf7400f1ff4",
    "extremal-3-3-6 first-index 0 json":
        "b38bb6285a4f921efadd2ed471d162c20024f474cada41f7f55d2e813e87ed87",
    "extremal-3-3-6 first-index 7 tsv":
        "6fb3b825c286f18d608d2966362ab44922c0d9f6f7db8351db87378519e93848",
    "extremal-3-3-6 first-index 7 json":
        "4546570741e551338b4047406e2d0d4a2fb1e4e3e0b7162e7a0a486ab6d00a64",
    "extremal-3-3-6 uniform-random 0 tsv":
        "e9eccd3ff0c79dd62e11a14b65e98f7ea58bc4291691149e667f8cf7400f1ff4",
    "extremal-3-3-6 uniform-random 0 json":
        "e281b60fca29509b4ba893036b3c0926116274b02dbeca9eb37055e2ab3d5d1e",
    "extremal-3-3-6 uniform-random 7 tsv":
        "6fb3b825c286f18d608d2966362ab44922c0d9f6f7db8351db87378519e93848",
    "extremal-3-3-6 uniform-random 7 json":
        "25a77865f941590d619c419a24fa34eeee9acf0caa4a283274478f3b8cbc5ef4",
    "extremal-3-3-6 lowest-probability 0 tsv":
        "e9eccd3ff0c79dd62e11a14b65e98f7ea58bc4291691149e667f8cf7400f1ff4",
    "extremal-3-3-6 lowest-probability 0 json":
        "d21af08f724d8163bec5941d35652fef688291b65499fd2a0cc09b5b0927c24e",
    "extremal-3-3-6 lowest-probability 7 tsv":
        "6fb3b825c286f18d608d2966362ab44922c0d9f6f7db8351db87378519e93848",
    "extremal-3-3-6 lowest-probability 7 json":
        "49b839f228b0f7a50f16349d00f56af9f9123f21ddce6fe1d6ae4d4525e2c5f0",
    "extremal-2-2-10 first-index 0 tsv":
        "27dd56b8d8b70b7c56f5336e152d16043ebd8ab7da152981fb143e0d81445ab1",
    "extremal-2-2-10 first-index 0 json":
        "28162edbc010350c2c15e17806938ada00ee450c84322e9ef4d0dc36c615f0a5",
    "extremal-2-2-10 first-index 7 tsv":
        "0cfdb07a88d2cf6ae96ec654b5fd32b786b308f135b7c467d42e71c10394d190",
    "extremal-2-2-10 first-index 7 json":
        "d13ccf3bb738066711f343186ff9b4f39f8f3d3d22dcc69edc83f20a6768d253",
    "extremal-2-2-10 uniform-random 0 tsv":
        "de544f2760a96db2f4b02fb3d606ccb83572106117a6eab3bf92437881d8dd4b",
    "extremal-2-2-10 uniform-random 0 json":
        "5b9ee86193d5e53e191c0faaf479a470519785c0c01aa1964255da9f15bb5609",
    "extremal-2-2-10 uniform-random 7 tsv":
        "7f8285f59354023e7e17671ac7736293608dd5d89d4eda866b97b523cd081df3",
    "extremal-2-2-10 uniform-random 7 json":
        "ec57b26e98c09585c757865036ada9afc192f421f380fdd360ef597a1c4afec5",
    "extremal-2-2-10 lowest-probability 0 tsv":
        "27dd56b8d8b70b7c56f5336e152d16043ebd8ab7da152981fb143e0d81445ab1",
    "extremal-2-2-10 lowest-probability 0 json":
        "1711dedcc6c8b0420ad3b03044be738ce9a9a638162bbbd3c9e782bb72c6aeef",
    "extremal-2-2-10 lowest-probability 7 tsv":
        "0cfdb07a88d2cf6ae96ec654b5fd32b786b308f135b7c467d42e71c10394d190",
    "extremal-2-2-10 lowest-probability 7 json":
        "3294308fe94e9ecf833e02f960720ad7e84a41a9e3776d7673dba9081ea37c63",
    "random-3sat first-index 0 tsv":
        "b532660a3f69bf44cc0aa6347afc768b02a606116e143a5218973988c9fabed0",
    "random-3sat first-index 0 json":
        "1b564921b1c631d6a92571ef03972f8aeb7c356e2294564d1c91d2305ff0c1c4",
    "random-3sat first-index 7 tsv":
        "97692cd5bd086656e9acd3d1447b9b10f05b5fc71dc47b883a778c9377b4ebbc",
    "random-3sat first-index 7 json":
        "85615a14716274131388dce40a2d730c67650f489dd71eb35aebb54bc44b24a3",
    "random-3sat uniform-random 0 tsv":
        "aa4f0a777a60557ec9d8ca3f2ee25254a2a8aae44d235e35c2cdf2e980c0d3a2",
    "random-3sat uniform-random 0 json":
        "3553b8dd41da4736827f99f7fcb4c2c69f240d55aec426ec9c6f4663791207b2",
    "random-3sat uniform-random 7 tsv":
        "69ff9694d6b154fe5ca813df305730894e8264e46c01d529c67098a4857a7eb3",
    "random-3sat uniform-random 7 json":
        "43f866b935c1430366c3444b3f798271209021b5fe2ab582b435199f43794dd3",
    "random-3sat lowest-probability 0 tsv":
        "b532660a3f69bf44cc0aa6347afc768b02a606116e143a5218973988c9fabed0",
    "random-3sat lowest-probability 0 json":
        "fe51d5f5fcceb8b377b739ed9f4cf2d323adf9df1f451862947c7346fe86f23a",
    "random-3sat lowest-probability 7 tsv":
        "97692cd5bd086656e9acd3d1447b9b10f05b5fc71dc47b883a778c9377b4ebbc",
    "random-3sat lowest-probability 7 json":
        "f871e4a098d6c021545142e052079717adf15717f432573d512ebc3c3a94f47c",
    "random-4sat first-index 0 tsv":
        "05375d1417eeb5f7ee8854251f80cf42024203b81e8deda04a9930a0e756b1e4",
    "random-4sat first-index 0 json":
        "03385d153c11deca75f884a12a90b090e50d634dc63cc1e58abc4b8bd41235af",
    "random-4sat first-index 7 tsv":
        "c4a7e0e19903baa5ddae32cc2f7ef3e54c927561074cf1fb0021818d78b81adb",
    "random-4sat first-index 7 json":
        "5a2705b79406240e81ee27cbeb81ec00c6f5807e2adebdfa834058a6c8782014",
    "random-4sat uniform-random 0 tsv":
        "bd5ad85035744905060f782f9b5f256097c52515030f723e39ff929a6d42044f",
    "random-4sat uniform-random 0 json":
        "9616d1caab2aadcac9a5b8563457022bc3950f714e71546a6d252de0d8e95af2",
    "random-4sat uniform-random 7 tsv":
        "6bfde2687e19f37245ee43a53dcaa36e85d7ef792c0048f6dfe10a0bdc1abf65",
    "random-4sat uniform-random 7 json":
        "e92f8692dbb306f84c2f54984fb72fedc66176948ede106e8ae2a529ef66b014",
    "random-4sat lowest-probability 0 tsv":
        "05375d1417eeb5f7ee8854251f80cf42024203b81e8deda04a9930a0e756b1e4",
    "random-4sat lowest-probability 0 json":
        "63da19141c82db3666225058048c7d93f864167575a7e649b2c8394cb39da942",
    "random-4sat lowest-probability 7 tsv":
        "c4a7e0e19903baa5ddae32cc2f7ef3e54c927561074cf1fb0021818d78b81adb",
    "random-4sat lowest-probability 7 json":
        "6bb726bbdb1770d2c501e7c5270153af85136d9326b17fb087023962a6ceac14",
    "random-2sat first-index 0 tsv":
        "cd02d21c338de5ebefe11278a4426d50482322552654f6608124d6f5f4760b31",
    "random-2sat first-index 0 json":
        "0c5524b0abffc4dc187219d8a3cbb70809a218da80ebca8064974e836f0bc535",
    "random-2sat first-index 7 tsv":
        "306f31a5ddb687f318a6f4de97a447399bf6540af35cef438f0a99d05dbb5c81",
    "random-2sat first-index 7 json":
        "5f497a9bb49ae7cfde8188e2af2a642760495eab52ef6665072bd02ffeefc4e0",
    "random-2sat uniform-random 0 tsv":
        "326e48a21a4fea0f3f8f3d39cebdd5fbff0b47955a57afbc5996c3ef0b88816c",
    "random-2sat uniform-random 0 json":
        "bd11bdc14c2d109afb5e2d28bb7385c4e69156eaf1cb785357a8f235a3669b5a",
    "random-2sat uniform-random 7 tsv":
        "4b817e86bb35cf87f70e4e1811ba8fb40c7ae92b5f426828a0d1f952a31458a4",
    "random-2sat uniform-random 7 json":
        "567fe36f41fd59895a894f5497e0c74f7b5cb1b925b646b45092f14ef4727790",
    "random-2sat lowest-probability 0 tsv":
        "cd02d21c338de5ebefe11278a4426d50482322552654f6608124d6f5f4760b31",
    "random-2sat lowest-probability 0 json":
        "41d6b08161972c74786e40fa25e56612982a024b9bdb0047694d9aefef5fd3de",
    "random-2sat lowest-probability 7 tsv":
        "306f31a5ddb687f318a6f4de97a447399bf6540af35cef438f0a99d05dbb5c81",
    "random-2sat lowest-probability 7 json":
        "cafea7a42b0ba6bfd3fb1541e9538c7018afe3780208a0d84655291ed0679205",
    "extremal-9-22-100 uniform-random 0 tsv":
        "1c46c9a134dbf503919dda9ae68f8d4196a1ca30a6b27aff1d31e8f063f24c93",
    "extremal-9-22-100 uniform-random 0 json":
        "67a97d3fcfa7363d46e4e709eeea6b4d046b7a2d726f6a6cd6a48a13b9750acc",
    "extremal-9-22-100 uniform-random 7 tsv":
        "3222204275cc420cc075fbb56fa481ac7373b8491522ead44b633653b152ac73",
    "extremal-9-22-100 uniform-random 7 json":
        "7c2ecbb8ae679d05be7be7a75cbf172d50c137226bb82ad5f272105a507646b4",
    "extremal-9-22-100 lowest-probability 0 tsv":
        "8d36ea85f4211bd3c9830621a3020c7a1e24f4e1f6fdcdfbb131367465241086",
    "extremal-9-22-100 lowest-probability 0 json":
        "fce9df83a6e4d0aa8fc19ffc8e9634a73abb3b7f9ca67469232727dfa2946168",
    "extremal-9-22-100 lowest-probability 7 tsv":
        "6469463212c606c3a224a28ad8cadd9e387c495291dcea81089b935af71aa82b",
    "extremal-9-22-100 lowest-probability 7 json":
        "025244794fd20004613f694a24088b7f10fb0ff2eb046517279039bfba924dbf",
}


@pytest.fixture(scope="module")
def formulas(tmp_path_factory):
    directory = tmp_path_factory.mktemp("traces")
    paths = {}
    for name, (k, L, r) in {**EXTREMAL, **LARGE}.items():
        paths[name] = directory / f"{name}.cnf"
        paths[name].write_text(_stdout("construct", "--k", str(k), "--L", str(L),
                                       "--r", str(r)))
    for name, spec in RANDOM.items():
        paths[name] = directory / f"{name}.cnf"
        paths[name].write_text(_random_dimacs(*spec))
    return paths


def _check_traces(path, name, rules):
    for rule in rules:
        for seed in SEEDS:
            for output_format in ("tsv", "json"):
                out = _stdout("--format", output_format, "mt", "--cnf", str(path),
                              "--rule", rule, "--seed", str(seed), *LIMIT)
                key = f"{name} {rule} {seed} {output_format}"
                assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[key], key


@pytest.mark.parametrize("name", [*EXTREMAL, *RANDOM])
def test_mt_traces_are_pinned(formulas, name):
    _check_traces(formulas[name], name, RULES)


@pytest.mark.parametrize("name", LARGE)
def test_large_mt_traces_are_pinned(formulas, name):
    _check_traces(formulas[name], name, LARGE_RULES)


@pytest.mark.parametrize("name", [*EXTREMAL, *RANDOM, *LARGE])
def test_lowest_probability_is_first_index_on_a_formula(formulas, name):
    # Every clause of a formula has probability 2^-k, so the two rules pick alike.
    for seed in SEEDS:
        run = {rule: {output_format: _stdout("--format", output_format, "mt", "--cnf",
                                             str(formulas[name]), "--rule", rule,
                                             "--seed", str(seed), *LIMIT)
                      for output_format in ("tsv", "json")}
               for rule in ("first-index", "lowest-probability")}
        assert run["lowest-probability"]["tsv"] == run["first-index"]["tsv"], (name, seed)
        lowest = json.loads(run["lowest-probability"]["json"])
        assert lowest["stats"].pop("rule") == "lowest-probability"
        first = json.loads(run["first-index"]["json"])
        assert first["stats"].pop("rule") == "first-index"
        assert lowest == first, (name, seed)
