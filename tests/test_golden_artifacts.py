"""Golden artifact digests: every file a fixed set of CLI runs writes, pinned by sha256.

The digests were recorded with the row-at-a-time ``csv.writer`` writers
that preceded the bulk-formatted ones, so a passing run shows the artifact
bytes (CSV dialect, ``%.17g`` floats, row order, JSON layout) are unchanged.
The ``oracle`` case was recorded before the oracle's recursions and rule
bits moved onto the shared backward step and flat node layout; at its N=4
the oracle reports the pair matrix's values, and the per-rule dynamic
programs give the same bits (``test_oracle_routes_agree_bit_for_bit``).
The two benchmark-scale cases (``price`` at N=200, ``replicate`` at N=10)
were recorded before the writers formatted each distinct value once; their
files cross many write blocks.
The one-rate and flat cases (``linear`` and ``zero`` at N=200, the sweep
along ``generator.rate``) were recorded while those generator types still
had their own classes and one-step arithmetic.
"""

import hashlib
import json

import numpy as np
import pytest

from gamehedge import NodeProcess, side_obstacles, write_node_process
from gamehedge.cli import main
from gamehedge.config import build_bundle
from gamehedge.dynkin import _pair_matrix, inf_values_by_maximizer_rule, sup_values_by_minimizer_rule

PUT_SIGMA = {
    "lattice": {"s0": 100.0, "sigma": 0.2, "N": 9, "T": 1.0},
    "generator": {"type": "differential", "r_lend": 0.02, "r_borrow": 0.1},
    "benchmark": {"r_lend": 0.02, "r_borrow": 0.1},
    "contract": {"type": "israeli_put", "strike": 100.0, "penalty": 5.0},
    "party": {"side": "both", "endowment": 0.0},
}

BOND = {
    "lattice": {"s0": 100.0, "u": 1.1, "d": 0.9, "N": 6, "T": 1.0},
    "generator": {"type": "differential", "r_lend": 0.02, "r_borrow": 0.05},
    "benchmark": {"r_lend": 0.02, "r_borrow": 0.05},
    "contract": {"type": "game_bond", "face": 100.0, "coupon": 1.5,
                 "call_penalty": 2.0, "put_discount": 3.0},
    "party": {"side": "both", "endowment": 1.0, "other_endowment": -2.5},
}

# the replicate fixture of test_cli.py, checked against a corrupted hedge
PUT_N2 = {
    "lattice": {"s0": 100.0, "u": 1.2, "d": 0.8, "N": 2, "T": 1.0},
    "benchmark": {"r_lend": 0.0, "r_borrow": 0.0},
    "generator": {"type": "zero"},
    "contract": {"type": "israeli_put", "strike": 100.0, "penalty": 30.0},
    "party": {"side": "hedger", "endowment": 0.0},
}

# lending at zero lets the sweep include the int value 0
PUT_SIGMA_NO_LEND = {**PUT_SIGMA, "generator": {**PUT_SIGMA["generator"], "r_lend": 0.0}}

# the largest lattice the oracle's pair route covers (1024 rules per player);
# out of the money at the root, so neither side's value is a bare penalty
PUT_N4 = {**PUT_SIGMA, "lattice": {**PUT_SIGMA["lattice"], "N": 4},
          "contract": {**PUT_SIGMA["contract"], "strike": 110.0}}

# benchmark scale: the price workload's lattice size, so each node CSV holds
# 20,301 rows and many repeated values
PUT_N200 = {**PUT_SIGMA, "lattice": {**PUT_SIGMA["lattice"], "N": 200},
            "contract": {**PUT_SIGMA["contract"], "strike": 105.0}}

# the one-rate and flat markets of the same put, recorded before the zero and
# linear generator types built the two-rate generator with equal rates
PUT_N200_LINEAR = {**PUT_N200, "generator": {"type": "linear", "rate": 0.05}}
PUT_N200_ZERO = {**PUT_N200, "generator": {"type": "zero"},
                 "benchmark": {"r_lend": 0.0, "r_borrow": 0.0}}
PUT_SIGMA_LINEAR = {**PUT_SIGMA, "generator": {"type": "linear", "rate": 0.05}}

# the verify workload's replication size: each paths.csv has 1024 x 11 rows
CUSTOM_N10 = {
    "lattice": {"s0": 100.0, "u": 1.15, "d": 0.85, "N": 10, "T": 1.0},
    "generator": {"type": "differential", "r_lend": 0.02, "r_borrow": 0.1},
    "benchmark": {"r_lend": 0.02, "r_borrow": 0.1},
    "contract": {"type": "custom", "files": {name: f"{name}.csv"
                                             for name in ("xh", "xc", "xbar", "da")}},
    "party": {"side": "both", "endowment": 2.5, "other_endowment": -5.0},
}


def custom_contract_rows(n):
    """Quarter-grid payoffs and coupons of CUSTOM_N10, by arithmetic on (k, j)."""
    ks = np.repeat(np.arange(n + 1), np.arange(1, n + 2))
    js = np.arange(ks.size) - ks * (ks + 1) // 2
    xc = -10.0 + 0.25 * ((37 * ks + 11 * js + 5) % 81)
    gap = 0.5 + 0.5 * ((3 * ks + 7 * js) % 10)
    xh = xc - gap
    xbar = xh + 0.25 * ((ks + 2 * js) % 5) * gap
    da = np.where(ks < n, -1.0 + 0.5 * ((ks + 3 * js) % 5), 0.0)
    return {"xh": xh, "xc": xc, "xbar": xbar, "da": da}

# name -> (config, argv after --config/--out, expected exit code)
RUNS = {
    "price_put": (PUT_SIGMA, ["price"], 0),
    "regions_put": (PUT_SIGMA, ["regions"], 0),
    "oracle_put": (PUT_N4, ["oracle"], 0),
    "replicate_bond": (BOND, ["replicate"], 0),
    "replicate_bad_hedge": (PUT_N2, ["replicate", "--hedge-csv", "{tmp}/badz.csv"], 5),
    "price_put_n200": (PUT_N200, ["price"], 0),
    "replicate_custom_n10": (CUSTOM_N10, ["replicate"], 0),
    "price_put_n200_linear": (PUT_N200_LINEAR, ["price"], 0),
    "price_put_n200_zero": (PUT_N200_ZERO, ["price"], 0),
    "sweep_rate": (PUT_SIGMA_LINEAR, ["sweep", "--axis", "generator.rate",
                                      "--values", "0.05,0,0.1,0.025"], 0),
    "sweep_r_borrow": (PUT_SIGMA_NO_LEND, ["sweep", "--axis", "generator.r_borrow",
                                           "--values", "0.1,0,0.05,0.125"], 0),
}

GOLDEN = {
    "price_put": {
        "counterparty/Y.csv":
            "acb6bd3a3d233d42c1049cdd773aa18bdb1afaea006df16fbae3499b591c57b9",
        "counterparty/Z.csv":
            "ba353c3cd7e8438fda1458e142a5e24cce2e8fb3b14b1f61c9991f5e8f617e88",
        "counterparty/dL.csv":
            "b3ba67bd5b09bd5f394e82663745e3e4a8ab7f2aa7f4e9d8dfd0195f001b1a96",
        "counterparty/dU.csv":
            "7f0e109f5d2b19ac2121ce82d4bfd0b617ccc85e6999a410d16f18af0f26b8ca",
        "counterparty/region_bar_sigma.csv":
            "bafce9b4a6b36bb12005c1f59687b084edf32ac6fd9cc674c1ccdbd3786e9bd1",
        "counterparty/region_bar_tau.csv":
            "a0765cd7934120fa0bd48798d7b5ff1f4f963a59d7f12788a57a4fa80bb4cc81",
        "counterparty/region_sigma.csv":
            "bafce9b4a6b36bb12005c1f59687b084edf32ac6fd9cc674c1ccdbd3786e9bd1",
        "counterparty/region_tau.csv":
            "d1a9be8375d1ff47dcf62d171d228c4e1f617251d311ece8482cb69500e56395",
        "counterparty/solution.json":
            "fd2173d7d12d970d9160dc2308f7d31c3c9e1a46ebf41e4244ef3170be1adff7",
        "hedger/Y.csv":
            "2e8759b038f2054bee6fea4defe2fe57973d6770ef1babd9d492d73dc9daf285",
        "hedger/Z.csv":
            "138cb216fb562c4717d25cc38c9443c222884d3a19d21d4cf884ea7eb48f9e32",
        "hedger/dL.csv":
            "ed847467ad3b6f9a40d3cb41454378e2868d96545cca3f8811d105272ee28e20",
        "hedger/dU.csv":
            "2337a9da93573c49af6e1f731ab3691743c9b6e7759a8fa17c15bfe9966cf989",
        "hedger/region_bar_sigma.csv":
            "9ca891682e0df6d6d3e9b2263b307caf5590d517c3b1081c1804cae9e8d00709",
        "hedger/region_bar_tau.csv":
            "7c15eda26d110695df73efdbcb5ed471ded1b25a071f8417550f4be12d11882b",
        "hedger/region_sigma.csv":
            "9ca891682e0df6d6d3e9b2263b307caf5590d517c3b1081c1804cae9e8d00709",
        "hedger/region_tau.csv":
            "17e86fe13b10e0ce619662acd3db1a298948d2dc133f060325f673d1855ef86c",
        "hedger/solution.json":
            "2402763c17bfba925d932381eb429a302daae2f6edeb4f458ab0070ea81174ec",
        "quote.json":
            "baba3cfd24392c01e89c144d9ef922eba05e5b82a23f55359c28fe9a9825612f",
    },
    "regions_put": {
        "counterparty/region_bar_sigma.csv":
            "bafce9b4a6b36bb12005c1f59687b084edf32ac6fd9cc674c1ccdbd3786e9bd1",
        "counterparty/region_bar_tau.csv":
            "a0765cd7934120fa0bd48798d7b5ff1f4f963a59d7f12788a57a4fa80bb4cc81",
        "counterparty/region_sigma.csv":
            "bafce9b4a6b36bb12005c1f59687b084edf32ac6fd9cc674c1ccdbd3786e9bd1",
        "counterparty/region_tau.csv":
            "d1a9be8375d1ff47dcf62d171d228c4e1f617251d311ece8482cb69500e56395",
        "hedger/region_bar_sigma.csv":
            "9ca891682e0df6d6d3e9b2263b307caf5590d517c3b1081c1804cae9e8d00709",
        "hedger/region_bar_tau.csv":
            "7c15eda26d110695df73efdbcb5ed471ded1b25a071f8417550f4be12d11882b",
        "hedger/region_sigma.csv":
            "9ca891682e0df6d6d3e9b2263b307caf5590d517c3b1081c1804cae9e8d00709",
        "hedger/region_tau.csv":
            "17e86fe13b10e0ce619662acd3db1a298948d2dc133f060325f673d1855ef86c",
    },
    "oracle_put": {
        "oracle.json":
            "4ec6f2228cf06acedc2828557b2a4a42ca6c4be3c07935d5502279b7bc8fdfe8",
    },
    "replicate_bad_hedge": {
        "paths.csv":
            "feeaba4fc273b4ae2f07d272bdffac4da29d91c500feea86bb6abd0934b1aea4",
        "replicate.json":
            "345c4b50eb8fe1cadf27d091e283736158179dcee1ff167a0895b24a4bf3bc62",
    },
    "replicate_bond": {
        "counterparty/paths.csv":
            "d7bbffe422d17c5a06c194f0b657615c84e10dcfde729c6c3d642d5cc39b29c5",
        "counterparty/replicate.json":
            "ec7acfc39ca445f0caad0307bebb23d0c470c33530a63206ba04712e79b41926",
        "hedger/paths.csv":
            "e41ccfa97c5a93bbdb60241fafef82789c765691ed255d6c2247f675a2bfafea",
        "hedger/replicate.json":
            "ec7acfc39ca445f0caad0307bebb23d0c470c33530a63206ba04712e79b41926",
    },
    "price_put_n200": {
        "counterparty/Y.csv":
            "3438ac5ddc3d47e5fb9ed859fd7a423186c4cf02d5069326b7b691f47b909e03",
        "counterparty/Z.csv":
            "832a17fbffae6632921a6e351234f9f912e498d31361906b0174bc16727c22d4",
        "counterparty/dL.csv":
            "ca5a7e0996dd7c2643f5f69795169d23a98c086d05df5b63ffe53ed955a1796d",
        "counterparty/dU.csv":
            "f13b962d8f54160bd43458bd2e2ef8ce011e94e469a09ac0c336af2d6605d6c2",
        "counterparty/region_bar_sigma.csv":
            "bafce9b4a6b36bb12005c1f59687b084edf32ac6fd9cc674c1ccdbd3786e9bd1",
        "counterparty/region_bar_tau.csv":
            "eebf459c5c5404acae2a53f9954d3837611efe3e9e8d9082795ea1147c55a194",
        "counterparty/region_sigma.csv":
            "bafce9b4a6b36bb12005c1f59687b084edf32ac6fd9cc674c1ccdbd3786e9bd1",
        "counterparty/region_tau.csv":
            "943a6733fd930c26675874b49185020ecc329c2cf290b1a95660543474508a2b",
        "counterparty/solution.json":
            "8ab93d1a77424b0db00f65d2a8232f15e453c4f6458b8aa9f3b5a51c229fd7ad",
        "hedger/Y.csv":
            "18951f1955f9a9d3c18b1f4d59191296df95dd3f1e8d0874f13226f0b167db75",
        "hedger/Z.csv":
            "9775820796389ea2d57834fb14b456cf0ddfde08bac6f9d7633b4f496623b0d5",
        "hedger/dL.csv":
            "e789ef31ea0a3b3148db188819a43f3839113615eea858c0ee6c949828f36f0a",
        "hedger/dU.csv":
            "0fda9368de5a1782d6ef8f7d163073ba81ce15367c9fae2977b481d6ad15e887",
        "hedger/region_bar_sigma.csv":
            "a943f6b9147222db8e428399e09425df463eba0c6c6573cc8a8b674e5d8b124f",
        "hedger/region_bar_tau.csv":
            "dd804e7891bfaf5f3a026966f5a27894ecfe1ce3540be5e29701be6638f50fae",
        "hedger/region_sigma.csv":
            "a943f6b9147222db8e428399e09425df463eba0c6c6573cc8a8b674e5d8b124f",
        "hedger/region_tau.csv":
            "21d15713ff22771d89fbbfd0e5e5bb89ca1167f9d5b6a35ad8c1399d701d3cb4",
        "hedger/solution.json":
            "bd348688970f2a14245323c38d09dba495a5d243d9a412ae4eac0964eb4eca02",
        "quote.json":
            "0a4b650e5cad291e82a082e11b1095ba32818318f38445c4b8ce99599dedf1db",
    },
    "replicate_custom_n10": {
        "counterparty/paths.csv":
            "6586e37bf3ade00d882cf5d2b24fa59b03681cbfea9992c338329c1d4a976970",
        "counterparty/replicate.json":
            "55b717fbe6841a672a152a96fef37b90ac376ec19cd4c8721f3e8119a7c2b7a3",
        "hedger/paths.csv":
            "d62966ac499b9515b4640fecf3800245a5d05acc92d16afb86a4d0931dfd3287",
        "hedger/replicate.json":
            "55b717fbe6841a672a152a96fef37b90ac376ec19cd4c8721f3e8119a7c2b7a3",
    },
    "price_put_n200_linear": {
        "counterparty/Y.csv":
            "9d27e742e719aebcf6e2bc45715c7863f407237654cccc8d38df32519b6aedbd",
        "counterparty/Z.csv":
            "7e411ed2f7154df1c38b44fcc0c76c8af53c72d48f07f678119fcf4620400dc7",
        "counterparty/dL.csv":
            "e5a1cdcab9802a37158d989c78afc2aaa009ec032541c243f7c9b52474a6b4c9",
        "counterparty/dU.csv":
            "4af69e99219d0ad697e389c597905007b7c0ffcdf7bd9367e997e434a42d45e1",
        "counterparty/region_bar_sigma.csv":
            "98134ead285a229df6cb0f3908bcde3dec2afdad7bcc301c3d9c88043db540c7",
        "counterparty/region_bar_tau.csv":
            "c14aec99fd0f3a313894baeb97eb78a86926597050e6af7c16158209bea140e9",
        "counterparty/region_sigma.csv":
            "98134ead285a229df6cb0f3908bcde3dec2afdad7bcc301c3d9c88043db540c7",
        "counterparty/region_tau.csv":
            "913f0a07430ad34e2d72ec5d96adcbb7dc0aed3339d67279ee51ff0e736c4cdb",
        "counterparty/solution.json":
            "e9da781be5a745b4d18d775fb8fee3abd6c1aaf6e9a1441f7ed167722c63063d",
        "hedger/Y.csv":
            "c33e09276ec2dab4288146f3d4e41816b068d6922512cfea4ad963700594a598",
        "hedger/Z.csv":
            "36aaec5b3df8cb463a6ca46a24193f19416e01b689f5e6bfdf46254cdf7ce311",
        "hedger/dL.csv":
            "4af69e99219d0ad697e389c597905007b7c0ffcdf7bd9367e997e434a42d45e1",
        "hedger/dU.csv":
            "e5a1cdcab9802a37158d989c78afc2aaa009ec032541c243f7c9b52474a6b4c9",
        "hedger/region_bar_sigma.csv":
            "98134ead285a229df6cb0f3908bcde3dec2afdad7bcc301c3d9c88043db540c7",
        "hedger/region_bar_tau.csv":
            "c14aec99fd0f3a313894baeb97eb78a86926597050e6af7c16158209bea140e9",
        "hedger/region_sigma.csv":
            "98134ead285a229df6cb0f3908bcde3dec2afdad7bcc301c3d9c88043db540c7",
        "hedger/region_tau.csv":
            "913f0a07430ad34e2d72ec5d96adcbb7dc0aed3339d67279ee51ff0e736c4cdb",
        "hedger/solution.json":
            "b43e1e3b73ea176a83b9fddec005ea583172b9d7d13172ef4d1e8d6b39d8b429",
        "quote.json":
            "4c2f61e7fd95ee7ae97845d6b0e46a07eda1107cbb4fe51b7099f6de3989a96f",
    },
    "price_put_n200_zero": {
        "counterparty/Y.csv":
            "d0a6337f6754f549a564a43f391bbaa1cb5fdb4d9c87a89dc9c6541a54362561",
        "counterparty/Z.csv":
            "4a55efc5e6605ef20e9a7af395ee6f42dd376d0b4a0eefd8b09110825dcfd27c",
        "counterparty/dL.csv":
            "2e1416d0e087711db3d7912f38da6aa76e376ae2d9072bd29dba3e8f3d004a73",
        "counterparty/dU.csv":
            "2147985cc18b189ec600fdf1d899d93b1266f632f0c8d649427a02ead5c1ca92",
        "counterparty/region_bar_sigma.csv":
            "bf8f94e1a461e388f7eb6646b1ea42eabec239d1c9264d11b7dbe392e6d9c0c8",
        "counterparty/region_bar_tau.csv":
            "6711515b69aa80e7bfb89b5b24e55bc8bcbd0fd41db126c239ae698ace928bca",
        "counterparty/region_sigma.csv":
            "bf8f94e1a461e388f7eb6646b1ea42eabec239d1c9264d11b7dbe392e6d9c0c8",
        "counterparty/region_tau.csv":
            "b717ff291c2f9fb67bc36137fd85904697e227cd94abc3964e22281635ccdcdd",
        "counterparty/solution.json":
            "8212d31e5576d7cd000062126d5922ea4e1a23aec6545a231e5d10b6757328fa",
        "hedger/Y.csv":
            "e436bcad86c6d28a1bc8cc55174262907934da14888c6a02e6d4366c60a5e32c",
        "hedger/Z.csv":
            "d319a8ade6ed93610bc92b4fe29ebf4a09a1c2355d8ff5c0c5f86e7177bdd589",
        "hedger/dL.csv":
            "2147985cc18b189ec600fdf1d899d93b1266f632f0c8d649427a02ead5c1ca92",
        "hedger/dU.csv":
            "2e1416d0e087711db3d7912f38da6aa76e376ae2d9072bd29dba3e8f3d004a73",
        "hedger/region_bar_sigma.csv":
            "bf8f94e1a461e388f7eb6646b1ea42eabec239d1c9264d11b7dbe392e6d9c0c8",
        "hedger/region_bar_tau.csv":
            "6711515b69aa80e7bfb89b5b24e55bc8bcbd0fd41db126c239ae698ace928bca",
        "hedger/region_sigma.csv":
            "bf8f94e1a461e388f7eb6646b1ea42eabec239d1c9264d11b7dbe392e6d9c0c8",
        "hedger/region_tau.csv":
            "b717ff291c2f9fb67bc36137fd85904697e227cd94abc3964e22281635ccdcdd",
        "hedger/solution.json":
            "6eb52059a23dee2a23e352ed321b36eb7a9ba9dc8cf9adf417310580fb531a96",
        "quote.json":
            "d62cd6bb87353e4c967354a7e8f183dd7d48be814cc28adb0c128e9fb5d0d703",
    },
    "sweep_rate": {
        "sweep.csv":
            "d055eb63e10735e7546d28ec55c66ac0d8a83b52089fc790d3758f68b2531cea",
    },
    "sweep_r_borrow": {
        "sweep.csv":
            "2535a01acebfa6d79e778ef8cdd989995c876a31aad79e414d9b191121a44726",
    },
}


def run_digests(name, tmp_path):
    """Run one golden case; return its exit code and {relative path: sha256}."""
    cfg, argv, _ = RUNS[name]
    write_node_process(
        NodeProcess.from_rows([np.array([9.0]), np.zeros(2), np.zeros(3)]),
        tmp_path / "badz.csv",
    )
    for name, flat in custom_contract_rows(CUSTOM_N10["lattice"]["N"]).items():
        write_node_process(NodeProcess(flat), tmp_path / f"{name}.csv")
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    code = main(argv[:1] + ["--config", str(cfg_path), "--out", str(out)] + argv[1:])
    digests = {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*")) if p.is_file()
    }
    return code, digests


@pytest.mark.parametrize("name", sorted(RUNS))
def test_artifacts_match_golden_digests(name, tmp_path):
    code, digests = run_digests(name, tmp_path)
    assert code == RUNS[name][2]
    assert digests == GOLDEN[name]


def test_oracle_routes_agree_bit_for_bit():
    # the per-rule dynamic programs alone give the pair matrix's game values, so the
    # route the oracle takes does not change the bytes of oracle_put's oracle.json
    bundle = build_bundle(PUT_N4)
    for side in ("hedger", "counterparty"):
        game = side_obstacles(bundle.contract, bundle.views[side], bundle.gen, bundle.lat)
        pairs = _pair_matrix(game)
        assert (sup_values_by_minimizer_rule(game).min().tobytes()
                == pairs.max(axis=1).min().tobytes())
        assert (inf_values_by_maximizer_rule(game).max().tobytes()
                == pairs.min(axis=0).max().tobytes())
