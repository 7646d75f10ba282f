"""Golden CLI outputs, pinned before the theorem table replaced the per-module
dispatch; the csv and text cases, the missing-flag errors, ``specfun`` and
``sweep`` were pinned before one renderer and the printed-set table replaced
the per-command format branches.  Each case pins the sha256 of stdout and of
stderr and the exit code; a change to any of them is a behaviour change and
must be declared as one.

``verify-I1``, ``verify-I2`` and the sweep's JSON report were re-pinned when
homogeneous targets moved to the border mesh: their cert_worst_margin, the
rounding noise of a passing s = m = 1 certification, moved.  The sweep's JSON
report was re-pinned again when homogeneous targets came to be certified once
per reduced problem: passing certifications report the reduced problem's worst
margin, scaled, so noise values moved.

``reductions-default-grids`` and the slow-lane adjudication digests were
pinned before each interval's integrals came to run in one batch: they cover
the default grids (s = 0.25 and 0.75, q = 1.5 and 3), which the other
reductions cases do not.

The uncertified searches pin what the CLI cannot reach: the order of the
random draws, the per-theorem overrides and the shrink toward the boundary.
"""

import hashlib
import json
import random

import pytest

from hhkit.cli import main
from hhkit.harness import search_counterexample

EMPTY = hashlib.sha256(b"").hexdigest()

V = ["verify", "--family", "pow", "--a", "1", "--b", "2", "--format", "json"]
C = ["coeffs", "--a", "1", "--b", "2"]
SET_FLAGS = {"lambda": [], "mu": ["--q", "2"], "c": ["--s", "0.5"], "rho": ["--s", "0.5", "--q", "2"],
             "nu": ["--s", "0.5", "--q", "2"]}
SPECFUN = {"2f1": ["--fn", "2f1", "--a", "1", "--b", "1.5", "--c", "2.5", "--z", "0.3"],
           "beta": ["--fn", "beta", "--x", "1.5", "--y", "0.5"]}

CASES = {
    "verify-HH": V + ["--theorem", "HH"],
    "verify-HarmHH": V + ["--theorem", "HarmHH", "--exp", "3"],
    "verify-II1": V + ["--theorem", "II1", "--s", "0.5", "--m", "0.8"],
    "verify-Lemma": V + ["--theorem", "Lemma", "--exp", "3"],
    "verify-I1": V + ["--theorem", "I1", "--q", "1.5"],
    "verify-I2": V + ["--theorem", "I2", "--q", "2"],
    "verify-FS1": V + ["--theorem", "FS1", "--s", "0.5", "--q", "1.5"],
    "verify-FS2": V + ["--theorem", "FS2", "--s", "0.5", "--q", "2"],
    "verify-II2": V + ["--theorem", "II2", "--s", "0.5", "--m", "0.8", "--q", "2"],
    "verify-II3": V + ["--theorem", "II3", "--s", "0.25", "--m", "0.8", "--q", "1.5", "--exp", "3"],
    "verify-II4": V + ["--theorem", "II4", "--s", "0.5", "--m", "0.8", "--q", "3"],
    "verify-II2-s0": V + ["--theorem", "II2", "--s", "0", "--m", "0.5", "--q", "1"],
    "verify-II4-csv": V[:-1] + ["csv", "--theorem", "II4", "--s", "0.5", "--m", "0.8", "--q", "2"],
    "verify-II2-text": V[:-2] + ["--theorem", "II2", "--s", "0.5", "--m", "0.8", "--q", "2"],
    "verify-spiece-sexp-default": ["verify", "--theorem", "II1", "--family", "spiece", "--b0", "1",
                                   "--c0", "0", "--s", "0.5", "--m", "1", "--a", "1", "--b", "2",
                                   "--format", "json"],
    "verify-spiece-sexp": ["verify", "--theorem", "II1", "--family", "spiece", "--b0", "2", "--c0", "0.5",
                           "--a0", "1", "--sexp", "0.75", "--s", "0.5", "--a", "1", "--b", "3",
                           "--format", "json"],
    "verify-recip": ["verify", "--theorem", "HarmHH", "--family", "recip", "--a", "1", "--b", "2",
                     "--format", "json"],
    "verify-affine": ["verify", "--theorem", "HH", "--family", "affine", "--slope", "2", "--intercept", "1",
                      "--a", "1", "--b", "2", "--format", "json"],
    "verify-exp": ["verify", "--theorem", "II2", "--family", "exp", "--scale", "0.5", "--s", "1", "--q", "2",
                   "--a", "1", "--b", "2", "--format", "json"],
    "verify-certification-failure": V + ["--theorem", "II1", "--coeff", "-1"],
    "verify-parameter-error-FS1-m": V + ["--theorem", "FS1", "--m", "0.5", "--s", "0.5"],
    "verify-parameter-error-FS1-s0": V + ["--theorem", "FS1", "--s", "0"],
    "verify-parameter-error-I1-s": V + ["--theorem", "I1", "--s", "0.5"],
    "verify-parameter-error-II4-q": V + ["--theorem", "II4", "--q", "1"],
    **{f"search-{t}": ["search", "--theorem", t, "--budget", "4", "--seed", "7", "--format", "json"]
       for t in ("HH", "HarmHH", "II1", "I1", "I2", "FS1", "FS2", "II2", "II3", "II4")},
    **{f"reductions-{fmt}": ["reductions", "--a", "1", "--b", "2.5", "--s-grid", "0", "0.5", "1",
                             "--q-grid", "1", "2", "--format", fmt]
       for fmt in ("json", "csv", "text")},
    "reductions-default-grids": ["reductions", "--a", "0.7", "--b", "5.3", "--format", "json"],
    "coeffs-lambda": ["coeffs", "--set", "lambda", "--a", "1", "--b", "2", "--format", "json"],
    "coeffs-mu": ["coeffs", "--set", "mu", "--q", "2", "--a", "1", "--b", "2", "--format", "json"],
    "coeffs-c": ["coeffs", "--set", "c", "--s", "0.5", "--a", "1", "--b", "2", "--format", "json"],
    "coeffs-rho": ["coeffs", "--set", "rho", "--s", "0.5", "--q", "2", "--a", "1", "--b", "2",
                   "--format", "json"],
    "coeffs-nu": ["coeffs", "--set", "nu", "--s", "0.5", "--q", "2", "--a", "1", "--b", "2",
                  "--format", "json"],
    **{f"coeffs-{name}-{fmt}": C + ["--set", name, *flags, "--format", fmt]
       for name, flags in SET_FLAGS.items() for fmt in ("csv", "text")},
    **{f"coeffs-missing-{name}": C + ["--set", name] for name in ("mu", "c", "rho", "nu")},
    "coeffs-missing-rho-q": C + ["--set", "rho", "--s", "0.5"],
    "verify-Lemma-csv": V[:-1] + ["csv", "--theorem", "Lemma", "--exp", "3"],
    "verify-Lemma-text": V[:-2] + ["--theorem", "Lemma", "--exp", "3"],
    "verify-II1-csv": V[:-1] + ["csv", "--theorem", "II1", "--s", "0.5", "--m", "0.8"],
    "verify-II1-text": V[:-2] + ["--theorem", "II1", "--s", "0.5", "--m", "0.8"],
    **{f"search-II1-{fmt}": ["search", "--theorem", "II1", "--budget", "4", "--seed", "7", "--format", fmt]
       for fmt in ("csv", "text")},
    **{f"specfun-{fn}-{fmt}": ["specfun", *flags, "--format", fmt]
       for fn, flags in SPECFUN.items() for fmt in ("json", "csv", "text")},
}

GOLDEN = {
    "verify-HH": (0, "d6f83fb6b616b6660aed697e319e1cb42cf44a765574ff75cd8a62f6666add6d", EMPTY),
    "verify-HarmHH": (0, "f9eb771d76485c1fd7e426bcefa6b7c633302996871b5da861babc4ad581cdc6", EMPTY),
    "verify-II1": (0, "01ccf64138c267c0c493ed6777873cde4dd4a5869c2bb7431647ac1a3ad844f6", EMPTY),
    "verify-Lemma": (0, "fa64611e3c629e3ff947e528e23319ce7fc0cae583b2d3a165a145a1aee93fe3", EMPTY),
    "verify-I1": (0, "69a0bcdf7705111167b7029c57f0f4fed73dda32b88477d5e1305b6cd8ee8dfd", EMPTY),
    "verify-I2": (0, "e50399aed33aef3a8e3f65e6d65a3e6becf2035bcc426ca6bce012fe3d77c4e4", EMPTY),
    "verify-FS1": (0, "a92d1b766a23fcc308d09798a2c9be4df3d68135636fdd70800cdbf4d193cbfc", EMPTY),
    "verify-FS2": (0, "6824b009a1f516462ed0514eca5d4890e565fcfc467f14be064cf7431bb48e0d", EMPTY),
    "verify-II2": (0, "b1f176f4e731ef90ce1e08c9c613019acaa5f43d7711283102de996eb6940ecd", EMPTY),
    "verify-II3": (0, "9847f08f97c4a2a699cf4afcdbf76718861d66cf3f344af1c19891c457a7797e", EMPTY),
    "verify-II4": (0, "dc46346d7f419f30b0ac5307c75085afe1522238a56945227152f6dcc5c7c15f", EMPTY),
    "verify-II2-s0": (0, "cbc947db0427f5db3ad58ff9359fee9f7c6f157f309280e65fcf3429bee47090", EMPTY),
    "verify-II4-csv": (0, "588577ca71c3157f1b9d231b732ccf5df37d0a2f22081b32a338f72822b87538", EMPTY),
    "verify-II2-text": (0, "ddf32c46057167bd94c638c4a909fb1c141ece3149bcd0cc7459c411b8f866a0", EMPTY),
    "verify-spiece-sexp-default": (0, "e056524e585e8a9c96293c6ecd9658dda4eefd2533a643c6de08c7e16937c368", EMPTY),
    "verify-spiece-sexp": (0, "c721deb126f7c12cee854a1060170d748d822c5fbe1adcd0af787299bd1d5dd9", EMPTY),
    "verify-recip": (0, "01c769cba47557eff0ed4bc311eb9f1ae197f2723a2221164e1c86e3a90933e7", EMPTY),
    "verify-affine": (0, "0973e7c515c65cc56f252f58b86860a0b3986af037c023be14161c58591ec993", EMPTY),
    "verify-exp": (0, "ca49eea6772dce941af0ac26f52f8c13057349fbfcd153d3127e472d0f34c61a", EMPTY),
    "verify-certification-failure": (1, EMPTY, "08f5abc465d954812525a619b70f15214b017763b38827a0ae5b08d8aaad011d"),
    "verify-parameter-error-FS1-m": (2, EMPTY, "c42430e7db3f30aa2dd85578f3b1af9b4b7d1a7f94a25397b3bfcf7a16e83699"),
    "verify-parameter-error-FS1-s0": (2, EMPTY, "6d9a651ba4592effe6f2c6b742c2b0187c5c94e2c1d770214284a11e46b59cc5"),
    "verify-parameter-error-I1-s": (2, EMPTY, "99d6bf3cd5955a8c33eb2d9e62487071c919a717ce71a6255c9db89e6cc1a60a"),
    "verify-parameter-error-II4-q": (2, EMPTY, "daed107945fea55eb71d33afbf6ff439e0c068d769e6fbc2c70b37888f0af608"),
    "search-HH": (0, "96cd03c1861430b435b2a190c6c6e1b926437b173e20207e29861372001c8c41", EMPTY),
    "search-HarmHH": (0, "8e069605baa19d523e12898ce5c7be98cfa201ec84d43d0ef08f713a89cdc9aa", EMPTY),
    "search-II1": (0, "af4f50e6086bb515edf5f74c419e2c84b658232e9a307e9d68fab60ce17c910c", EMPTY),
    "search-I1": (0, "a0c6455b99b913399e8282d7b5263d9bc5c457adcf4dd7a1ab0e8a5f959fc465", EMPTY),
    "search-I2": (0, "d87508c351533d363bd1ea5bee02bd44da8d85d459a044849110c4a8c441ac13", EMPTY),
    "search-FS1": (0, "0fe1ef4813bb9cc5feae34c041d8f7345d443f19b6ccbdef3050dd128d34e52a", EMPTY),
    "search-FS2": (0, "e33154cb63e0d60178cf5afdcaf305d59b3efbf02d8742c5c88f812d0b6c1559", EMPTY),
    "search-II2": (0, "fb60bf62592496f2842cb0e27ac04de324094644e7ad92d2a335d85681fc409c", EMPTY),
    "search-II3": (0, "22002efcfb0403f5857386aa37fd12a71301d89341333307c89d5a64e9849120", EMPTY),
    "search-II4": (0, "94e3dc0817fc3c30bb759f369a927e47d8d3c9bb0ef30aedd85b6f2b4436040a", EMPTY),
    "reductions-json": (0, "0a8d00cfe900ece711d1762361513859175fc966f06ff60a19b124b99532ae10", EMPTY),
    "reductions-csv": (0, "895026e9561dbf86fb2d6a32fbbb8706005a18804796963a287ec7b7871b5271", EMPTY),
    "reductions-text": (0, "2349aa53edafa746c2817d29062cbd100c282a2e77cf6d4e16fd61292ccffe6f", EMPTY),
    "reductions-default-grids": (0, "dc6564569687cb889cdfd8f27b639bddedf39ee41b380a59cea812c7cbeb9406", EMPTY),
    "coeffs-lambda": (0, "ebc51c0d318c665507b6d9c8d4c8ba88493dfe89998710f2180e1954cb8365a6", EMPTY),
    "coeffs-mu": (0, "a8dacbea989ebc9c02e201e4a6e68680613ab0ad9c23a83e8ca832543f6fd95b", EMPTY),
    "coeffs-c": (0, "09ca65cb9e9868d77dca2e1f17e30dbd5ae72a2dc9090d56ad033abc7123d40f", EMPTY),
    "coeffs-rho": (0, "64e6e692a9d47d45898f9d70e7ced5a9189fcc9d64a59e58e6d2cbfd03e091fc", EMPTY),
    "coeffs-nu": (0, "ef67581ffdca84bb4957d8567f08edb619d3b669751b246b60b2c3bfb69a48af", EMPTY),
    "coeffs-lambda-csv": (0, "85e1d76a6ca5b28972fc07cfeaa4bb868708089cdf95248831a9941d586c80af", EMPTY),
    "coeffs-lambda-text": (0, "cd95de6638576c8a71ad88c6c2c01eb5cee6b2412adda3f10441175a3b6b78bf", EMPTY),
    "coeffs-mu-csv": (0, "97ac6efb2aa375ef6cabae899bc6e0252a5b302d5e27f491a2fd051c11ac04b7", EMPTY),
    "coeffs-mu-text": (0, "e2322ba20409bef89c402db529f7f55c531eecba8f3810697df47b247610880b", EMPTY),
    "coeffs-c-csv": (0, "a98fa64bf7dc94f04697928616d2ccb0ae191fa9c7e2fa7e72953db5de82f5bd", EMPTY),
    "coeffs-c-text": (0, "22c1d4ab5ab712ee573f9fb328880e20e09d8d35b631c1ff2e553da19dabe929", EMPTY),
    "coeffs-rho-csv": (0, "bde955d7fc414d1c567c7cab32d3a85f6e102ca19742cd2f9637a1c7a0da0edd", EMPTY),
    "coeffs-rho-text": (0, "ff250490409709fa00db5a61b32503a4eb07126e1a0eeb8fac072a0cf14f3ac9", EMPTY),
    "coeffs-nu-csv": (0, "f0d63b4eccd5fc943c91f90820bb92900ed492c5ea880e3b5615a030c2347178", EMPTY),
    "coeffs-nu-text": (0, "1fd5b4e98c63c9a0f86ee54198d32cd32475509432799dbac9218a9a002c95ca", EMPTY),
    "coeffs-missing-mu": (2, EMPTY, "37f00d2813c8de03ddda90f6b27600b3eaef428914c6c402a3ff6515e43baa30"),
    "coeffs-missing-c": (2, EMPTY, "61ec1c978a96fdb3fae20e2f529f3d7862ba832b5729c3b9a71b8ebfebbb8c06"),
    "coeffs-missing-rho": (2, EMPTY, "c7c7be1fde38519e6492b8e569faf285e24fd67b166ecd63970cee86465806bf"),
    "coeffs-missing-nu": (2, EMPTY, "552698379b7eb38cf1ca7cdefa39dd2351288c455fe496ceb88ca51013677fd9"),
    "coeffs-missing-rho-q": (2, EMPTY, "c7c7be1fde38519e6492b8e569faf285e24fd67b166ecd63970cee86465806bf"),
    "verify-Lemma-csv": (0, "597074231a32867c5f5aa937058e11ab258fa9a066ff06cfbc9b30379cd6f325", EMPTY),
    "verify-Lemma-text": (0, "ebe1c9bd340be423e087bd61e738bf883c7ff60f530f4b895b6ba10692481cf1", EMPTY),
    "verify-II1-csv": (0, "4feefc54cc2208905ced7c94ed47ae82f0615982aaeb43df99586799b685dc56", EMPTY),
    "verify-II1-text": (0, "c6531c60a5093853af79fdc6c475301e767051558909500515f350a98c39ff95", EMPTY),
    "search-II1-csv": (0, "e47f28baff80618e46fb642aafb164e42850913e6107a415991e4ae21e51f7f8", EMPTY),
    "search-II1-text": (0, "804a29d5eda18a6203cf4eeb8f11a4c1f9fa966851f86a51a3ea16afc61fe9b3", EMPTY),
    "specfun-2f1-json": (0, "66271b97f8e19f22c6ede9393813c22c728dc8cfefb601d76a5543e62130706b", EMPTY),
    "specfun-2f1-csv": (0, "ea4eb7be651b827e19cccb9b86fc7f06f3a0d18b09982a396c2bde4ea3c8b184", EMPTY),
    "specfun-2f1-text": (0, "fcdeb7b4fa2201f20d643b332363c4f707e3efadef71094153aefacd2c5632b3", EMPTY),
    "specfun-beta-json": (0, "2581a5312254f5a83d6a93fb6c52c0d7cfb147d65b7b5d483e6fcc21ce5189c7", EMPTY),
    "specfun-beta-csv": (0, "371992a8175dac01f3f4eaec030d1d30d7bcd91dafeadd55f5133b2f57b822d3", EMPTY),
    "specfun-beta-text": (0, "b63099bb3cbc03965fb201f315421e0d8b2063361d50c3c3b4a4837514c0aa0a", EMPTY),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_every_case_is_pinned():
    assert set(CASES) == set(GOLDEN)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_pinned(name, capsys):
    code = main(list(CASES[name]))
    captured = capsys.readouterr()
    assert (code, _sha(captured.out), _sha(captured.err)) == GOLDEN[name]


# A small sweep: a certification skip (exponent 1.5), every route, and both
# report files, written under relative paths that stdout names.
SWEEP_CONFIG = {
    "theorems": ["HH", "HarmHH", "II1", "II2", "II4"],
    "families": [{"family": "pow", "params": [1.0, 1.5, 0.0]}, {"family": "pow", "params": [1.0, 2.0, 0.0]}],
    "a_values": [1.0], "ratios": [2.0], "s_grid": [0.5, 1.0], "m_grid": [0.8, 1.0], "q_grid": [1.0, 2.0],
    "grid": 16, "seed": 0,
}
SWEEP_REPORTS = {
    "json": "55e0af0ae64f5d19dabebc21eb4fd3f342d51da74ff528dacaf86eb25d0ed880",
    "csv": "0f80684cf2c6e59550a4f62c98fd7a47cf2c952be0b71481d9eee2fe280b20b1",
}
SWEEP_GOLDEN = {
    "json": (0, "5a4d3c79a1978442bfcef42b29bf112e4d913227c6cc45e131f79793f17873af", EMPTY),
    "csv": (0, "0f80684cf2c6e59550a4f62c98fd7a47cf2c952be0b71481d9eee2fe280b20b1", EMPTY),
    "text": (0, "f40218369ec47b92df0bedfe63688f3852e6b7e4a2d2e10a4178be3a10c0df6f", EMPTY),
}


@pytest.mark.parametrize("fmt", sorted(SWEEP_GOLDEN))
def test_sweep_output_is_pinned(fmt, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(SWEEP_CONFIG), encoding="utf-8")
    code = main(["sweep", "--config", "config.json", "--json", "report.json", "--csv", "report.csv",
                 "--format", fmt])
    captured = capsys.readouterr()
    assert (code, _sha(captured.out), _sha(captured.err)) == SWEEP_GOLDEN[fmt]
    written = {kind: hashlib.sha256((tmp_path / f"report.{kind}").read_bytes()).hexdigest()
               for kind in SWEEP_REPORTS}
    assert written == SWEEP_REPORTS


UNCERTIFIED_FAMILIES = (
    {"family": "pow", "params": (1.0, 0.5, 0.0)},
    {"family": "exp", "params": (-2.0,)},
    {"family": "affine", "params": (1.0, 0.0)},
    {"family": "pow", "params": (1.0, 1.5, 0.0)},
)
NO_FINDING = _sha(json.dumps(None))

UNCERTIFIED_SEARCH = {
    "HH": NO_FINDING,
    "HarmHH": NO_FINDING,
    "II1": "c8c66bad2b02ee27dd3f91663a1089e8b450f1376904bdd984c4e8925a17322f",
    "I1": NO_FINDING,
    "I2": NO_FINDING,
    "FS1": NO_FINDING,
    "FS2": NO_FINDING,
    "II2": "fb6684d3cb2cca755dbeddcc4941406db8a9fbbdfec533f9a9bc0895d83dc386",
    "II3": "cc1df5838d240c6eb06c538af18674c4c5516d32f02ca0977eb6d7b5bdd23dd2",
    "II4": "f5c963b064c381f16a174ca02457a8dbbc6c2082ad2beb64e46117a03037ae3e",
}


@pytest.mark.parametrize("theorem", sorted(UNCERTIFIED_SEARCH))
def test_uncertified_search_is_pinned(theorem):
    finding = search_counterexample(theorem, budget=6, seed=11, families=UNCERTIFIED_FAMILIES,
                                    m_range=(0.1, 0.6), enforce_certification=False)
    doc = None if finding is None else finding.to_dict()
    assert _sha(json.dumps(doc, sort_keys=True)) == UNCERTIFIED_SEARCH[theorem]


# The 25 intervals of the benchmark's adjudicate-grid workload at seed 1, drawn
# as that workload draws them, with the sha256 of each interval's JSON report.
ADJUDICATE_SEED_1 = (
    "0990ff2ebdfd46a81dde4779a36e73a1520262b9d330c07803835fd5b00c8210",
    "4def8db84bf3d7bdfb741d07f145a707dc3136c89726cbd21c8c0ee0c91a6bab",
    "708a14354a5424250f6469a0396284410aec1c50e49a1974ecae5f3562cee79a",
    "18f8e1e92966ea1016fd30bf6ed79c9437fe5b686453338f3bb0808d8ea99ebe",
    "e8b267cd09bfcc7bc863cac9c9477e21c7d552f074cca2fdaad1f97baa413941",
    "bc47dfe0966f443cc68cce1424b629e677d7b5926650479716e8a2da267b4006",
    "ba3e69cb887fcc09779c2981f6f9d597b3f519383806a9072aab03e0309232b6",
    "cfd7087dd1d00cfce5b48b6935e4422efb7d2745317fcdf6283f2b31181c5c4c",
    "c4c44a8fa23253caeff7ba1056e3a8576f163fe4fb4aeef4ca042cd591d9d3f3",
    "e6d49c819cabb2d6f143b48142c45fe657bb18e495c0b3c76f38ec135a17516a",
    "c17799c2558810f216b83934cae5df0a58539a818d1dd052be2fb0605cbb5804",
    "da20b5f0e69a80efdb83c81061952e30085da997b711ca22560580fdbf4af9e6",
    "fe5b7f14e4ae51f5521f8a820cfe038b8f62737fa0387d51f263a0e12438122d",
    "254f5b085d37b099b87f24913c5fe34ed7c6b499a3f73972e8c9df873ad2847a",
    "c8698c1e220dbd8e0189e7819b7528cc209ff7019c44878512496e825c4e7342",
    "4070d95eafcc5a7601024e55319568e1ca10ebc7686b8238d3b04173da2fc139",
    "d645c28ca7d90ab7745ee61af9484544520390b5b5e3dd243e7759ac9c407d73",
    "3fb1fe6358bef0f0e66f7220f1dc6dd0dc8c8a021745faafb2eea5f100154769",
    "bcf3cc639772d3697d3747a98ae64bd999c8e39e20d7952663815875cb3f6c87",
    "8c31af8184c5cefe77280c7a64de025730a93c7db7ac6aa67787eac89c0ff38d",
    "b91e1b58e72319e069257f38b3256aaee17d863b08d21c9e8a95fe8983e7bee0",
    "8ae36ea01b5e614bba21234a88a90fcfd0a813c3be26f22354ff9dc3876e79e9",
    "2c940916281b29958029495f87c28f926ae2c8d02201441ff80900d6078c5f00",
    "fb7af8cbbaa84aaf02396cf9e7a41313c562bd9f5a64b45b752e7036012649f4",
    "29e384d960c44b37ab90cc4f8822717a0ffd5bbc9281aa79fc24501731cf5a04",
)


@pytest.mark.slow
def test_adjudicate_grid_reports_are_pinned(capsys):
    rng = random.Random("adjudicate-grid:1")
    digests = []
    for _ in ADJUDICATE_SEED_1:
        a = rng.uniform(0.5, 3.0)
        b = a * rng.uniform(1.1, 10.0)
        code = main(["reductions", "--a", repr(a), "--b", repr(b), "--format", "json"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        digests.append(_sha(captured.out))
    assert tuple(digests) == ADJUDICATE_SEED_1
