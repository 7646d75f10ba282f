"""Golden CLI outputs, pinned before the theorem table replaced the per-module
dispatch.  Each case pins the sha256 of stdout and of stderr and the exit code;
a change to any of them is a behaviour change and must be declared as one.

The uncertified searches pin what the CLI cannot reach: the order of the
random draws, the per-theorem overrides and the shrink toward the boundary.
"""

import hashlib
import json

import pytest

from hhkit.cli import main
from hhkit.harness import search_counterexample

EMPTY = hashlib.sha256(b"").hexdigest()

V = ["verify", "--family", "pow", "--a", "1", "--b", "2", "--format", "json"]

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
    "coeffs-lambda": ["coeffs", "--set", "lambda", "--a", "1", "--b", "2", "--format", "json"],
    "coeffs-mu": ["coeffs", "--set", "mu", "--q", "2", "--a", "1", "--b", "2", "--format", "json"],
    "coeffs-c": ["coeffs", "--set", "c", "--s", "0.5", "--a", "1", "--b", "2", "--format", "json"],
    "coeffs-rho": ["coeffs", "--set", "rho", "--s", "0.5", "--q", "2", "--a", "1", "--b", "2",
                   "--format", "json"],
    "coeffs-nu": ["coeffs", "--set", "nu", "--s", "0.5", "--q", "2", "--a", "1", "--b", "2",
                  "--format", "json"],
}

GOLDEN = {
    "verify-HH": (0, "d6f83fb6b616b6660aed697e319e1cb42cf44a765574ff75cd8a62f6666add6d", EMPTY),
    "verify-HarmHH": (0, "f9eb771d76485c1fd7e426bcefa6b7c633302996871b5da861babc4ad581cdc6", EMPTY),
    "verify-II1": (0, "01ccf64138c267c0c493ed6777873cde4dd4a5869c2bb7431647ac1a3ad844f6", EMPTY),
    "verify-Lemma": (0, "fa64611e3c629e3ff947e528e23319ce7fc0cae583b2d3a165a145a1aee93fe3", EMPTY),
    "verify-I1": (0, "c7afb379b2abfe1b9cde97e45986b6488632a84b944e58190025103ac42d3011", EMPTY),
    "verify-I2": (0, "6320851174399b09f8ff614b1258c8bcf2c71af1afd4815637de246aca882d19", EMPTY),
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
    "coeffs-lambda": (0, "ebc51c0d318c665507b6d9c8d4c8ba88493dfe89998710f2180e1954cb8365a6", EMPTY),
    "coeffs-mu": (0, "a8dacbea989ebc9c02e201e4a6e68680613ab0ad9c23a83e8ca832543f6fd95b", EMPTY),
    "coeffs-c": (0, "09ca65cb9e9868d77dca2e1f17e30dbd5ae72a2dc9090d56ad033abc7123d40f", EMPTY),
    "coeffs-rho": (0, "64e6e692a9d47d45898f9d70e7ced5a9189fcc9d64a59e58e6d2cbfd03e091fc", EMPTY),
    "coeffs-nu": (0, "ef67581ffdca84bb4957d8567f08edb619d3b669751b246b60b2c3bfb69a48af", EMPTY),
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
