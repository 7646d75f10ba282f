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

Every case that prints a kernel value, the small sweep and the adjudication
digests were re-pinned when kernels came to be integrated in their log
variable: each kernel moved in its last bits, and no verdict, exit code or
finding changed.
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
    "verify-I1": (0, "e413c9dd39340ed18c8976ff3887118907858493f5d12024a5fdf2f023381947", EMPTY),
    "verify-I2": (0, "1ea724b40dc070324bf1fb61db426e2df56575f2c81e6b22a5ecda590505cfe0", EMPTY),
    "verify-FS1": (0, "0827d2e183be2bb449a4ba4e83884098ab6877037af303847933461a323a3adb", EMPTY),
    "verify-FS2": (0, "a7c960e3ebc703d536ded5373f32a294d590cc42604aa31fca9ad68b729cb279", EMPTY),
    "verify-II2": (0, "f307476c285088e0a90b361657d923af2d878d65f2cfec0e5aabf86112f48cf7", EMPTY),
    "verify-II3": (0, "ab84a5fb08de32e45347f4342607459f2f33c97fb80d3b602b5f06dbcaf72390", EMPTY),
    "verify-II4": (0, "d894f68b47f0b145fcc1e9eeae4480eb2064cd315169d2891e58bede5106939d", EMPTY),
    "verify-II2-s0": (0, "cbc947db0427f5db3ad58ff9359fee9f7c6f157f309280e65fcf3429bee47090", EMPTY),
    "verify-II4-csv": (0, "74b33421ec66814fbf6adeae9f1a7a6f56686a8cccdf859860eb41f458c2fd59", EMPTY),
    "verify-II2-text": (0, "358cbf6874f39f7f3905265068aa7dfc105d2bb11487000f2b3f13190f941989", EMPTY),
    "verify-spiece-sexp-default": (0, "e056524e585e8a9c96293c6ecd9658dda4eefd2533a643c6de08c7e16937c368", EMPTY),
    "verify-spiece-sexp": (0, "c721deb126f7c12cee854a1060170d748d822c5fbe1adcd0af787299bd1d5dd9", EMPTY),
    "verify-recip": (0, "01c769cba47557eff0ed4bc311eb9f1ae197f2723a2221164e1c86e3a90933e7", EMPTY),
    "verify-affine": (0, "0973e7c515c65cc56f252f58b86860a0b3986af037c023be14161c58591ec993", EMPTY),
    "verify-exp": (0, "591cb06f05b41721cb736c0287da80105eae2681c66b041a376b8e4021905caf", EMPTY),
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
    "reductions-json": (0, "7f690b24d62aa9dd58588f248e653f041b708727a291daf41aa2d315cf976976", EMPTY),
    "reductions-csv": (0, "c5e550d69e5a81b945d8ff63cb15dc0c91f59496c5f09470d9a07ffe63ff2c0e", EMPTY),
    "reductions-text": (0, "6b3203cd81ba5bb6d035661f03118647c5b735e978d3fb6cc3f75bcffac422af", EMPTY),
    "reductions-default-grids": (0, "87f9dc0734eed71fa05c1c6fffaaa1a9ab3bfad649fc3ccb33e76ac695feeddd", EMPTY),
    "coeffs-lambda": (0, "ebc51c0d318c665507b6d9c8d4c8ba88493dfe89998710f2180e1954cb8365a6", EMPTY),
    "coeffs-mu": (0, "59246b3a4b93e1b21e677e2eb323d20754bac0115f53d65690eac4bfd5d3dda0", EMPTY),
    "coeffs-c": (0, "4d7c892d13f42efba2fcdb5f80c258db97a1fc82622399c140f12c4d64934e72", EMPTY),
    "coeffs-rho": (0, "03aef148c1d7c61486acc818a0e186fd23869a9ec3813892d4c5e82edab25143", EMPTY),
    "coeffs-nu": (0, "356d4205267088bd70da63c7ccfd4bb90d48bc00421b04f79f9c693a5bc0f60e", EMPTY),
    "coeffs-lambda-csv": (0, "85e1d76a6ca5b28972fc07cfeaa4bb868708089cdf95248831a9941d586c80af", EMPTY),
    "coeffs-lambda-text": (0, "cd95de6638576c8a71ad88c6c2c01eb5cee6b2412adda3f10441175a3b6b78bf", EMPTY),
    "coeffs-mu-csv": (0, "874da46424ed1422a86b9b9a75834d7d1e0f0aa2501afa2de58679890be8e82a", EMPTY),
    "coeffs-mu-text": (0, "392076ed1a7ecc6854d10fc3db1a15c5f9f85679e4c88b7b86e06cfa9df943be", EMPTY),
    "coeffs-c-csv": (0, "901019f654b07db8def6948005ca8ae437f77875e05a9e7a25b14c49eeb5c15e", EMPTY),
    "coeffs-c-text": (0, "2fec760066809b919e3fa487c154a8fe2ff5fb5a264de727a9ada7cc4eb62739", EMPTY),
    "coeffs-rho-csv": (0, "1325667eed968a21d01ade19fd7d61dfb4c1aaf6c188a0673294fe7c19a374ce", EMPTY),
    "coeffs-rho-text": (0, "f01f456bf461876616d4148c24fb86aadb4962e167e1c55003ba05598f731dc9", EMPTY),
    "coeffs-nu-csv": (0, "e5491d196322007faa1dd8da27624f8a152b69fc681509e611118a10f233d767", EMPTY),
    "coeffs-nu-text": (0, "5af16b7bb837297cb6898d1e5b6a56246cbc5f4dace33d2907507dc56a59a284", EMPTY),
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
    "json": "c04393032c119b20d03c3a7261c19335f3b3480e6b54ad0c8811ac7561ff3dae",
    "csv": "40b77997f529685da63740ab84626998b455b0d3e08fae834224abc74b5adc4b",
}
SWEEP_GOLDEN = {
    "json": (0, "edc0807d39dbd65966993f63669222df36296afea50949e394cb842ee456853b", EMPTY),
    "csv": (0, "40b77997f529685da63740ab84626998b455b0d3e08fae834224abc74b5adc4b", EMPTY),
    "text": (0, "99d3be25a244e70224448f7e48248823fbf5edcd4d6bf512f1780066615a74ee", EMPTY),
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
    "II2": "b72ecd6e16cf8b4f9bd45c98cbfa051b72854c16587929f0aaf187186fb7892d",
    "II3": "d0edf45602ad3752118db9e3f2be6ece347a8589782009d76a85a076a9095386",
    "II4": "ba97929c84d3fbda6c75dda8ad823627757248e122bed57b8dd20d5569c04aca",
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
    "9150e40c32320f341a71b5986aca7b27e896219ee9f7b55687956de3f4a42da1",
    "3b4ca6018cc8ac55a457dc5993c41ceb40895a21881542f4b5aed7b1519d102a",
    "b8f885cf83a73317552710ad5fced13dbffefaa6a5fc1295bf3aa79645218c20",
    "18b30973a878dfc402df7ec8de4384a98a04e09f2244ed745b900df5d07efe72",
    "0535e30376028db63670fd59611fc6af3785bd542e5c72f30e8a6b4c8da311b4",
    "760a9a2f96cffa5ee10879876c1325e98b88582939a84d85891f2c617f7f9847",
    "19a45d6529834bccf6b47bff63d3cc8d1f0ec822e1393d6d3c950ffeec2c14a1",
    "0b077602a4ce7f8d52e80fedcaad6dff1cc883ae743c9e3196b976d0ea57d971",
    "a7a94110ad33f6b26ad646168779d61aa39a09689a094b3776e098b637bff752",
    "68e3ade41ea353d75cbdd14844d5380b995591d0fa490c07300e51b3ecc79870",
    "0c3768d6c687321d2416d8ee3f5e9e5f69495d71d922513889d83efb12a8d4b4",
    "e08b6efe0d1256a97e6475e7cb7e6757cca2e5f90f37c649a987563229aaaf52",
    "ca56b623469533bf751c0728f640f0f5d3aae42f37290645c6b1e828c8f147fb",
    "4ebfb3fff0a693e29f1f2581327d29c0eb8e0deec58a31de454c61a1fbbc9754",
    "6d48b24c24424cccfe5c16bda840c5e7038b291e20e5580f4f1fb1f3cecb765c",
    "713ba6cb1c6efbd4f76aa115cd5297e1f2d6e38699ae929324f59303bf48d580",
    "089b7913c7dffdad097906d6705c12567102413414d448bd1b51538220aa9a12",
    "7d3eb340410a77916180bda4cf81a7996aa5b95a36bb610f4c06b3aec19138bd",
    "21e4aaaedcda250337361047a58a82d5923406ff3a64d9181e318572f6b44a52",
    "4707942c01de1c15b9ead7be18d3a81b833fb6d2b11fa1d9309f3f8c193bd726",
    "2404db742a74270154911aba9cdc279027a0f4f652953c6fdc6d083fcbb1b3db",
    "89b12722e26d7fc7416d6d427603e5c495eaf709980bcfbd4ee743dafdd1858a",
    "c24bd839ed157cdfa9f7f1827445465c7e6fa195d765ec18f38ea9b2061e8e88",
    "5d116a0b36b5fd5cf0d2fc0975b2a7b92f6701159a48c89f7ad9a43f4b0b57af",
    "30c30b934d95cbdbd6c5c89cb683099cc4bf59f114892f3b8aa8411a83726530",
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
