"""Golden digests: the series path's results, bitwise, pinned by sha256.

Each case builds one Workspace and hashes what every caller of the order
march reads: ``run`` (orders, norms, residual history, flag), ``run_many``
(partial sums, residuals, flags), ``perturbation_series`` and, where the
core is L's own with H = 1, the equivalence report and the oracle's own
orders (``hpm_recursion``). A change to the march, the tape or the solves
that is meant to be arithmetic-neutral must leave every digest as it is.

The digests were recorded with numpy 2.4.6 and its bundled OpenBLAS on
x86-64. Grid sizes stay at n <= 64, below OpenBLAS's threading thresholds
for these products, so the BLAS thread count does not move them; another
BLAS build may round differently and would need them recorded afresh.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from hamsolve import (
    BoundaryCondition,
    HamConfig,
    LinearOperator,
    ProblemSpec,
    Workspace,
    case_ids,
    equivalence_workspace,
    get_case,
    hpm_recursion,
    parse_expr,
)

from conftest import exp_problem

ORDER = 12
HBARS = np.linspace(-1.6, -0.2, 17)


def _problem(L, N, s, bcs, **grid):
    return ProblemSpec(
        a=0.0,
        b=1.0,
        L=LinearOperator.from_strings(L),
        N=parse_expr(N),
        s=parse_expr(s),
        bcs=tuple(BoundaryCondition(*bc) for bc in bcs),
        **grid,
    )


def _cases():
    """{name: (problem, config)}."""
    cases = {}
    for n in (32, 64):
        for cid in case_ids():
            cases[f"{cid} n={n}"] = (get_case(cid).spec.with_grid_n(n), HamConfig(order=ORDER))
        cases[f"exp n={n}"] = (exp_problem().with_grid_n(n), HamConfig(order=ORDER))
    # non-L cores and H != 1 take the general rhs, where L does not fold out
    cases["exp frechet-at-u0 n=48"] = (
        exp_problem().with_grid_n(48),
        HamConfig(lopt_mode="frechet-at-u0", order=ORDER),
    )
    cases["manufactured-quad substitute core, H = 1 + r"] = (
        get_case("manufactured-quad").spec.with_grid_n(40),
        HamConfig(lopt_mode=LinearOperator.from_strings(("-1", "0", "1")), H=parse_expr("1 + r"), order=ORDER),
    )
    cases["tanh-short H = 2 - r"] = (
        get_case("riccati-tanh-short").spec.with_grid_n(40),
        HamConfig(H=parse_expr("2 - r"), order=ORDER),
    )
    dirichlet = (("left", 0, 0.0), ("right", 0, 0.0))
    cases["u*u' n=40"] = (
        _problem(("0", "0", "1"), "u*u'", "-pi^2*sin(pi*r) + pi*sin(pi*r)*cos(pi*r)", dirichlet, n=40),
        HamConfig(order=ORDER),
    )
    cases["boundary data, uniform-fd n=33"] = (
        _problem(("0", "0", "1"), "u^2", "2 + (1 + r^2)^2", (("left", 0, 1.0), ("right", 0, 2.0)),
                 grid_kind="uniform-fd", n=33),
        HamConfig(hbar=-0.8, order=ORDER),
    )
    # third and fourth order read the lazily scaled D_3 and D_4
    cases["third order n=32"] = (
        _problem(("0", "0", "0", "1"), "u^2", "-pi^3*cos(pi*r) + sin(pi*r)^2",
                 (("left", 0, 0.0), ("left", 1, np.pi), ("right", 0, 0.0)), n=32),
        HamConfig(order=ORDER),
    )
    cases["fourth order, N reads u'' n=24"] = (
        _problem(("0", "0", "0", "0", "1"), "u*u''", "pi^4*sin(pi*r) - pi^2*sin(pi*r)^2",
                 (("left", 0, 0.0), ("left", 1, np.pi), ("right", 0, 0.0), ("right", 1, -np.pi)), n=24),
        HamConfig(order=ORDER),
    )
    cases["exp uniform-fd n=48"] = (
        replace(exp_problem(), grid_kind="uniform-fd", n=48),
        HamConfig(order=ORDER),
    )
    return cases


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(np.ascontiguousarray(p, dtype=float).tobytes())
    return h.hexdigest()


def digests(problem, config) -> dict:
    ws = Workspace(problem, config)
    series = ws.run()
    batch = ws.run_many(HBARS)
    out = {
        "run": _sha(np.stack(series.orders), series.per_order_norms, series.residual_history, [series.diverged]),
        "run_many": _sha(batch.partial_sums, batch.residuals, batch.diverged),
        "perturbation_series": _sha(ws.perturbation_series()),
    }
    if config.lopt_mode == "use-L" and ws.unit_weight:
        oracle = hpm_recursion(problem, config.order)
        # hbar -0.9 is the mutation control: its differences read the engine's orders
        reports = (equivalence_workspace(ws, hbar=h).per_order_rel_diff for h in (-1.0, -0.9))
        out["equivalence"] = _sha(*reports)
        out["oracle"] = _sha(np.stack(oracle.orders), oracle.residual_history)
    return out


GOLDEN = {
    'boundary data, uniform-fd n=33': {
        'equivalence': '0f7fb34433caba40a05d7c9c89689b64bb15175f8c76238de050068d50843c61',
        'oracle': 'f2b3517c25842ff80a27652f4e75c9f90fbf4b5231991d41253ba74fe212e9dd',
        'perturbation_series': 'fc2795f07e29e2e2fa49a42b7155fb22aa3be859de0225b8d8437542cee616a2',
        'run': '2a9b709971cd20d80ec0931e5feb0b0fcf71e3c39a5c6a017c4820ec3bbbc99b',
        'run_many': 'f62023ff773fb046d355695210594eb83753499f8142386b30344fd552e75bae',
    },
    'exp frechet-at-u0 n=48': {
        'perturbation_series': 'a626e51d073833ae2e3748a219dd014883651b85bb53d5a0e1258b4357fcb275',
        'run': 'e4c7bef41f783bde04dcf3566735fd4866791a165b13e8aba895e469ad677b46',
        'run_many': 'f41f79fd0d8b7e627b4b87ffcce7e06c1014c77ce3aa3c37f1c7a9d2d82a0f34',
    },
    'exp n=32': {
        'equivalence': '7710f051d45bca0b23096d5ffaf9e52b2931c616d98b7f88da1ef2d49047d815',
        'oracle': '26af55df564264046cf24790f13837c4e93e7a4686408e00fc767281b0b6251d',
        'perturbation_series': 'fdc2ce867752479d8af73882038cfff21e7f74828f2e4a749fbdc788f9433b98',
        'run': '5a143e6b1dadb61ac362e09d2b9897d1684bbb7dfb3f6a8fd050e4f109f1a14f',
        'run_many': '7bbd63ac946f88a96746cf8e07df499f87a945a7cd9c7d8abd2687b0aaf054e7',
    },
    'exp n=64': {
        'equivalence': 'add00b16a2095fab75a3149402db1699acecd1acdc32662d1f070b588627dfd8',
        'oracle': '7fe3b9ff81d3ed75002e2549d5072c8b6636e75b0539baa9250cca6cb030362b',
        'perturbation_series': '8b2e60fc6b95e0b22341f0c13d55817edc04db0c3d174d561a9c370da8d9a64c',
        'run': 'dd0be65ae5e1f71108dfab52f475ab3ea16cefaa536fbd772bfe3f0e9a281afe',
        'run_many': '17df1fcdf6212fa645f51f8f872e515749f862e58f5449bd863044e6f5ab60d1',
    },
    'exp uniform-fd n=48': {
        'equivalence': 'fa0698a6e2c77ba2d27ec35fb80afd781396f40299bce5594b390257d2b69e41',
        'oracle': 'eb81edb4dca32acdd57cf20b2c8cb7ab4cc5b6f977d145c892314841b3b25405',
        'perturbation_series': 'd86ed4cd1fdd8e972de59ddfc3a453c7dbbf973de4e8f0798406b9803b10b73d',
        'run': 'be5f54ec5ed6c0d5fefb570453bdbfd3eb6b102a24a88b46518baec90a01bca1',
        'run_many': '5de765a54d3b774cb76b5616abdf5cecd43363c79303c84e06f7dc1c0277afee',
    },
    "fourth order, N reads u'' n=24": {
        'equivalence': '757918d5b513f8c76394488c48820c4a2e6ab6323d94257606d2b73e992a32bf',
        'oracle': '2eff41bac9f583366892042adcf04c9ae80ed4c7a630c0a5ef480a95c19969d2',
        'perturbation_series': '5a70f74128ce982a36f0584435b7114776662e57602007e39878624a1d6bb4c5',
        'run': '2351856dfb7bfd07c7996e518bfaebf009cb9992417ad67c834d3b310828090c',
        'run_many': '09d5405c8816c365f0e53259b04f064c81418a4d6bf8323a2b4af32a30fff8ca',
    },
    'linear-poisson n=32': {
        'equivalence': 'cb0922082ad1fd7ee640ea059fd080d6af3146bc5073344fe251fe15a87fe02e',
        'oracle': '60caf2a93cc1719d12464b22a72797aec1b0aa121ff7ccc3eb7b3a395899a1b1',
        'perturbation_series': 'c2691a11c7a506bf94fe04aa19dcc005103803dc82cedf2c796756080ca7f485',
        'run': '0e3166fc1fe591472e32c78b2dcf9437635dc7046067c6bb9edf1617afbc9551',
        'run_many': 'fd05fda114b351642d77694d2e2b1a54e02dd694fd9ffbb5f9af591dde41d32a',
    },
    'linear-poisson n=64': {
        'equivalence': 'a0d8b79a0ada427722a3f8e398af97ebc282cf60d87f1c3ad45b4cb6bf0dab22',
        'oracle': '2890defd6477e9c061404a48da57a6a8321caf1b47b19f6ad3d80ceda186908e',
        'perturbation_series': '235b9c9c394f43e6a36017728eea58d11295b167db81122c60af1ad0f5a6fa48',
        'run': '45c5e575a9839f7822b39745e7826e00f750755c27f010008116b13d0e978e4c',
        'run_many': '20aaf9daca88a218d36abe45e9fcdbca2db26ec49937970abe9d8e32bf4f8dd3',
    },
    'manufactured-quad n=32': {
        'equivalence': 'd3d46bf1da5f45018050460f37f13580299e243bbb5ab66d899bb44dbdeef50c',
        'oracle': '4ff34bef78cc4ee5327af6bdcf0206bad2ad9ffdfabbacbbf1d3756b1a426c61',
        'perturbation_series': 'eaa27e7da011d9c513653414aca46e4641b14ee7f68a3a7ef3f055a6d43deabc',
        'run': '3d87c908ce51d4f7ad619175693976c44a7e9d301071ca0aa842c750fb5ed6c7',
        'run_many': 'bfbec97c09af98ae5470608b4e1553ca88e109cc5c22f9a56738e149ad933330',
    },
    'manufactured-quad n=64': {
        'equivalence': '8750c2459cf30dc221e9eda8e866302600025a1abf0132bfb4e0b9348dd1414e',
        'oracle': '4a4c220d59bdac3c427098e045cf25cee03e921d648f47ff67014c7099cc0a6e',
        'perturbation_series': '3b4398f87b86c6f435c275f0338f0239a5d6dc27ea5a2f8046d6042e7df538a4',
        'run': '3c9615777e39ce54a95b974675c26760c028787f63253e6d9ae2ab0a80da5a08',
        'run_many': 'b5a0c674e0dad9c3a45ad63663ad2f6cc30c462205cd4468e86898526652b00d',
    },
    'manufactured-quad substitute core, H = 1 + r': {
        'perturbation_series': '0e26606b73565574022b39007aecf47973fb7e170f29246bd248920fe6473855',
        'run': 'fa1fd02fe5902922368b05e9346234cf10871fb40baa82d4263a6cc850742cf1',
        'run_many': 'b83b367d9f962dbdc34feb704f136269a41a3d5af15f103275f4435b82e92ccd',
    },
    'riccati-tanh-long n=32': {
        'equivalence': '15f0723b62306066178c1fba7013d52e6aeb951e2fa7ef55aee8bc4ceeedd2f1',
        'oracle': '003366612321bb973df5713c02062437459cedc2e1d68481b7626c6b1b5807c5',
        'perturbation_series': '22cd29782978b771d608da667e1ad75f85bafc5749f686da5882fdbfe1efaae0',
        'run': '9d33a7f1f654b746f262674935b5a70322b745e18cc7de2c1d122b5b8cecdc4c',
        'run_many': '325d24433cb57403aa25a3c423cc25ed7c219d9bdaf75ea1750fbd8cc17fff05',
    },
    'riccati-tanh-long n=64': {
        'equivalence': '704e86df86401f9bf2aa262b07353038f1e3677636ee36063e414c95a3c164c5',
        'oracle': '4f37104cae0316066fcb751212d23ac4393d8eb6967d1982bbc07d102f8bc992',
        'perturbation_series': '9a4cfab14e9bcbb7d4a349075c2654cea662ad94d01019ac0d6a25cadb51ea07',
        'run': 'b203e282c97242b921c0d35e65c4975d648559b7f9f9d5cd3f3369e536520dbe',
        'run_many': '19041f8d889df0b05241a852a5e7b868e509960e79db64f31599a4064c5359b7',
    },
    'riccati-tanh-short n=32': {
        'equivalence': 'a1a6ca72a015251176019c4ae1b540c95a18be65881a99971747b94efc361c54',
        'oracle': 'e8774c989ab4bd2d8805edcf9110189438bc291f6e831ca6286fdfdf7fac9ead',
        'perturbation_series': 'f4e817d75b89da18f14c61087341ca052bfe640636c3c3ef5e06545d4e3d6222',
        'run': 'eaa5713fca77a5a2efa1d50e73257fb10503e1e1fc68795382af0686858d6884',
        'run_many': '06d4ce4545b5edb04613b3319eff9b79fb1aae1b722b93d0f2b941bae99719bb',
    },
    'riccati-tanh-short n=64': {
        'equivalence': '2b5af844d679e2cd072536f4bbcaffcc6b612b31c9d6cf18f65cd5c9c0db0631',
        'oracle': 'c93755005ccb05e3ce3eb36ce03e665ac7a762bfeaba7170c5e4b9793a1f0606',
        'perturbation_series': 'c866bef92f8ca2388c01b6ba117792f9dac45c50b1e52723e9d04f02f509e9d9',
        'run': '44cd746dd0a7595e20aae35a40a9c2f5878b8f5fef72f1398dd91f575bd337d0',
        'run_many': 'a298e35a85f330496e146b97d76c815bd0185922c5cc1d059ac432cf774cd846',
    },
    'tanh-short H = 2 - r': {
        'perturbation_series': '3a831378dced6e07f23503e0545842a9ec1b951ff22489cf67b04f8f8995dcb5',
        'run': '9e5f8475edcdda5603835fd8d8c76b62167e4becf645d4c47d74622f4f584f24',
        'run_many': 'aaa549c37f7d487db22ad1264fad6f32303cfe180face426600f99dac71b464d',
    },
    'third order n=32': {
        'equivalence': 'ed23d70dd130ea1d5141953a3146d4af49bb80bbc321bcc496235077cb3552c7',
        'oracle': '6f6b22bf5f317f38691e6dc369647b3c239319665bbd84e6271687e5196c62e3',
        'perturbation_series': '58139ee89124d2b78488eb34508c9ccf53b114679a0d92315ba47e3f81621b25',
        'run': '74c7cd6665c25806dfe7a29ecad9b1240ecb310bb1215d43b0d999350126c572',
        'run_many': '6626a7773922c94cce6c5ddb39f2eaf65024d75d9281986b0d7931abf23f3fa4',
    },
    "u*u' n=40": {
        'equivalence': 'f7ffe7fe1bba5901459e39c101b0a6cd4d360fac0ab81ec7f4d8ad3f5e47ffe7',
        'oracle': 'e4ad1359fde7d7be5850cd1886a8832fa22fe2850b8556a6afb8481a7f929256',
        'perturbation_series': '9244dc2e878baf75d2ec953b5c189a06a3403855f9e38d566be1640b218e6e1a',
        'run': '10403f9dd4ba0b6768967efbc345e1db7a94eb14ae42f96c0eafbfb833844fa0',
        'run_many': 'fd95f4109accd8d08b2e8951bca25b3a0e187549a8667fc1d87ddcf5375ddc8e',
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_digests_unchanged(name):
    assert digests(*_cases()[name]) == GOLDEN[name]


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(_cases())
