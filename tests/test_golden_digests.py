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
    # non-L cores take the non-grouped rhs; H != 1 keeps both of its roundings
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
        'equivalence': '5212c7788157e4aa1aec725fd8fb2293b676f59856c1d9ec3080b3bf05096f6b',
        'oracle': 'f2b3517c25842ff80a27652f4e75c9f90fbf4b5231991d41253ba74fe212e9dd',
        'perturbation_series': '2fec1df274ed611926d9a329f25f297925443bfb06ccc0521be18763591f6272',
        'run': '549d83362cf11a4c831e97cc44caa877074ea9628f82235ec09dbf7545660504',
        'run_many': '94f00282ff55c99cc8c7b718fd1ecfc7b342d6a41201b2198c7f3baad233e38a',
    },
    'exp frechet-at-u0 n=48': {
        'perturbation_series': 'a626e51d073833ae2e3748a219dd014883651b85bb53d5a0e1258b4357fcb275',
        'run': 'e4c7bef41f783bde04dcf3566735fd4866791a165b13e8aba895e469ad677b46',
        'run_many': 'f41f79fd0d8b7e627b4b87ffcce7e06c1014c77ce3aa3c37f1c7a9d2d82a0f34',
    },
    'exp n=32': {
        'equivalence': '099a46e4d9931505ffb161512c515defbb2ded46bf16dc73c515a632d704b466',
        'oracle': '26af55df564264046cf24790f13837c4e93e7a4686408e00fc767281b0b6251d',
        'perturbation_series': 'b46854574330b2dda724cf284d5318a706cf3574e2b15977ce28d966c2406f5e',
        'run': '5a143e6b1dadb61ac362e09d2b9897d1684bbb7dfb3f6a8fd050e4f109f1a14f',
        'run_many': 'd5ff918c5bbc66a3b0f9640b4540b42fd4ce4ba6b87a6dc45032df7da158bee8',
    },
    'exp n=64': {
        'equivalence': 'b38236a1b94109b1e7b33a41f6398db348d7fab468fcfe22916a5bb1f5ac7c7d',
        'oracle': '7fe3b9ff81d3ed75002e2549d5072c8b6636e75b0539baa9250cca6cb030362b',
        'perturbation_series': '4b5d61fbe07c93285acb6e0cc05d0daaf8350d9166fed2a9a202c1341d38d7a3',
        'run': 'dd0be65ae5e1f71108dfab52f475ab3ea16cefaa536fbd772bfe3f0e9a281afe',
        'run_many': '31a224071a1447d9a9d99124193d09c422be3753d36d06f37f3a5605c671ba3f',
    },
    'exp uniform-fd n=48': {
        'equivalence': '71eb48a957ef6875b6708e947061c4a0eeac1ba3d94c4bbfd1216d2ee6d918ff',
        'oracle': 'eb81edb4dca32acdd57cf20b2c8cb7ab4cc5b6f977d145c892314841b3b25405',
        'perturbation_series': 'e00074efdd2d12f1ffb126aee783029faae78c6da2252673af476ec46de86016',
        'run': 'be5f54ec5ed6c0d5fefb570453bdbfd3eb6b102a24a88b46518baec90a01bca1',
        'run_many': 'b2744ab8c1f1762269d8e51c3bf48c6ad6370e7c3072cff3b846bc665fa205e2',
    },
    "fourth order, N reads u'' n=24": {
        'equivalence': '176e4bcfb61846d65629bed4e9b8e8fd92938c7b169dd9c6aa9443372f9c3313',
        'oracle': '2eff41bac9f583366892042adcf04c9ae80ed4c7a630c0a5ef480a95c19969d2',
        'perturbation_series': '01aac41d4ef68a487beced3a8f7803651480c61b5b2753d0cac63873ad01a5cd',
        'run': '8f177267ca6a5727176f73c643d3b84d2b5519e35dc1cf314e486fe59d3eef70',
        'run_many': '3e9ae06aacc0f66aa68e8c9d1f2cdd44279a7efbc125774391db12ad83da2fbd',
    },
    'linear-poisson n=32': {
        'equivalence': '1831b587c90af578fe55433cbe435756fd4737c13edf0d9953cf5469015928a2',
        'oracle': '60caf2a93cc1719d12464b22a72797aec1b0aa121ff7ccc3eb7b3a395899a1b1',
        'perturbation_series': '191cf7fe3ca4cd4629f9531624913c814cc594f9e079a28986f95174e9b9abb8',
        'run': '0e3166fc1fe591472e32c78b2dcf9437635dc7046067c6bb9edf1617afbc9551',
        'run_many': 'd10dff670e7f7f3470a9adb1feaf9c2ac4852d4074dd6efbec760a973eed3651',
    },
    'linear-poisson n=64': {
        'equivalence': '5e7294c4fb1322fc40bf3dd1a8838dff730e55c71c2f8abb2b2c9ac118b3af82',
        'oracle': '2890defd6477e9c061404a48da57a6a8321caf1b47b19f6ad3d80ceda186908e',
        'perturbation_series': 'ee4311d92143f90d1d0f65175d3726d17ae9f1a1b69e98d22871487ea35650d1',
        'run': '45c5e575a9839f7822b39745e7826e00f750755c27f010008116b13d0e978e4c',
        'run_many': '31934bb451aaacbb64d2bab2d109b8f6455e5bd3c863b7281157f95765153d2a',
    },
    'manufactured-quad n=32': {
        'equivalence': 'edf67df62b80e5549cc640c5f7832fdfcc15335bebd5a5ac73f117c1c74a7ee0',
        'oracle': '4ff34bef78cc4ee5327af6bdcf0206bad2ad9ffdfabbacbbf1d3756b1a426c61',
        'perturbation_series': '0e7efb8366bb7c0a042fa84b4876528c330c61d5ac3e02a7333f636ba086718d',
        'run': '3d87c908ce51d4f7ad619175693976c44a7e9d301071ca0aa842c750fb5ed6c7',
        'run_many': '2187fbc9ac79915367fa8dd455af8748272d36bcda8554652c4422031d2f861f',
    },
    'manufactured-quad n=64': {
        'equivalence': '371b1c61e5f6a1cd2a5cb36b767aab0c406d50ff93a932fbb06c6852598662d6',
        'oracle': '4a4c220d59bdac3c427098e045cf25cee03e921d648f47ff67014c7099cc0a6e',
        'perturbation_series': 'b3c5614ff0204a09c2744d827a238fce343339d3f7aa8caa5a77163f4b2090d1',
        'run': '3c9615777e39ce54a95b974675c26760c028787f63253e6d9ae2ab0a80da5a08',
        'run_many': '81e9a0ca7f7ca0d9a5952335e47265d7d614bc65d3f7d5352f34ff5d7e550013',
    },
    'manufactured-quad substitute core, H = 1 + r': {
        'perturbation_series': '0e26606b73565574022b39007aecf47973fb7e170f29246bd248920fe6473855',
        'run': 'fa1fd02fe5902922368b05e9346234cf10871fb40baa82d4263a6cc850742cf1',
        'run_many': 'b83b367d9f962dbdc34feb704f136269a41a3d5af15f103275f4435b82e92ccd',
    },
    'riccati-tanh-long n=32': {
        'equivalence': '2f5b9bdd773f38b5c84a47a7e701bbd56ec3004af84751db0ba3787a3ef12f61',
        'oracle': '003366612321bb973df5713c02062437459cedc2e1d68481b7626c6b1b5807c5',
        'perturbation_series': 'a7ef25c808664c79c35be69ebdc853d137a223ae8fbe4548a2309a7b7b579a99',
        'run': 'ba7c28b3ab0dd4bed8adab08628a81b26ad05150b66252438c0ec1966cf54db1',
        'run_many': '38d1cc5dd2d6ab00218564d2421c4e0cb56f1684edc2ef649f14b5b914b14c09',
    },
    'riccati-tanh-long n=64': {
        'equivalence': 'ec7d944fa20bc68ae538318015350678a6faff54d720d362ea957ececb480811',
        'oracle': '4f37104cae0316066fcb751212d23ac4393d8eb6967d1982bbc07d102f8bc992',
        'perturbation_series': '465b2927f42de7e90a02b0d72050334c40f65915e205bd471e0da7f534768b47',
        'run': 'a3b7b3662a747e9109faeb24b34c109943e4beeeb0551092bb1bb9a5bc3abbd6',
        'run_many': '601a968c2b2048765e26ec8a5e1729ff6645e9074dd2fb9c40f5274bca773b85',
    },
    'riccati-tanh-short n=32': {
        'equivalence': '56c38a9b3ba56f47177e9b39118d166ac840d9dcfb3504a42bc5502c99b2d079',
        'oracle': 'e8774c989ab4bd2d8805edcf9110189438bc291f6e831ca6286fdfdf7fac9ead',
        'perturbation_series': '636eca329a996a76eee2b6b7ca025dfd6c31d7b50d228a67a535aa3b31cd5a15',
        'run': 'b36cea82532ab16b5d54c01e9306778ad50b45e8fa233a606355aa3460ca1a38',
        'run_many': '2c30ef2c083f6f3d3282e961400a80089539acbfbe3073969d1af904fc6f2046',
    },
    'riccati-tanh-short n=64': {
        'equivalence': '692f394bda0fb6e1b3f11af7d3597e056606bba26f76f778d4020994a70c53a0',
        'oracle': 'c93755005ccb05e3ce3eb36ce03e665ac7a762bfeaba7170c5e4b9793a1f0606',
        'perturbation_series': 'a6819bbfdfca5d7a4b895355eb6e8075c9185134c6b127cd4b1e6ce98ad3adf7',
        'run': '73dd8e5c521f25a49f0228964b4f3b9f55857c1fd5841d152898be901b8369f6',
        'run_many': '1e77c89a8a5c4c5580783c9e8b97018a13391e0d4a410ca8b711ad646e15c0e7',
    },
    'tanh-short H = 2 - r': {
        'perturbation_series': '3a831378dced6e07f23503e0545842a9ec1b951ff22489cf67b04f8f8995dcb5',
        'run': '088bbd8c2ac83041bf0b6eacdf7c541b4fa1aa04a06b10d8a9025fec70eb2eb9',
        'run_many': '996cd3f8b47171cb44859275817f7e35d471f340b2fc839a534b9b98abe622d9',
    },
    'third order n=32': {
        'equivalence': '754e65ea3fdef19fbe9cf1c9c17fefb7282287ed0d0d20fdd583a80ed8c054ba',
        'oracle': '6f6b22bf5f317f38691e6dc369647b3c239319665bbd84e6271687e5196c62e3',
        'perturbation_series': '877796cec35f1e070792fc45f4ed28777cee01b99abc493e6a790efbface7a10',
        'run': '21f4ac3d46cc60f3b47d7786752547900874c577ad93e3a8d8e2b01531ef5cd1',
        'run_many': '6da43fe03acfbee69797827aec57572f926dac13c280c27c5590c154dc6a7896',
    },
    "u*u' n=40": {
        'equivalence': '9c48b807fa187cba16995309d123299ebc5465687455d5e819473dac3030efe2',
        'oracle': 'e4ad1359fde7d7be5850cd1886a8832fa22fe2850b8556a6afb8481a7f929256',
        'perturbation_series': '7d48d7ae7377b84d5cfcab2ac7a6570516cdfd853f80d5f368be89d23d046e25',
        'run': '10403f9dd4ba0b6768967efbc345e1db7a94eb14ae42f96c0eafbfb833844fa0',
        'run_many': '5962ceec51f4580b34d58534d9c52323de9c7cb417f4bae78996bf1568e033df',
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_digests_unchanged(name):
    assert digests(*_cases()[name]) == GOLDEN[name]


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(_cases())
