"""Every mechanism's simulation statistics, pinned byte for byte.

Each digest is the sha256 of :meth:`SimStats.to_json_dict` as canonical
JSON (sorted keys, no whitespace: the check perfbench makes on every
repetition), read from ``simulate(build_kernel(app, 0.25, seed=1), m)``.
A change to how prefetchers are called or composed must leave every
digest as it is; a change to what a mechanism *does* updates its digests
on purpose, in the same commit.

Scale 0.25 is the smallest at which ``intra``, ``bingo`` and ``ideal``
stop reading as no-ops on these apps (at 0.1 ``intra`` and ``bingo``
digest identically).  Bingo still issues nothing here, so its unit tests
in ``test_cpu_prefetchers.py`` carry its logic.
"""

import hashlib
import json

import pytest

from repro.gpusim.gpu import simulate
from repro.prefetch import COMPARISON_POINTS
from repro.workloads import build_kernel

APPS = ("lps", "backprop", "mum", "nw")
MECHANISMS = tuple(
    COMPARISON_POINTS + ["none", "ideal", "domino", "bingo", "isolated-snake"]
)

#: (app, mechanism) -> sha256 of the canonical SimStats JSON, scale 0.25, seed 1
DIGESTS = {
    ("backprop", "bingo"): "9fc09a3534b42e32ff19a2efcbf28f48fa4caf254a8b0d400b3690ccda61c266",
    ("backprop", "cta"): "a9e8d778976679e0bfb919e42731ef6d34b6287bae4585b5a9023ec88b9fbc45",
    ("backprop", "domino"): "a6b06ab9c3530b11e8220706dc75eb40d0f7226465d87ea9b8afe714819c4115",
    ("backprop", "ideal"): "2853ba5be7bb9eff57cfb2a19cf2cb5d60fe712a92e4e9cf29a01ce800a236e0",
    ("backprop", "inter"): "31c45659ceaab824056931cd6e5a5b86a8e7a66e911406e98c00f3f71e900b22",
    ("backprop", "intra"): "b43c5737a0111b698b076fa556101569b9e557592922e1421739f78e9246d962",
    ("backprop", "isolated-snake"): "fc9351e55aff4303be106ddfc1b5124358170339cd9ce52ae8c1196ade95a075",
    ("backprop", "mta"): "cb446706522bc5a1aa0b41e61f037eab6dcebe780097b0f50d0117ed08109b85",
    ("backprop", "none"): "cd18afb34cc939ad7c78a96e28f45c2f115a9e599dfeb1452230f0ad66a29846",
    ("backprop", "s-snake"): "9a0b4bb090cce632bea904553ce626ce9da5cd32814de66845eb8ba3b67f1c33",
    ("backprop", "snake"): "1986dbec552808a71571d425e7f8061af758750ae0d24f7629da8a94eb404c17",
    ("backprop", "snake+cta"): "02b20ab26dc69e81133b1ca8e7829013d505e48bee150488b3ce840a78ed7c72",
    ("backprop", "snake-dt"): "6562398f51dc9ea5beee236acf7f997ea4137a5359ea3935585beb028c79d474",
    ("backprop", "snake-t"): "1986dbec552808a71571d425e7f8061af758750ae0d24f7629da8a94eb404c17",
    ("backprop", "tree"): "76ac653bbfb080ceff07e7b59374299636b57f070fb35c5e331fb78f6f31a953",
    ("lps", "bingo"): "27f5ad5ea11540c7d1de5e1f11e3c8e2aaafd27b5db44743421884f9ea52a921",
    ("lps", "cta"): "79b3e48c16cb34972750b9e1cb5c8a8b50c112f8f629d85b1ee5eef46120ef42",
    ("lps", "domino"): "7d22dd6575077ebb3d213e037d8e38b3a8460a6d57b46806b8f14256f65d688f",
    ("lps", "ideal"): "abb0a317196640a9c3ebda93690921f1f48336f1a6adfa27e0447120bc40aad6",
    ("lps", "inter"): "08e469e32771142fa562cc47829d23212cc4e6fda827cabb46d880474ee6d83a",
    ("lps", "intra"): "4a1c6479c410008f31b051bbefadbf091bd1017d40356d70431a3d3710ce448b",
    ("lps", "isolated-snake"): "b89595e84e3993a5ce83838ca46979c9e6d7fb74f3fc752ff4ff5be9ed8eab47",
    ("lps", "mta"): "056203efaffffb576e7fcb7d55594aa36028539bad65e355c6678c788df5affa",
    ("lps", "none"): "28db655cec186bd7ee5fc48dfdb3ef2198962f3c469443a8156a748428f8e23f",
    ("lps", "s-snake"): "00f81fc718cea2a8cfef7249809f263fd331efaa6096be17448922d82d73a950",
    ("lps", "snake"): "5c061de35eae0eb550a6e0c982e0486635ee3f6118d30c11844af76b57aeff6a",
    ("lps", "snake+cta"): "e8b844ec266150365ec98d8f4ad5f6840b4fdc1ab83851c10c9ee6d418864ac8",
    ("lps", "snake-dt"): "d9bd0210f729e3a1c6eb1a65e4435922f73b5939d21f95029866d824137e344c",
    ("lps", "snake-t"): "5c061de35eae0eb550a6e0c982e0486635ee3f6118d30c11844af76b57aeff6a",
    ("lps", "tree"): "827fa3d53ed750f638fe055a7cc6bd7ebccb2a229cb705a143a5645090d59f4f",
    ("mum", "bingo"): "526c2189d8ab0eaf3ee70d65244a4bf002dbfab3b8321a219c4b258c18dac8be",
    ("mum", "cta"): "88c82bd52794882a6b78967f8140d5f4cf505bd0557cc825efc2116dc20a2d69",
    ("mum", "domino"): "fcb6d2a220ad6c5b8acde13c320ffd72ef00fb04a9588d4c591f6248b2e118a0",
    ("mum", "ideal"): "920ed2410e4b3f1067110a3c28ce38b58cee02eadb8ba86c21e2ba08e86fa084",
    ("mum", "inter"): "3b94ffe4c15288e1848f28094f535fb54c21cf158118c1611cb9d281c2b5e377",
    ("mum", "intra"): "98122a4a47dfa32a7737f8f4fc1e9c3b745af380f0a48bdc1e506282c425ae6f",
    ("mum", "isolated-snake"): "62f61caadec99c62e7d38d1f18943a0d01ef21b5acb2bc3ebbdc4d7f928391cb",
    ("mum", "mta"): "45788ed602d878c71e68687116f5fbabd9e3db83769088ac74332448662cf456",
    ("mum", "none"): "ba1e0c65f081b7fa54420a35928d711a14b104baeacdf4df28abfcc66a081d40",
    ("mum", "s-snake"): "1fe9e0de618e546af3739438a12220b215c86ac1762cfc4a7e8aaf62df19d7e6",
    ("mum", "snake"): "3ccfa567db24a7288b86bce15927661705c0ff94a0c690d93ab18491da5ce445",
    ("mum", "snake+cta"): "201bfe53cd8fe405698648391fb8c5d2015f51ae160b6bd0d8fe03d292134576",
    ("mum", "snake-dt"): "33a708314e4c5941b6b34cb963040958332b57e2faffb8cb2b0fb1f87513c1d6",
    ("mum", "snake-t"): "3ccfa567db24a7288b86bce15927661705c0ff94a0c690d93ab18491da5ce445",
    ("mum", "tree"): "57475f87dab1baf94101a83096894f4e4700116d0f29ecbec946ada4a6ffb396",
    ("nw", "bingo"): "a5777113e9ac0e279428bea0f0117e7c00625aa28d0394c3ff14a8159e964db4",
    ("nw", "cta"): "b3832bf6b5d6587d1e7f1fefe0cbace6c327affa749f0d590347309a76704809",
    ("nw", "domino"): "4e443ef10c9eaf02a7188bb1e986ef9999eff17babac3af194820550efe77cc3",
    ("nw", "ideal"): "a905bde0d79dae40023a283f768533e5ad49adecec5f0811e6de8d5a753f3257",
    ("nw", "inter"): "bceecb76e5d6331a5036192dd4c917e95abcaad3e6f933e1491f5ae907720025",
    ("nw", "intra"): "a5777113e9ac0e279428bea0f0117e7c00625aa28d0394c3ff14a8159e964db4",
    ("nw", "isolated-snake"): "072884cbd9c82aca05b70c239da723fb888e0ea6ff12269685a19a1fe260c799",
    ("nw", "mta"): "c7d4c81857b65d0c32976fffff5962266bef58441bcfabfb7c6f4b28279d755c",
    ("nw", "none"): "01715c78c6cb053fc451624a78e598a43108a0da7dfa5dcc063361304684beb2",
    ("nw", "s-snake"): "f35b6edc43fd0f0fb7acf7eddcc25e36781bf32d5c698e18994385efbc93cebe",
    ("nw", "snake"): "001150aa7db40149b79fa0d26264bdb05c48edd8e2334b88761ade89009f1003",
    ("nw", "snake+cta"): "ca4c50a07bb6780a71fd66ceaab13103244f0f61b2953f7cbe21b5245ac48adc",
    ("nw", "snake-dt"): "ffda3f74c6dae74289bfcf407c730f37bdc0f6f1140cb0e1f31d81f8611a861f",
    ("nw", "snake-t"): "001150aa7db40149b79fa0d26264bdb05c48edd8e2334b88761ade89009f1003",
    ("nw", "tree"): "35141b70ca0051d8bd44b5c567d2fe9211f4f00fda1daa4aac572a9836d7011a",
}


def test_every_mechanism_is_pinned():
    assert set(DIGESTS) == {(app, m) for app in APPS for m in MECHANISMS}


@pytest.mark.parametrize("app, mechanism", sorted(DIGESTS))
def test_stats_digest(app, mechanism):
    stats = simulate(build_kernel(app, scale=0.25, seed=1), mechanism)
    payload = json.dumps(
        stats.to_json_dict(), sort_keys=True, separators=(",", ":")
    )
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    assert digest == DIGESTS[app, mechanism]
