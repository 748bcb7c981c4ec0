"""The canonical CLI reports, pinned by digest.

Each op runs in-process; its JSON report, which must hold no ``Infinity`` or
``NaN`` (RFC 8259 allows neither), is dumped with sorted keys, ``timing``
dropped, and hashed.  An exact value, a report field or an ``rmt`` gate
(its width in standard errors, or its finite-M floor 2/M) that changes moves
the digest.  At M = 100 and M = 101 four standard errors exceed 4/M, so the
floor never binds there; at M = 20 it binds for n = 2 and 3.  A change that
alters a report on purpose updates its digest here and names the changed
fields.
"""

import hashlib
import json

import pytest

from splitmoments import cli

DIGESTS = {
    "vanish --r 19 --n 20 --sigma 1/10 --sign minus":
        "34621ffb577a0d42067b756e204f7c6f2e3fefc94291ccd8e67b923440ebf57b",
    "moment --sigma 1/30 --n 60 --sign minus":
        "df193e5812b600ebe7128c97c000df76e60451a81f0984d86b563b91ac9dda3c",
    "crosscheck --sigma 1/10 --n 20":
        "bdc6a4ceaf31e73a211150b43fd7b4071aec4aa140fdd694ce52437d0d44bac0",
    "moment --sigma 1/2 --n 4":
        "5f1242412d39651d4f4043c178f14fac8b52e3604ecb4fa881b473bd90008cc5",
    "verify all --quick":
        "45f9ce57ed7ebb8c13157af1329b3882ce720e915d56eae4cc404a9b9fe5c814",
    "verify combinat --n 8":
        "84cc9778fbacc31e9c7b53f83b4d5e00ebe0a0c2fb3d52e5eb1e03dd8e28e8b4",
    "rmt --M 100 --sigma 3/5 --samples 2000 --nmax 4 --seed 1":
        "be1bd3796f2f34f7fdb5b37770e05d9b84310b90baf6b94de591cf63d5481b6c",
    "rmt --M 101 --sigma 1/10 --samples 2000 --nmax 4 --seed 1":
        "6353af4825aa6e1e6c16048a7184d77e2b6cf8dfa69c1846151ca80ef02418cf",
    "rmt --M 20 --sigma 1/2 --samples 2000 --nmax 4 --seed 1":
        "df2fe102c1d93bf7376d587d266b4060d78a84808b7882a2d0c0e95d2cdc5e7c",
}


def _no_constants(name):
    raise ValueError(f"{name} is not a JSON number")


@pytest.mark.parametrize("op", list(DIGESTS))
def test_report_digest_pinned(op, capsys):
    assert cli.main(op.split()) == 0
    report = json.loads(capsys.readouterr().out, parse_constant=_no_constants)
    del report["timing"]
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == DIGESTS[op]
