"""Golden campaign digests: the transit-engine refactor contract.

These constants were captured from the three-loop, module-global-counter
implementation immediately before the unified transit engine and
NetContext landed. The engine must keep producing byte-identical
campaign outputs — serial and parallel, with and without fault plans.
A legitimate behavior change (new measurement semantics) must update
these constants in the same commit that explains why.

Recaptured for meta.json format v3 (kind tag, provenance block,
environment section): every measurement file — traces, fuzz reports,
banners, report — was verified byte-identical against the v2 baseline
per-file hashes; only meta.json changed. The ``environment`` section is
canonicalized away by ``digest_dir`` so the serial == parallel identity
below still holds with worker counts recorded in meta.
"""

import pytest

from ..helpers_golden import campaign_digest

GOLDEN = {
    "az-serial": "af65d39727188aec652053f5288bbd6a8f49b36ccc4322e028382d27b8d21bef",
    "az-par2": "af65d39727188aec652053f5288bbd6a8f49b36ccc4322e028382d27b8d21bef",
    "az-lossy-serial": "62962b5cddf7f5203bd50921c99ffdde38cfacb1337cd1ea502c2168ec9b8bab",
    "az-lossy-par2": "62962b5cddf7f5203bd50921c99ffdde38cfacb1337cd1ea502c2168ec9b8bab",
    "kz-serial": "68ede6f269f27461938794737d92937521b5667d76cc97fd816aa764edf6ff01",
    # Recorded before the fault-plan lotteries landed: flaky fates, the
    # loss profile, ICMP buckets, churn and delivery shaping together.
    "az-chaos-serial": "149bf84cb6447e5bd62331a8e7b5eb43adcadecc2faa500de43251a35a5017b4",
}

CASES = [
    ("AZ", 7, None, "az-serial", None),
    ("AZ", 7, 2, "az-par2", None),
    ("AZ", 7, None, "az-lossy-serial", "lossy"),
    ("AZ", 7, 2, "az-lossy-par2", "lossy"),
    ("KZ", 11, None, "kz-serial", None),
    ("AZ", 7, None, "az-chaos-serial", "chaos"),
]


@pytest.mark.parametrize(
    "country,seed,workers,tag,fault_plan", CASES, ids=[c[3] for c in CASES]
)
def test_campaign_digest_matches_pre_refactor(
    tmp_path, country, seed, workers, tag, fault_plan
):
    digest, _ = campaign_digest(
        tmp_path, country, seed, workers, tag, fault_plan=fault_plan
    )
    assert digest == GOLDEN[tag]


def test_serial_and_parallel_share_a_digest():
    """Sanity on the table itself: the executor contract (bit-identity
    across worker counts) is encoded in the constants."""
    assert GOLDEN["az-serial"] == GOLDEN["az-par2"]
    assert GOLDEN["az-lossy-serial"] == GOLDEN["az-lossy-par2"]
