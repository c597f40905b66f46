"""§4.1 "Rich interdomain peering" — obtaining peers at AMS-IX.

Reproduces the membership/peering numbers:

* 669 member ASes, 554 on the route servers (instant multilateral
  peering on session establishment);
* of the 115 others: 48 open / 12 closed / 40 case-by-case / 15 unlisted;
* bilateral requests to open-policy members: "the vast majority
  accepted", a handful unresponsive, one replied with questions.
"""

import pytest
from conftest import emit

from repro.inet.gen import InternetConfig, build_amsix, build_internet
from repro.inet.ixp import RequestOutcome
from repro.inet.topology import ASKind, ASNode, PeeringPolicy


@pytest.fixture(scope="module")
def world():
    internet = build_internet(InternetConfig())
    ixp = build_amsix(internet)
    peering = ASNode(asn=47065, name="PEERING", kind=ASKind.TESTBED)
    internet.graph.add_as(peering)
    ixp.add_member(47065)
    return internet, ixp


def test_membership_structure(world, benchmark):
    _internet, ixp = world
    census = benchmark(ixp.policy_census)
    rows = [
        ["member ASes", ixp.member_count() - 1, "(paper: 669)"],
        ["route-server members", len(ixp.route_server_members()), "(paper: 554)"],
        ["bilateral-only members", len(ixp.non_route_server_members()) - 1, "(paper: 115)"],
        ["  open policy", census.get(PeeringPolicy.OPEN, 0), "(paper: 48)"],
        ["  closed policy", census.get(PeeringPolicy.CLOSED, 0), "(paper: 12)"],
        ["  case-by-case", census.get(PeeringPolicy.CASE_BY_CASE, 0), "(paper: 40)"],
        ["  unlisted", census.get(PeeringPolicy.UNLISTED, 0), "(paper: 15)"],
    ]
    emit("§4.1: AMS-IX membership", rows)
    assert ixp.member_count() - 1 == 669  # excluding PEERING itself
    assert len(ixp.route_server_members()) == 554
    assert census[PeeringPolicy.OPEN] == 48
    assert census[PeeringPolicy.CLOSED] == 12
    assert census[PeeringPolicy.CASE_BY_CASE] == 40
    assert census[PeeringPolicy.UNLISTED] == 15


def test_route_server_instant_peering(world, benchmark):
    """One session to the route server = peering with all RS members."""
    _internet, ixp = world

    gained = benchmark.pedantic(
        ixp.join_route_server, args=(47065,), rounds=1, iterations=1
    )
    emit(
        "§4.1: route-server join",
        [["peers gained instantly", len(gained), "(paper: 554)"]],
    )
    assert len(gained) == 554


def test_bilateral_requests_mostly_accepted(world, benchmark):
    _internet, ixp = world

    def campaign():
        return ixp.request_all_open(47065)

    results = benchmark.pedantic(campaign, rounds=1, iterations=1)
    outcomes = {}
    for request in results:
        outcomes[request.outcome] = outcomes.get(request.outcome, 0) + 1
    accepted = outcomes.get(RequestOutcome.ACCEPTED, 0)
    emit(
        "§4.1: bilateral requests to open-policy members",
        [
            ["requests sent", len(results), "(paper: 'a few dozen')"],
            ["accepted", accepted, "(paper: 'the vast majority')"],
            ["no response", outcomes.get(RequestOutcome.NO_RESPONSE, 0), "(paper: 'a handful')"],
            ["asked questions", outcomes.get(RequestOutcome.QUESTIONS, 0), "(paper: 1)"],
            ["rejected", outcomes.get(RequestOutcome.REJECTED, 0), ""],
        ],
    )
    assert len(results) == 48
    assert accepted / len(results) > 0.7  # the vast majority
    assert outcomes.get(RequestOutcome.NO_RESPONSE, 0) <= 10
