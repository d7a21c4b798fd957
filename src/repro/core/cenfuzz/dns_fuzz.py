"""DNS query fuzzing against injectors (the §8 extension's CenFuzz).

Strategies probe the classic DNS-injector blind spots:

* **0x20 encoding** — mixed-case qnames (case-sensitive matchers miss
  them; resolvers answer case-insensitively);
* **qtype alternation** — AAAA/TXT queries (many injectors only watch
  A queries);
* **qname dressing** — trailing dot, prepended label.

Evasion is judged with a *TTL oracle*: the fuzzed query is sent with a
TTL too small to reach the resolver, so any answer that comes back must
have been forged by an on-path injector. No answer at oracle TTL means
the mutation evaded the injector's matcher — re-sending at full TTL
then shows whether the real resolver still understands the query
(the circumvention half).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ...netmodel.dns import DNSMessage, QTYPE_A, QTYPE_AAAA, QTYPE_TXT, query
from ...netmodel.packet import udp_packet
from ...netsim.simulator import Simulator
from ...netsim.topology import Client


@dataclass(frozen=True)
class DNSPermutation:
    """One fuzzed DNS query variant."""

    strategy: str
    label: str
    build: Callable[[str, int], bytes]  # (domain, txid) -> payload


def _mixed_case(domain: str, pattern: int) -> str:
    out = []
    bit = 0
    for char in domain:
        if char.isalpha():
            out.append(char.upper() if (pattern >> (bit % 16)) & 1 else char.lower())
            bit += 1
        else:
            out.append(char)
    return "".join(out)


def dns_strategies() -> Dict[str, List[DNSPermutation]]:
    """The DNS fuzzing strategy catalog."""
    strategies: Dict[str, List[DNSPermutation]] = {}

    def add(strategy: str, label: str, build) -> None:
        strategies.setdefault(strategy, []).append(
            DNSPermutation(strategy, label, build)
        )

    for pattern in (0b101010101, 0b110011001, 0b111000111, 0b1):
        add(
            "Qname 0x20 Enc.",
            f"pattern{pattern:03x}",
            lambda d, txid, _p=pattern: query(
                _mixed_case(d, _p), txid=txid
            ).to_bytes(),
        )
    for qtype, label in ((QTYPE_AAAA, "AAAA"), (QTYPE_TXT, "TXT")):
        add(
            "Qtype Alt.",
            label,
            lambda d, txid, _q=qtype: query(d, txid=txid, qtype=_q).to_bytes(),
        )
    add(
        "Qname Dress.",
        "trailing-dot",
        lambda d, txid: query(d + ".", txid=txid).to_bytes(),
    )
    add(
        "Qname Dress.",
        "prepended-label",
        lambda d, txid: query("x7f." + d, txid=txid).to_bytes(),
    )
    return strategies


@dataclass
class DNSPermutationResult:
    strategy: str
    label: str
    injected_at_oracle: bool  # forged answer still appeared
    resolver_answered: bool  # the real resolver handled the mutation
    successful: bool  # evaded the injector
    circumvented: bool  # evaded AND resolved


@dataclass
class DNSFuzzReport:
    endpoint_ip: str
    test_domain: str
    oracle_ttl: int
    normal_injected: bool = False
    results: List[DNSPermutationResult] = field(default_factory=list)

    def success_by_strategy(self) -> Dict[str, tuple]:
        counts: Dict[str, List[int]] = {}
        for result in self.results:
            entry = counts.setdefault(result.strategy, [0, 0])
            entry[1] += 1
            if result.successful:
                entry[0] += 1
        return {k: (v[0], v[1]) for k, v in counts.items()}


class DNSFuzzer:
    """Runs the DNS strategy catalog against one resolver's path."""

    def __init__(self, sim: Simulator, client: Client) -> None:
        self.sim = sim
        self.client = client
        self.engine = sim.batch_engine()
        self._strategies = dns_strategies()

    def _send(self, endpoint_ip: str, payload: bytes, ttl: int) -> List:
        net = self.sim.net_context
        sport = net.next_ephemeral_port()
        packet = udp_packet(
            self.client.ip,
            endpoint_ip,
            sport,
            53,
            payload=payload,
            ttl=ttl,
            net=net,
        )
        received = self.engine.send(packet)
        self.sim.advance(3.0)
        return [p for p in received if p.is_udp]

    def estimate_oracle_ttl(self, endpoint_ip: str, control_domain: str) -> int:
        """The largest TTL at which the resolver cannot answer.

        Walks the control domain up from TTL 1 until the resolver's
        answer appears; the oracle is one hop short of that.
        """
        for ttl in range(1, 32):
            answers = self._send(
                endpoint_ip, query(control_domain, txid=ttl).to_bytes(), ttl
            )
            if answers:
                return max(1, ttl - 1)
        raise RuntimeError(f"resolver {endpoint_ip} never answered")

    def run_endpoint(
        self,
        endpoint_ip: str,
        test_domain: str,
        control_domain: str = "www.example.com",
        oracle_ttl: Optional[int] = None,
    ) -> DNSFuzzReport:
        if oracle_ttl is None:
            oracle_ttl = self.estimate_oracle_ttl(endpoint_ip, control_domain)
        report = DNSFuzzReport(
            endpoint_ip=endpoint_ip,
            test_domain=test_domain,
            oracle_ttl=oracle_ttl,
        )
        normal = query(test_domain, txid=0x5151).to_bytes()
        report.normal_injected = bool(
            self._send(endpoint_ip, normal, oracle_ttl)
        )
        if not report.normal_injected:
            return report  # nothing injects here; nothing to fuzz
        txid = 0x6000
        for strategy, permutations in sorted(self._strategies.items()):
            for permutation in permutations:
                txid += 1
                payload = permutation.build(test_domain, txid)
                injected = bool(self._send(endpoint_ip, payload, oracle_ttl))
                resolver_answers = [
                    p
                    for p in self._send(endpoint_ip, payload, 64)
                    if p.ip.src == endpoint_ip or not injected
                ]
                resolved = False
                for answer in resolver_answers:
                    try:
                        message = DNSMessage.from_bytes(answer.udp.payload)
                    except ValueError:
                        continue
                    if message.is_response and (
                        message.answers or message.rcode == 0
                    ):
                        resolved = True
                report.results.append(
                    DNSPermutationResult(
                        strategy=permutation.strategy,
                        label=permutation.label,
                        injected_at_oracle=injected,
                        resolver_answered=resolved,
                        successful=not injected,
                        circumvented=not injected and resolved,
                    )
                )
        return report
