"""Blocking rules: what hostnames/SNIs a device censors.

CenFuzz's results (§6.3) hinge on the *shape* of deployed rules: most
devices implement leading-wildcard rules (``*.blockeddomain.tld``), a
smaller share use exact hostnames, a few match a keyword substring, and
trailing-wildcard rules (``blockeddomain.*``) are rare. The rule kinds
here reproduce exactly those observable differences:

* leading pads on the hostname still match suffix rules but break exact
  rules;
* trailing pads break suffix and exact rules (evade);
* changing the TLD breaks suffix/exact rules but not keyword rules;
* changing the subdomain breaks exact rules but not suffix rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

KIND_EXACT = "exact"
KIND_SUFFIX = "suffix"  # leading wildcard: *.domain.tld
KIND_PREFIX = "prefix"  # trailing wildcard: domain.*
KIND_KEYWORD = "keyword"  # substring anywhere in the hostname

ALL_KINDS = (KIND_EXACT, KIND_SUFFIX, KIND_PREFIX, KIND_KEYWORD)

PROTO_HTTP = "http"
PROTO_TLS = "tls"
PROTO_DNS = "dns"


def registrable_domain(hostname: str) -> str:
    """A crude eTLD+1: the last two labels of the hostname."""
    labels = hostname.strip(".").split(".")
    return ".".join(labels[-2:]) if len(labels) >= 2 else hostname


def strip_tld(hostname: str) -> str:
    """Hostname minus its final label (``www.example.com`` -> ``www.example``)."""
    labels = hostname.strip(".").split(".")
    return ".".join(labels[:-1]) if len(labels) >= 2 else hostname


@dataclass(frozen=True)
class BlockRule:
    """One configured rule.

    ``domain`` is the canonical censored hostname (e.g.
    ``www.blocked.example``); ``kind`` controls the match semantics and
    ``protocols`` which protocols the rule applies to. For ``url``-scoped
    HTTP deployments (see quirks), ``paths`` restricts which request
    paths trigger.
    """

    domain: str
    kind: str = KIND_SUFFIX
    protocols: Tuple[str, ...] = (PROTO_HTTP, PROTO_TLS)
    paths: Tuple[str, ...] = ("/",)

    def __post_init__(self) -> None:
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown rule kind: {self.kind}")

    def matches_host(self, hostname: Optional[str]) -> bool:
        """Does ``hostname`` (as extracted off the wire) trigger this rule?"""
        if not hostname:
            return False
        host = hostname.strip().lower().rstrip(".")
        # Strip a trailing port, but only when this actually looks like
        # host:port — keyword engines pass whole payloads through here.
        if ":" in host:
            head, _, tail = host.rpartition(":")
            if tail.isdigit():
                host = head
        target = self.domain.lower()
        if self.kind == KIND_EXACT:
            return host == target
        if self.kind == KIND_SUFFIX:
            # *.domain.tld semantics: the registrable part must be the
            # dot-separated suffix. Also matches the bare domain.
            base = registrable_domain(target)
            return host == base or host.endswith("." + base)
        if self.kind == KIND_PREFIX:
            base = strip_tld(target)
            return host.startswith(base + ".") or host == base
        if self.kind == KIND_KEYWORD:
            keyword = strip_tld(registrable_domain(target))
            return keyword in host
        return False  # pragma: no cover - kinds validated in __post_init__

    def applies_to(self, protocol: str) -> bool:
        return protocol in self.protocols


@dataclass(frozen=True)
class Blocklist:
    """The ordered rule set of one device deployment.

    Frozen: a deployment that changes its rules gets a new blocklist
    (``geo.drift`` rebinds ``device.blocklist``), which is what lets a
    device trust a parse cached against the blocklist it matched.
    """

    rules: Tuple[BlockRule, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    def match(self, hostname: Optional[str], protocol: str) -> Optional[BlockRule]:
        """First rule triggered by ``hostname`` on ``protocol`` (or None)."""
        if not hostname:
            return None
        for rule in self.rules:
            if rule.applies_to(protocol) and rule.matches_host(hostname):
                return rule
        return None

    def domains(self) -> List[str]:
        return [rule.domain for rule in self.rules]

    @classmethod
    def for_domains(
        cls,
        domains: Iterable[str],
        kind: str = KIND_SUFFIX,
        protocols: Sequence[str] = (PROTO_HTTP, PROTO_TLS),
    ) -> "Blocklist":
        return cls(
            rules=tuple(
                BlockRule(domain=d, kind=kind, protocols=tuple(protocols))
                for d in domains
            )
        )
