"""Scan blocklist.

Internet-wide scanning best practice (and the paper's ethics section)
requires honouring opt-out requests: addresses and prefixes on the blocklist
are never probed.  The blocklist accepts both single addresses and CIDR
prefixes, for IPv4 and IPv6.
"""

from __future__ import annotations

import ipaddress
from typing import Iterable

_IpAddress = ipaddress.IPv4Address | ipaddress.IPv6Address


class Blocklist:
    """A set of addresses and prefixes that must not be scanned.

    A campaign checks the same target list once per service, so every
    queried address is parsed and canonicalised once per instance and
    remembered.  The memo lives as long as the blocklist, which a scan
    campaign holds for one session.  A malformed address is never
    memoised and raises on every lookup.
    """

    def __init__(self, entries: Iterable[str] = ()) -> None:
        self._networks: list[ipaddress.IPv4Network | ipaddress.IPv6Network] = []
        self._addresses: set[str] = set()
        self._parsed: dict[str, tuple[str, _IpAddress]] = {}
        for entry in entries:
            self.add(entry)

    def add(self, entry: str) -> None:
        """Add an address or CIDR prefix to the blocklist."""
        if "/" in entry:
            self._networks.append(ipaddress.ip_network(entry, strict=False))
        else:
            self._addresses.add(str(ipaddress.ip_address(entry)))

    def _parse(self, address: str) -> tuple[str, _IpAddress]:
        """(canonical string, parsed address) of ``address``, memoised."""
        known = self._parsed.get(address)
        if known is None:
            parsed = ipaddress.ip_address(address)
            known = (str(parsed), parsed)
            self._parsed[address] = known
        return known

    def __contains__(self, address: str) -> bool:
        canonical, parsed = self._parse(address)
        if canonical in self._addresses:
            return True
        if not self._networks:
            return False
        return any(
            parsed.version == network.version and parsed in network for network in self._networks
        )

    def __len__(self) -> int:
        return len(self._addresses) + len(self._networks)

    def filter(self, addresses: Iterable[str]) -> list[str]:
        """Return the addresses that are allowed to be scanned."""
        return [address for address in addresses if address not in self]
