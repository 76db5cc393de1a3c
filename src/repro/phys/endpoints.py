"""IP endpoints and tiny address-space helpers.

IPs are plain dotted strings; subnets are dotted prefixes (``"10.5.1."``).
That is all the structure the NAT and routing models need, and it keeps
every address printable in traces.
"""

from __future__ import annotations

from typing import NamedTuple


class Endpoint(NamedTuple):
    """A transport endpoint: (ip, port)."""

    ip: str
    port: int

    def __str__(self) -> str:
        return f"{self.ip}:{self.port}"

    @classmethod
    def parse(cls, text: str) -> "Endpoint":
        """Inverse of ``str()``: ``Endpoint.parse("10.0.0.2:14001")``."""
        ip, _, port = text.rpartition(":")
        if not ip or not port.isdigit():
            raise ValueError(f"not an ip:port endpoint: {text!r}")
        return cls(ip, int(port))


def ip_in_subnet(ip: str, subnet_prefix: str) -> bool:
    """True when ``ip`` belongs to the dotted-prefix ``subnet_prefix``.

    >>> ip_in_subnet("10.5.1.7", "10.5.1.")
    True
    >>> ip_in_subnet("10.51.1.7", "10.5.1.")
    False
    """
    if not subnet_prefix.endswith("."):
        subnet_prefix += "."
    return ip.startswith(subnet_prefix)


class IpAllocator:
    """Sequential allocator of host addresses inside a subnet prefix."""

    def __init__(self, subnet_prefix: str, first: int = 2):
        if not subnet_prefix.endswith("."):
            subnet_prefix += "."
        self.prefix = subnet_prefix
        self._next = first

    def allocate(self) -> str:
        """Next free address in the subnet; raises when exhausted."""
        if self._next > 254:
            raise ValueError(f"subnet {self.prefix} exhausted")
        ip = f"{self.prefix}{self._next}"
        self._next += 1
        return ip
