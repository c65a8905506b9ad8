"""Device and interface model.

A *device* is the unit the paper wants to recover: a router or host with one
or more interfaces, each carrying an IPv4 or IPv6 address.  Application-layer
configuration (SSH host key and algorithm lists, BGP identifier and
capabilities, SNMPv3 engine ID) is a property of the device, not of the
interface — this asymmetry between device-wide identifiers and per-interface
addresses is what makes alias resolution possible.

Service ACLs restrict on which addresses a service answers, reproducing the
paper's observation that firewalls and access control can limit alias
inference even when the device runs the service.
"""

from __future__ import annotations

import dataclasses
import enum

from repro.errors import SimulationError
from repro.net.addresses import is_ipv4, is_ipv6
from repro.net.ipid import IpidCounter, MonotonicIpidCounter
from repro.protocols.bgp.speaker import BgpSpeakerConfig
from repro.protocols.snmp.engine import SnmpEngineConfig
from repro.protocols.ssh.server import SshServerConfig
from repro.simnet.icmp_policy import IcmpUnreachablePolicy


class DeviceRole(enum.Enum):
    """Coarse function of a device within its AS."""

    CORE_ROUTER = "core_router"
    BORDER_ROUTER = "border_router"
    ACCESS_ROUTER = "access_router"
    SERVER = "server"
    CPE = "cpe"


class ServiceType(enum.Enum):
    """Scannable services used for alias resolution."""

    SSH = "ssh"
    BGP = "bgp"
    SNMPV3 = "snmpv3"


#: Default TCP/UDP port per service.
SERVICE_PORTS = {ServiceType.SSH: 22, ServiceType.BGP: 179, ServiceType.SNMPV3: 161}

#: Service by its value: one dict lookup where decoders would otherwise make
#: an ``Enum`` call per record (an unknown value raises ``KeyError``).
SERVICE_TYPES_BY_VALUE = {service.value: service for service in ServiceType}


@dataclasses.dataclass(frozen=True)
class Interface:
    """A single addressed interface of a device.

    Attributes:
        name: interface name (``eth0``, ``ae0.12``…), unique within a device.
        address: IPv4 or IPv6 address in canonical string form.
        asn: the AS that owns the address.  Border routers have interfaces
            whose addresses belong to neighbouring ASes.
    """

    name: str
    address: str
    asn: int


@dataclasses.dataclass
class Device:
    """A device (router or host) in the simulated Internet.

    Attributes:
        device_id: globally unique identifier (ground-truth key).
        role: coarse device role.
        home_asn: AS operating the device.
        interfaces: all addressed interfaces.
        ssh_config: SSH service configuration, if the device runs SSH.
        bgp_config: BGP speaker configuration, if the device speaks BGP.
        snmp_config: SNMPv3 engine configuration, if the device runs SNMP.
        service_acl: per-service set of addresses the service answers on;
            a service absent from the mapping answers on every interface.
        ipid_counter: the device's IPID behaviour (for the MIDAR baseline).
        icmp_unreachable_policy: how the device sources ICMP port-unreachable
            replies (for the iffinder baseline).
        vendor: vendor label used for misconfiguration modelling.
        hostname: DNS host name (used by the PTR baseline).
    """

    device_id: str
    role: DeviceRole
    home_asn: int
    interfaces: list[Interface] = dataclasses.field(default_factory=list)
    ssh_config: SshServerConfig | None = None
    bgp_config: BgpSpeakerConfig | None = None
    snmp_config: SnmpEngineConfig | None = None
    service_acl: dict[ServiceType, frozenset[str]] = dataclasses.field(default_factory=dict)
    ipid_counter: IpidCounter = dataclasses.field(default_factory=MonotonicIpidCounter)
    icmp_unreachable_policy: IcmpUnreachablePolicy = IcmpUnreachablePolicy.FROM_PROBED
    vendor: str = "generic"
    hostname: str = ""

    def __post_init__(self) -> None:
        names = [interface.name for interface in self.interfaces]
        if len(names) != len(set(names)):
            raise SimulationError(f"device {self.device_id} has duplicate interface names")
        addresses = [interface.address for interface in self.interfaces]
        if len(addresses) != len(set(addresses)):
            raise SimulationError(f"device {self.device_id} has duplicate addresses")

    # ------------------------------------------------------------------ #
    # Address accessors
    # ------------------------------------------------------------------ #
    def addresses(self) -> list[str]:
        """Every address of the device (IPv4 and IPv6)."""
        return [interface.address for interface in self.interfaces]

    def ipv4_addresses(self) -> list[str]:
        """IPv4 addresses of the device."""
        return [address for address in self.addresses() if is_ipv4(address)]

    def ipv6_addresses(self) -> list[str]:
        """IPv6 addresses of the device."""
        return [address for address in self.addresses() if is_ipv6(address)]

    def interface_for(self, address: str) -> Interface:
        """Return the interface carrying ``address``."""
        for interface in self.interfaces:
            if interface.address == address:
                return interface
        raise SimulationError(f"device {self.device_id} has no interface with address {address}")

    def add_interface(self, interface: Interface) -> None:
        """Attach a new interface, keeping name/address uniqueness."""
        if any(existing.name == interface.name for existing in self.interfaces):
            raise SimulationError(f"duplicate interface name {interface.name} on {self.device_id}")
        if any(existing.address == interface.address for existing in self.interfaces):
            raise SimulationError(f"duplicate address {interface.address} on {self.device_id}")
        self.interfaces.append(interface)

    @property
    def is_dual_stack(self) -> bool:
        """Whether the device has at least one IPv4 and one IPv6 address."""
        return bool(self.ipv4_addresses()) and bool(self.ipv6_addresses())

    def asns(self) -> set[int]:
        """The set of ASes that own this device's addresses."""
        return {interface.asn for interface in self.interfaces}

    # ------------------------------------------------------------------ #
    # Service accessors
    # ------------------------------------------------------------------ #
    def runs_service(self, service: ServiceType) -> bool:
        """Whether the device runs the given service at all."""
        if service is ServiceType.SSH:
            return self.ssh_config is not None
        if service is ServiceType.BGP:
            return self.bgp_config is not None
        return self.snmp_config is not None

    def service_addresses(self, service: ServiceType) -> list[str]:
        """Addresses on which ``service`` actually answers (ACL applied)."""
        if not self.runs_service(service):
            return []
        acl = self.service_acl.get(service)
        if acl is None:
            return self.addresses()
        return [address for address in self.addresses() if address in acl]

    def answers_on(self, service: ServiceType, address: str) -> bool:
        """Whether ``service`` answers on ``address``."""
        return address in self.service_addresses(service)

    def services(self) -> list[ServiceType]:
        """Services the device runs."""
        return [service for service in ServiceType if self.runs_service(service)]
