"""Wire-format packet models: IPv4, TCP, Ethernet, checksums, fragmentation.

This package is the lowest substrate of the reproduction: byte-exact
parsing and serialization so that traces are real pcap artifacts and the
evasion toolkit manipulates genuine wire images.
"""

from .batch import FlowTuple, PacketBatch, flow_of_tuple, ip_u32_to_str, tuple_of_flow
from .checksum import internet_checksum, pseudo_header, verify_checksum
from .errors import (
    ChecksumError,
    MalformedPacketError,
    PacketError,
    TruncatedPacketError,
)
from .ether import ETHERTYPE_IPV4, EthernetFrame, bytes_to_mac, mac_to_bytes
from .flows import (
    FlowKey,
    TimedPacket,
    build_tcp_packet,
    decode_tcp,
    flow_key_of,
    packet_fields,
    transport_fields,
)
from .ip import (
    IP_PROTO_ICMP,
    IP_PROTO_TCP,
    IP_PROTO_UDP,
    IPv4Packet,
    bytes_to_ip,
    fragment,
    ip_to_bytes,
)
from .udp import UdpDatagram, build_udp_packet, decode_udp
from .tcp import (
    TCP_ACK,
    TCP_FIN,
    TCP_PSH,
    TCP_RST,
    TCP_SYN,
    TCP_URG,
    TcpSegment,
    flags_to_str,
    mss_option_bytes,
    seq_add,
    seq_diff,
)

__all__ = [
    "ChecksumError",
    "ETHERTYPE_IPV4",
    "EthernetFrame",
    "FlowKey",
    "FlowTuple",
    "IP_PROTO_ICMP",
    "IP_PROTO_TCP",
    "IP_PROTO_UDP",
    "IPv4Packet",
    "MalformedPacketError",
    "PacketBatch",
    "PacketError",
    "TCP_ACK",
    "TCP_FIN",
    "TCP_PSH",
    "TCP_RST",
    "TCP_SYN",
    "TCP_URG",
    "TcpSegment",
    "TimedPacket",
    "TruncatedPacketError",
    "UdpDatagram",
    "build_udp_packet",
    "decode_udp",
    "build_tcp_packet",
    "bytes_to_ip",
    "bytes_to_mac",
    "decode_tcp",
    "flags_to_str",
    "flow_key_of",
    "flow_of_tuple",
    "fragment",
    "internet_checksum",
    "ip_to_bytes",
    "ip_u32_to_str",
    "mac_to_bytes",
    "mss_option_bytes",
    "packet_fields",
    "pseudo_header",
    "seq_add",
    "seq_diff",
    "transport_fields",
    "tuple_of_flow",
    "verify_checksum",
]
