"""Split-Detect: detecting evasion attacks at high speeds without reassembly.

A from-scratch reproduction of Varghese, Fingerhut & Bonomi (SIGCOMM 2006).
Subpackages:

- ``repro.packet``     wire-format IPv4/TCP/Ethernet models
- ``repro.pcap``       libpcap savefile I/O
- ``repro.streams``    TCP reassembly, IP defragmentation, normalization
- ``repro.match``      Aho-Corasick string matching and the q-gram sweep
- ``repro.signatures`` signature corpus, Snort-content rule parser, the splitter
- ``repro.core``       the Split-Detect IPS and the conventional-IPS baseline
- ``repro.evasion``    FragRoute-style evasion transforms
- ``repro.traffic``    synthetic benign/attack trace generation
- ``repro.metrics``    state and processing cost models, throughput estimation
- ``repro.theory``     the detection theorem as executable predicates

See README.md for a quickstart and DESIGN.md for the full system inventory.
"""

__version__ = "1.0.0"
