"""Flight-layout pins: the engine's server flights, byte for byte.

The shape-keyed flight layout is the engine's only flight encoder.  For
every server profile, twelve fresh client Initials yield a fixed
sequence of datagrams whose sha256 is pinned below.  The pins were
recorded while a frame-by-frame rebuild of each flight still existed and
produced the same bytes.  The rng draw order is part of the contract
(one 256-bit draw per flight, before the packet numbers advance), so a
change to it moves every pin.
"""

import hashlib
import random

import pytest

from repro.netstack.addr import parse_ip
from repro.quic.crypto.memo import clear_crypto_memos
from repro.server.engine import QuicServerEngine
from repro.server.profiles import (
    cloudflare_profile,
    facebook_profile,
    generic_profile,
    google_profile,
    quic_lb_profile,
)
from repro.simnet.eventloop import EventLoop
from repro.tls.certs import Certificate
from repro.workloads.clients import ClientConnection

VIP = parse_ip("157.240.1.10")
CLIENT = parse_ip("44.1.2.3")

CERT = Certificate(
    subject="*.example.com", subject_alt_names=("*.example.com", "*.example.net")
)

PROFILES = {
    "cloudflare": lambda: cloudflare_profile(colo_id=3),
    "facebook": lambda: facebook_profile(),
    "google": lambda: google_profile(),
    "quic_lb": lambda: quic_lb_profile(),
    "generic": lambda: generic_profile("generic-1234", random.Random(1234)),
}


#: profile -> (datagram count, digest of the length-prefixed datagrams).
FLIGHT_PINS = {
    "cloudflare": (24, "ddb26780dec54464a3c9f0925e33ce18f3be4b1b2bca10fa0f9b2980e54beca2"),
    "facebook": (24, "d77de1753225c480d791c424e8065483a2f7138931d483ad294f9620090485fa"),
    "generic": (24, "d9e44bc57e9c8c2772bb3f9b1d46febf6e372c62d4d7e9689ccabd54203f51e6"),
    "google": (15, "8ca7cbc94bec0ab820c187f5199d5a6c1f7fdd0896334a93c6ee356ecba6fd7b"),
    "quic_lb": (21, "4bb02f556e737904bfbca112fbca64805c3902831dd0d301b7c6a44cca68a445"),
}

#: The same twelve handshakes with ``CERT`` in the Handshake CRYPTO stream.
CERT_FLIGHT_PINS = {
    "cloudflare": (24, "768520819850f40c0316dceb889294812d8e2ae56ea96423ffe3af3c713bfe0d"),
    "google": (15, "4f197fd759f417156441c74984943fa75103bc0f46365f9c0b7c5746b2546448"),
}

#: One facebook connection: first flight plus the duplicate-triggered one.
RETRANSMIT_PIN = (2, "7f3c51ac2ad22dccacc0e718332d2df26e0055d2829662ef76cf6295eac41335")


@pytest.fixture(autouse=True)
def _fresh_memos():
    clear_crypto_memos()
    yield
    clear_crypto_memos()


def _pin(datagrams):
    """(count, sha256 over each datagram's 4-byte length and bytes)."""
    digest = hashlib.sha256()
    for data in datagrams:
        digest.update(len(data).to_bytes(4, "big"))
        digest.update(data)
    return len(datagrams), digest.hexdigest()


def _run_flights(profile_factory, certificate, clients=12):
    """Drive ``clients`` fresh handshakes through one engine."""
    sent = []
    engine = QuicServerEngine(
        profile=profile_factory(),
        loop=EventLoop(),
        rng=random.Random(5),
        send=sent.append,
        host_id=7,
        worker_id=3,
        certificate=certificate,
    )
    version = engine.profile.supported_versions[0]
    client_rng = random.Random(77)
    for port in range(4242, 4242 + clients):
        connection = ClientConnection(
            rng=client_rng,
            src_ip=CLIENT,
            src_port=port,
            dst_ip=VIP,
            version=version,
        )
        engine.on_datagram(connection.initial_datagram(), 0.0)
    return [d.payload for d in sent]


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_flights_byte_identical_per_profile(name):
    flights = _run_flights(PROFILES[name], None)
    assert flights, "no flights were emitted"
    assert _pin(flights) == FLIGHT_PINS[name]


@pytest.mark.parametrize("name", sorted(CERT_FLIGHT_PINS))
def test_flights_byte_identical_with_certificate(name):
    factory = PROFILES[name]
    flights = _run_flights(factory, CERT)
    assert _pin(flights) == CERT_FLIGHT_PINS[name]
    # The certificate actually changes the flight (it rides in the
    # Handshake CRYPTO stream), so the pin above is not the plain one.
    assert flights != _run_flights(factory, None)


def test_retransmitted_flights_stay_identical():
    """The second flight of a connection reuses its bound layout."""
    sent = []
    engine = QuicServerEngine(
        profile=facebook_profile(),
        loop=EventLoop(),
        rng=random.Random(5),
        send=sent.append,
        host_id=7,
        worker_id=3,
    )
    connection = ClientConnection(
        rng=random.Random(77),
        src_ip=CLIENT,
        src_port=4242,
        dst_ip=VIP,
        version=engine.profile.supported_versions[0],
    )
    datagram = connection.initial_datagram()
    engine.on_datagram(datagram, 0.0)
    engine.on_datagram(datagram, 0.5)  # duplicate triggers a re-flight
    assert _pin([d.payload for d in sent]) == RETRANSMIT_PIN


def test_layouts_shared_across_connections():
    """Same flight shape → one `_FlightLayout`, per-connection binds."""
    sent = []
    engine = QuicServerEngine(
        profile=facebook_profile(),
        loop=EventLoop(),
        rng=random.Random(5),
        send=sent.append,
        host_id=7,
        worker_id=3,
    )
    version = engine.profile.supported_versions[0]
    client_rng = random.Random(77)
    for port in (4242, 4243, 4244):
        connection = ClientConnection(
            rng=client_rng,
            src_ip=CLIENT,
            src_port=port,
            dst_ip=VIP,
            version=version,
        )
        engine.on_datagram(connection.initial_datagram(), 0.0)
    assert len(engine._flight_layouts) == 1
    assert sent
