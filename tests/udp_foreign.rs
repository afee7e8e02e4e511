//! A socket path accepts datagrams only from its peer: a correctly
//! encoded packet sent to a running `UdpPeer` from any other local socket
//! is counted and never reaches the endpoint.

use mpcc_netsim::Blackhole;
use mpcc_simcore::{SimDuration, SimRng, SimTime};
use mpcc_telemetry::Tracer;
use mpcc_transport::wire::{AckHeader, EndpointId, Header, Packet, PathId, SackBlocks};
use mpcc_udp::{encode, UdpPath, UdpPeer};
use std::net::UdpSocket;

fn ack_datagram() -> Vec<u8> {
    let header = Header::Ack(AckHeader {
        subflow: 0,
        cum_ack: 0,
        sack: SackBlocks::EMPTY,
        ack_seq: 0,
        echo_sent_at: SimTime::ZERO,
        data_acked: 0,
        rcv_window: u64::MAX,
    });
    let pkt = Packet {
        id: 0,
        src: EndpointId(1),
        dst: EndpointId(0),
        path: PathId(0),
        hop: usize::MAX,
        size: 64,
        header,
    };
    let mut buf = Vec::new();
    encode(&pkt, &mut buf);
    buf
}

#[test]
fn datagrams_from_a_non_peer_address_are_counted_and_dropped() {
    let local = UdpSocket::bind("127.0.0.1:0").unwrap();
    let peer = UdpSocket::bind("127.0.0.1:0").unwrap();
    let intruder = UdpSocket::bind("127.0.0.1:0").unwrap();
    let to = local.local_addr().unwrap();
    let path = UdpPath::to(
        local,
        peer.local_addr().unwrap(),
        SimDuration::from_millis(1),
    );
    let rng = SimRng::seed_from_u64(1);
    let sink = Box::<Blackhole>::default();
    let mut host = UdpPeer::new(EndpointId(0), rng, Tracer::off(), vec![path], sink).unwrap();
    let delivered = |host: &UdpPeer| host.endpoint::<Blackhole>().received();

    // Queued before the host runs, so its first turn reads it.
    intruder.send_to(&ack_datagram(), to).unwrap();
    let now = host.now();
    host.run(now + SimDuration::from_millis(20), |_| false);
    assert_eq!(
        delivered(&host),
        0,
        "a foreign datagram reached the endpoint"
    );
    assert_eq!(host.stats().foreign_datagrams, 1, "{:?}", host.stats());

    peer.send_to(&ack_datagram(), to).unwrap();
    let done = host.run(SimTime::from_secs(5), |ep| {
        ep.as_any().downcast_ref::<Blackhole>().unwrap().received() > 0
    });
    assert!(done, "the peer's datagram never arrived");
    assert_eq!(delivered(&host), 1);
    assert_eq!(host.stats().foreign_datagrams, 1, "{:?}", host.stats());
}
