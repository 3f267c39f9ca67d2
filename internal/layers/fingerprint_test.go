package layers_test

import (
	"net/netip"
	"testing"

	"github.com/rtc-compliance/rtcc/internal/layers"
	"github.com/rtc-compliance/rtcc/internal/pcap"
)

// The flow-fingerprint contract (fingerprint.go): the fingerprint is
// direction-invariant, so both halves of a conversation route to the
// same ingest shard, and it depends only on the 5-tuple, not on the
// link framing around it.

// fingerprint decodes frame and fingerprints the result, failing the
// test when either step declines.
func fingerprint(t *testing.T, lt pcap.LinkType, frame []byte) uint64 {
	t.Helper()
	var pkt layers.Packet
	if err := layers.DecodeInto(&pkt, lt, frame); err != nil {
		t.Fatalf("decode %d-byte frame: %v", len(frame), err)
	}
	fp, ok := layers.FingerprintPacket(&pkt)
	if !ok {
		t.Fatalf("no fingerprint for a %d-byte transport frame", len(frame))
	}
	return fp
}

// TestFingerprintDirectionInvariance pins the property the sharded
// router depends on: swapping source and destination (addresses and
// ports together) never changes the fingerprint, over UDP and TCP,
// IPv4 and IPv6.
func TestFingerprintDirectionInvariance(t *testing.T) {
	payload := []byte("rtp-ish payload")
	frames := map[string][2][]byte{
		"udp4": {
			layers.EncodeUDPv4(addrA, addrB, 5004, 3478, payload),
			layers.EncodeUDPv4(addrB, addrA, 3478, 5004, payload),
		},
		"udp6": {
			layers.EncodeUDPv6(addr6, addr7, 443, 50000, payload),
			layers.EncodeUDPv6(addr7, addr6, 50000, 443, payload),
		},
		"tcp4": {
			layers.EncodeTCPv4(addrA, addrB, layers.TCP{SrcPort: 443, DstPort: 61000, DataOffset: 5}, payload),
			layers.EncodeTCPv4(addrB, addrA, layers.TCP{SrcPort: 61000, DstPort: 443, DataOffset: 5}, payload),
		},
	}
	for name, pair := range frames {
		a := fingerprint(t, pcap.LinkTypeRaw, pair[0])
		b := fingerprint(t, pcap.LinkTypeRaw, pair[1])
		if a != b {
			t.Errorf("%s: direction changes fingerprint: %#x != %#x", name, a, b)
		}
	}
	// Distinct flows must not collide on these hand-built cases: a
	// port change is a different conversation.
	x := fingerprint(t, pcap.LinkTypeRaw, layers.EncodeUDPv4(addrA, addrB, 5004, 3478, payload))
	y := fingerprint(t, pcap.LinkTypeRaw, layers.EncodeUDPv4(addrA, addrB, 5005, 3478, payload))
	if x == y {
		t.Error("different ports produced the same fingerprint")
	}
}

// TestFingerprintEthernetFraming checks that Ethernet framing of the
// same inner packet leaves the fingerprint unchanged.
func TestFingerprintEthernetFraming(t *testing.T) {
	inner := layers.EncodeUDPv4(addrA, addrB, 5004, 3478, []byte("media"))
	eth := make([]byte, 14+len(inner))
	eth[12], eth[13] = 0x08, 0x00 // EtherType IPv4
	copy(eth[14:], inner)
	fe := fingerprint(t, pcap.LinkTypeEthernet, eth)
	fr := fingerprint(t, pcap.LinkTypeRaw, inner)
	if fe != fr {
		t.Errorf("Ethernet framing changed the fingerprint: %#x != %#x", fe, fr)
	}
}

var (
	addrA = netip.MustParseAddr("192.168.1.10")
	addrB = netip.MustParseAddr("203.0.113.7")
	addr6 = netip.MustParseAddr("2001:db8::1")
	addr7 = netip.MustParseAddr("fe80::2")
)
