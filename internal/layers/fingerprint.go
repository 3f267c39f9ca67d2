package layers

// This file computes direction-invariant flow fingerprints: a 64-bit
// hash of a decoded packet's transport 5-tuple that is identical for
// both directions of a conversation. The sharded ingest router keys
// shard selection on it, so both halves of a stream — and therefore
// all of a flow.Key's packets — land on the same single-writer analyzer
// shard.

// FNV-1a parameters.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashEndpoint folds one endpoint (network address bytes plus
// transport port) with FNV-1a. Hashing each endpoint separately and
// combining symmetrically is what makes the result direction-invariant.
func hashEndpoint(addr []byte, port uint16) uint64 {
	h := uint64(fnvOffset64)
	for _, b := range addr {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	h ^= uint64(port >> 8)
	h *= fnvPrime64
	h ^= uint64(port & 0xff)
	h *= fnvPrime64
	return h
}

// combineFlow mixes the two endpoint hashes and the transport protocol
// into the final fingerprint. XOR makes the combination symmetric
// (direction-invariant); the splitmix64 finalizer spreads the result so
// `fp % shards` distributes evenly for any shard count.
func combineFlow(proto IPProtocol, a, b uint64) uint64 {
	h := a ^ b
	h ^= uint64(proto) * fnvPrime64
	h ^= h >> 30
	h *= 0xbf58476d1ce4e9b5
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// FingerprintPacket computes the flow fingerprint of a decoded Packet.
// ok is false for packets without a transport layer.
func FingerprintPacket(p *Packet) (uint64, bool) {
	proto, srcPort, dstPort := p.Transport()
	if proto == 0 {
		return 0, false
	}
	var a, b uint64
	switch {
	case p.IPv4 != nil:
		src4, dst4 := p.IPv4.Src.As4(), p.IPv4.Dst.As4()
		a = hashEndpoint(src4[:], srcPort)
		b = hashEndpoint(dst4[:], dstPort)
	case p.IPv6 != nil:
		src16, dst16 := p.IPv6.Src.As16(), p.IPv6.Dst.As16()
		a = hashEndpoint(src16[:], srcPort)
		b = hashEndpoint(dst16[:], dstPort)
	default:
		return 0, false
	}
	return combineFlow(proto, a, b), true
}
