package pktgen

// Word offsets of the Ethernet+IPv4+TCP packet template used by the
// AES and Kasumi workloads: a 16-byte padded Ethernet header, a
// 20-byte IPv4 header, a 20-byte TCP header, then the payload.
const (
	EthWords     = 4
	IPv4Words    = 5
	TCPWords     = 5
	PayloadStart = EthWords + IPv4Words + TCPWords // word 14
)

// TCPPacket is a generated packet plus its metadata.
type TCPPacket struct {
	Words      []uint32
	PayloadLen int // bytes
}

// BuildTCP constructs an Ethernet/IPv4/TCP packet with payloadBytes of
// deterministic pseudo-random payload (rounded up to a whole word).
func BuildTCP(seed int64, payloadBytes int) *TCPPacket {
	rng := newLazySource(seed)
	payWords := (payloadBytes + 3) / 4
	w := make([]uint32, PayloadStart+payWords)
	// Ethernet: dst 00:11:22:33:44:55, src 66:77:88:99:aa:bb,
	// ethertype 0x0800, 2 bytes pad.
	w[0] = 0x00112233
	w[1] = 0x44556677
	w[2] = 0x8899aabb
	w[3] = 0x0800_0000
	// IPv4.
	totalLen := 20 + 20 + payloadBytes
	w[4] = 0x45<<24 | uint32(totalLen)&0xffff   // version 4, ihl 5, tos 0
	w[5] = uint32(rng.Intn(1<<16))<<16 | 0x4000 // ident, DF
	w[6] = 64<<24 | 6<<16                       // ttl 64, protocol TCP
	w[7] = 0x0a000001 + uint32(rng.Intn(250))   // src 10.0.0.x
	w[8] = 0xc0a80001 + uint32(rng.Intn(250))   // dst 192.168.0.x
	// TCP.
	w[9] = 0x1f90<<16 | 0x01bb // ports 8080 -> 443
	w[10] = rng.Uint32()       // seq
	w[11] = rng.Uint32()       // ack
	w[12] = 5<<28 | 0x18<<16 | 0xffff
	w[13] = uint32(rng.Intn(1<<16)) << 16 // checksum, urgent 0
	for i := 0; i < payWords; i++ {
		w[PayloadStart+i] = rng.Uint32()
	}
	return &TCPPacket{Words: w, PayloadLen: payloadBytes}
}

// BuildIPv6TCP constructs an IPv6 packet with a TCP payload for the
// NAT workload: a 40-byte IPv6 header followed by payloadBytes of
// payload (rounded up to an even word count for SDRAM alignment).
func BuildIPv6TCP(seed int64, payloadBytes int) []uint32 {
	rng := newLazySource(seed)
	payWords := (payloadBytes + 7) / 8 * 2
	w := make([]uint32, 10+payWords)
	w[0] = 6<<28 | uint32(rng.Intn(1<<24))      // version 6, priority 0, flow label
	w[1] = uint32(payloadBytes)<<16 | 6<<8 | 64 // payload length, next header TCP, hop limit
	for i := 2; i < 10; i++ {
		w[i] = rng.Uint32() // src and dst addresses
	}
	for i := 0; i < payWords; i++ {
		w[10+i] = rng.Uint32()
	}
	return w
}
