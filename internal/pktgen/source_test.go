package pktgen

import (
	"math"
	"math/rand"
	"testing"
)

// sourceSeeds covers the seeding edge cases (zero and the seed zero is
// replaced by, negatives, multiples of and values around the Lehmer
// modulus, seeds past 32 bits, the int64 extremes) plus 1000 seeds
// drawn from the whole int64 range.
func sourceSeeds() []int64 {
	seeds := []int64{0, 1, -1, 2, 89482311, -89482311, rngMod, -rngMod, rngMod - 1, rngMod + 1,
		2 * rngMod, 1 << 31, 1<<31 + 7, 1 << 32, 1<<40 + 3, -(1 << 31), -(1 << 33) - 5,
		math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
	r := rand.New(rand.NewSource(2024))
	for i := 0; i < 1000; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

// TestLazySourceMatchesMathRand: the lazily seeded source is
// rand.NewSource bit for bit, and its Intn and Uint32 are rand.Rand's:
// 1500 raw draws (past the tap index wrap at rngTap draws and both
// feed wraps), then 700 each of Int63, Uint32 and Intn with bounds
// that take the rejection path and with a power of two.
func TestLazySourceMatchesMathRand(t *testing.T) {
	for _, seed := range sourceSeeds() {
		want := rand.New(rand.NewSource(seed))
		got := newLazySource(seed)
		for i := 0; i < 1500; i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d: Uint64 draw %d = %#x, want %#x", seed, i, g, w)
			}
		}
		want.Seed(seed)
		got.Seed(seed)
		for i := 0; i < 700; i++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d: Int63 draw %d = %d, want %d", seed, i, g, w)
			}
		}
		want.Seed(seed)
		got.Seed(seed)
		for i := 0; i < 700; i++ {
			if g, w := got.Uint32(), want.Uint32(); g != w {
				t.Fatalf("seed %d: Uint32 draw %d = %d, want %d", seed, i, g, w)
			}
		}
		for _, n := range []int{250, 3, 1 << 16, 1_000_000_007, 1<<30 + 1, math.MaxInt32} {
			want.Seed(seed)
			got.Seed(seed)
			for i := 0; i < 700; i++ {
				if g, w := got.Intn(n), want.Intn(n); g != w {
					t.Fatalf("seed %d: Intn(%d) draw %d = %d, want %d", seed, n, i, g, w)
				}
			}
		}
	}
}

// TestPacketAllocs pins the allocations per generated packet: the
// Packet, the source, the words and, for the IPv4 template, the
// TCPPacket; payloads past about 1 KB draw past the untouched entries
// and add the source's table. The rand.New(rand.NewSource(seed)) it
// replaced allocated 4 (IPv4) and 3 (IPv6) times at every payload.
func TestPacketAllocs(t *testing.T) {
	for _, c := range []struct {
		kind    Kind
		payload int
		want    float64
	}{{KindTCP4, 64, 3}, {KindTCP4, 1500, 4}, {KindIPv6, 64, 2}, {KindIPv6, 1500, 3}} {
		g := NewFlowGen(c.kind, 1, 256, c.payload)
		if got := testing.AllocsPerRun(100, func() { g.Next() }); got != c.want {
			t.Errorf("kind %v, %d B: %v allocs per packet, want %v", c.kind, c.payload, got, c.want)
		}
	}
}
