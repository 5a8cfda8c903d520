package repro

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/nova"
	"repro/internal/obs"
)

// TestCachedAllocationEndToEnd is the serving PR's differential
// acceptance check (DESIGN.md §12): an allocation served from the
// compile cache must behave bit-identically to a fresh one on the
// simulator. NAT is compiled clean, then cold through a cache (which
// populates it), then again through the same cache (a model-tier
// exact hit that skips the solver); all three runs must produce the
// same packet result and the same rewritten SDRAM image.
func TestCachedAllocationEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("three full compiles of the NAT workload")
	}
	_, wantRet, wantMem, _ := natRun(t, nil)

	c := cache.New(cache.Config{})
	withCache := func(o *nova.Options) {
		o.Alloc.Hook = &cache.Hook{C: c}
	}

	base := obs.TakeSnapshot()
	_, coldRet, coldMem, _ := natRun(t, withCache)
	d := obs.Since(base)
	if d["cache/misses"] != 1 || d["cache/hits"] != 0 {
		t.Fatalf("cold pass counters: %v", d)
	}
	if coldRet != wantRet {
		t.Fatalf("cache-cold result %#x, clean result %#x", coldRet, wantRet)
	}

	base = obs.TakeSnapshot()
	_, hitRet, hitMem, _ := natRun(t, withCache)
	d = obs.Since(base)
	if d["cache/hits"] != 1 {
		t.Fatalf("replay was not a cache hit: %v", d)
	}
	if d["mip/solves"] != 0 {
		t.Fatalf("cache hit still ran the solver: %v", d)
	}
	if hitRet != wantRet {
		t.Fatalf("cache-hit result %#x, clean result %#x", hitRet, wantRet)
	}
	for i := range wantMem {
		if coldMem[i] != wantMem[i] {
			t.Fatalf("cache-cold sdram[%#x] = %#x, clean %#x", i, coldMem[i], wantMem[i])
		}
		if hitMem[i] != wantMem[i] {
			t.Fatalf("cache-hit sdram[%#x] = %#x, clean %#x", i, hitMem[i], wantMem[i])
		}
	}
}
