// Package cache is the compile cache behind novad (DESIGN.md §12). It
// stores verified allocations keyed by the canonical content hash of
// the ILP model (model.Canon.Exact), plus an opaque source-level
// output tier for byte-identical replays.
//
// Nothing read from the cache is ever trusted: before a cached
// solution is served, the canonical pairing is verified as a matrix
// isomorphism with equal bounds and objective, and the translated
// point is re-verified against the requesting model
// (model.CheckFeasible). A corrupted entry or a hash collision
// therefore degrades to a cold compile — never a wrong allocation.
package cache

import (
	"container/list"
	"sync"

	"repro/internal/obs"
)

var (
	cHits       = obs.NewCounter("cache/hits")
	cSourceHits = obs.NewCounter("cache/source_hits")
	cMisses     = obs.NewCounter("cache/misses")
	cEvictions  = obs.NewCounter("cache/evictions")
	cDrops      = obs.NewCounter("cache/validation_drops")
	gEntries    = obs.NewGauge("cache/entries")
	gBytes      = obs.NewGauge("cache/bytes")
)

// Config bounds the cache. Zero values select the defaults.
type Config struct {
	MaxEntries int   // model + output entries combined (default 512)
	MaxBytes   int64 // payload bytes across both tiers (default 256 MiB)
}

func (c Config) withDefaults() Config {
	if c.MaxEntries <= 0 {
		c.MaxEntries = 512
	}
	if c.MaxBytes <= 0 {
		c.MaxBytes = 256 << 20
	}
	return c
}

// entry is one cached model-tier record, everything in the *cached*
// model's coordinates; canonical orders translate it into a
// structurally identical requester's coordinates (see mapSolution).
type entry struct {
	exact    string
	nCols    int
	nRows    int
	colOrder []int // canonical position -> cached column index
	rowOrder []int
	x        []float64 // verified optimal point
	// Bounds and objective at solve time: an exact hit is served only
	// when they equal the request's at every canonical position
	// (regionEqual, sameObjective).
	colLo, colHi []float64
	rowLo, rowHi []float64
	objCoef      []float64
	// Matrix signature for isomorphism verification: for each cached
	// column, its nonzeros expressed in canonical row positions, sorted.
	// Canonical orders can pair truly symmetric variables arbitrarily,
	// so before any cross-model transfer the pairing is checked to be a
	// genuine matrix isomorphism against this signature (verifyIso) —
	// an unverifiable pairing degrades to a cold solve, never a wrong
	// answer.
	integer []bool
	colSig  [][]sigNZ
	bytes   int64
	elem    *list.Element
}

// sigNZ is one matrix nonzero in canonical coordinates.
type sigNZ struct {
	pos int // canonical row position
	val float64
}

// srcEntry is one output-tier record: the opaque compiled artifact for
// an exact (source, options) key. It short-circuits the whole pipeline
// including the front end.
type srcEntry struct {
	key  string
	data []byte
	elem *list.Element
}

// Cache is the shared, concurrency-safe store. One Cache serves every
// request of a novad process; per-request state lives in Hook.
type Cache struct {
	mu      sync.Mutex
	cfg     Config
	lru     *list.List // *entry, front = most recently used
	byExact map[string]*entry
	srcLRU  *list.List // *srcEntry
	bySrc   map[string]*srcEntry
	bytes   int64
}

// New returns an empty cache with the given bounds.
func New(cfg Config) *Cache {
	return &Cache{
		cfg:     cfg.withDefaults(),
		lru:     list.New(),
		byExact: map[string]*entry{},
		srcLRU:  list.New(),
		bySrc:   map[string]*srcEntry{},
	}
}

// Len returns the number of model-tier entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.byExact)
}

// lookupExact returns the entry whose exact hash matches, bumping it
// to the LRU front.
func (c *Cache) lookupExact(exact string) *entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.byExact[exact]
	if e != nil {
		c.lru.MoveToFront(e.elem)
	}
	return e
}

// drop removes an entry that failed validation (corruption, collision,
// staleness) so it cannot be served again.
func (c *Cache) drop(e *entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.byExact[e.exact]; ok && cur == e {
		delete(c.byExact, e.exact)
		c.lru.Remove(e.elem)
		c.bytes -= e.bytes
		c.publish()
	}
}

// put inserts or replaces the entry for its exact hash and evicts from
// the LRU tail until the cache is back within bounds.
func (c *Cache) put(e *entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.byExact[e.exact]; ok {
		c.lru.Remove(old.elem)
		c.bytes -= old.bytes
	}
	e.elem = c.lru.PushFront(e)
	c.byExact[e.exact] = e
	c.bytes += e.bytes
	c.evictLocked()
	c.publish()
}

// GetOutput returns the output-tier artifact for key, if present.
func (c *Cache) GetOutput(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	se := c.bySrc[key]
	if se == nil {
		return nil, false
	}
	c.srcLRU.MoveToFront(se.elem)
	cSourceHits.Inc()
	return se.data, true
}

// PutOutput stores an output-tier artifact under key.
func (c *Cache) PutOutput(key string, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.bySrc[key]; ok {
		c.srcLRU.Remove(old.elem)
		c.bytes -= int64(len(old.data))
	}
	se := &srcEntry{key: key, data: data}
	se.elem = c.srcLRU.PushFront(se)
	c.bySrc[key] = se
	c.bytes += int64(len(data))
	c.evictLocked()
	c.publish()
}

// evictLocked trims both tiers, oldest first, until within bounds.
func (c *Cache) evictLocked() {
	over := func() bool {
		return len(c.byExact)+len(c.bySrc) > c.cfg.MaxEntries || c.bytes > c.cfg.MaxBytes
	}
	for over() {
		// Evict from whichever tier has the colder tail; model entries
		// are the expensive ones to rebuild, so prefer shedding output
		// blobs when both tiers are populated and the byte cap is the
		// binding constraint.
		if el := c.srcLRU.Back(); el != nil {
			se := el.Value.(*srcEntry)
			c.srcLRU.Remove(el)
			delete(c.bySrc, se.key)
			c.bytes -= int64(len(se.data))
			cEvictions.Inc()
			continue
		}
		el := c.lru.Back()
		if el == nil {
			return
		}
		e := el.Value.(*entry)
		c.lru.Remove(el)
		delete(c.byExact, e.exact)
		c.bytes -= e.bytes
		cEvictions.Inc()
	}
}

func (c *Cache) publish() {
	gEntries.Set(int64(len(c.byExact) + len(c.bySrc)))
	gBytes.Set(c.bytes)
}

// entryBytes estimates the resident size of a model-tier entry.
func entryBytes(e *entry) int64 {
	b := int64(len(e.x))*8 + int64(len(e.colOrder)+len(e.rowOrder))*8 + 256
	b += int64(len(e.integer))
	for _, sig := range e.colSig {
		b += int64(len(sig)) * 16
	}
	return b
}
