package solver

import (
	"chef/internal/symexpr"
)

// QueryCache is the solver's counterexample cache. It memoizes the outcome
// of CNF-level queries — the canonicalized constraint set that survives
// constant filtering, independent-constraint slicing and Compare-ordering —
// keyed by an order-sensitive hash over the canonical sequence. Hash-consing
// makes entry confirmation a pointer-slice comparison. Only exact matches
// hit: a query is answered from the cache iff the same canonical constraint
// set was solved (or replayed from the persistent store) before.
//
// Each Solver owns a private QueryCache; like a Solver, it is not safe for
// concurrent use. Entries are spread over fixed shards by key, each with its
// own FIFO eviction queue, so eviction order is a pure function of the
// store sequence.
//
// Determinism note: queries are solved in canonical constraint order, so the
// result *and model* of a solved query are a pure function of the constraint
// set, and a private cache makes every hit a pure function of the solver's
// own query stream.
type QueryCache struct {
	shards [cacheShardCount]cacheShard

	// perShardCap bounds the number of entries per shard; inserting beyond
	// it evicts the shard's oldest entry (FIFO).
	perShardCap int

	queries   int64
	hits      int64
	misses    int64
	stores    int64
	evictions int64
}

const (
	cacheShardCount = 16

	// DefaultCacheCapacity is the default total entry bound of a QueryCache.
	DefaultCacheCapacity = 1 << 16
)

type cacheShard struct {
	m map[uint64][]cachedQuery
	// order records insertion order of bucket keys, one element per stored
	// entry, for exact FIFO eviction.
	order []uint64
}

// CacheStats is a snapshot of the cache counters. By construction
// Hits + Misses == Queries. Persist-layer hits are counted by the Solver,
// not here, because the persistent store is not part of the in-memory cache.
type CacheStats struct {
	Queries   int64
	Hits      int64
	Misses    int64
	Stores    int64
	Evictions int64
	Entries   int64
}

// Add folds another snapshot into s, field by field — the merge helper for
// aggregating per-cell snapshots (sharded sessions own one cache per range).
func (s *CacheStats) Add(o CacheStats) {
	s.Queries += o.Queries
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Stores += o.Stores
	s.Evictions += o.Evictions
	s.Entries += o.Entries
}

// NewQueryCache builds a cache bounded to roughly capacity entries
// (0 means DefaultCacheCapacity).
func NewQueryCache(capacity int) *QueryCache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	per := capacity / cacheShardCount
	if per < 1 {
		per = 1
	}
	c := &QueryCache{perShardCap: per}
	for i := range c.shards {
		c.shards[i].m = map[uint64][]cachedQuery{}
	}
	return c
}

func (c *QueryCache) shard(key uint64) *cacheShard {
	// The key is already a mixed hash; fold the high bits so shard selection
	// does not correlate with bucket selection.
	return &c.shards[(key^key>>32)%cacheShardCount]
}

// sameCanon reports equality of two canonicalized constraint slices. Both
// sides are sorted by symexpr.Compare and interned, so equality is an
// element-wise pointer comparison.
func sameCanon(a, b []*symexpr.Expr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Lookup returns the memoized result for the canonicalized query, if
// present, and counts the lookup as a hit or a miss. The returned model is
// owned by the cache and must not be mutated; callers clone before merging
// (as Solver.CheckQuery does).
func (c *QueryCache) Lookup(key uint64, canon []*symexpr.Expr) (Result, symexpr.Assignment, bool) {
	c.queries++
	for _, q := range c.shard(key).m[key] {
		if sameCanon(q.key, canon) {
			c.hits++
			return q.result, q.model, true
		}
	}
	c.misses++
	return Unknown, nil, false
}

// Store memoizes a query result under its canonical key. The caller stores
// only after a Lookup of the same query missed. The constraint slice and
// model are cloned so later mutation by the caller cannot corrupt the cache.
func (c *QueryCache) Store(key uint64, canon []*symexpr.Expr, r Result, m symexpr.Assignment) {
	cs := append([]*symexpr.Expr(nil), canon...)
	var mc symexpr.Assignment
	if m != nil {
		mc = m.Clone()
	}
	sh := c.shard(key)
	sh.m[key] = append(sh.m[key], cachedQuery{cs, r, mc})
	sh.order = append(sh.order, key)
	c.stores++
	if len(sh.order) > c.perShardCap {
		old := sh.order[0]
		sh.order = sh.order[1:]
		if bucket := sh.m[old]; len(bucket) > 0 {
			if len(bucket) == 1 {
				delete(sh.m, old)
			} else {
				sh.m[old] = bucket[1:]
			}
			c.evictions++
		}
	}
}

// Len returns the current number of cached entries.
func (c *QueryCache) Len() int {
	n := 0
	for i := range c.shards {
		n += len(c.shards[i].order)
	}
	return n
}

// Stats snapshots the cache counters.
func (c *QueryCache) Stats() CacheStats {
	return CacheStats{
		Queries:   c.queries,
		Hits:      c.hits,
		Misses:    c.misses,
		Stores:    c.stores,
		Evictions: c.evictions,
		Entries:   int64(c.Len()),
	}
}
