// Package server exposes the batch-slicing engine as a long-running
// HTTP/JSON service: clients POST program sources plus batches of slicing
// criteria and receive specialized programs with per-phase timings. Engines
// are content-addressed — programs are hashed after lang normalization, so
// textually different but normalization-equivalent sources share one warmed
// engine — and held in an LRU bounded by an entry count and a byte budget
// (engine.Footprint). Concurrent requests for a program not yet cached are
// deduplicated: one request builds, the rest wait for the same engine.
// Entries are linked into version chains (FamilyKey): a request for a new
// version of an already-cached program advances the cached engine through
// the edit (Engine.Advance) instead of rebuilding from scratch.
package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"specslice"
)

// ContentKey returns the cache key of a program: the hex SHA-256 of its
// lang-normalized source text. Callers hash prog.Source() of a parsed
// program, never the raw request text, so whitespace, comments, and
// normalization temporaries do not fragment the cache.
func ContentKey(normalizedSource string) string {
	sum := sha256.Sum256([]byte(normalizedSource))
	return hex.EncodeToString(sum[:])
}

// FamilyKey returns the version-chain key of a program: the hex SHA-256 of
// its sorted procedure names. Two versions of the same evolving program
// almost always share a family (statement edits, renames of locals, call
// edits), so a near-miss ContentKey can resolve to the family's most
// recent engine and advance it instead of cold-building. Procedure
// additions, removals, and renames start a new chain — exactly the edits
// for which most of the old analysis would be invalidated anyway.
func FamilyKey(sortedProcNames []string) string {
	h := sha256.New()
	for _, n := range sortedProcNames {
		h.Write([]byte(n))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// BuildSource reports how a cache miss obtained its engine: analyzed from
// scratch, or advanced from a version-chain ancestor.
type BuildSource int

const (
	BuildCold BuildSource = iota
	BuildAdvance
)

func (b BuildSource) String() string {
	if b == BuildAdvance {
		return "advance"
	}
	return "cold"
}

// CacheStats is a snapshot of the engine cache's counters. The counters
// satisfy Hits+Misses == lookups, Builds+BuildErrors+Deduped == Misses,
// and Advances+ColdBuilds == Builds, which the server load tests assert
// under concurrency.
type CacheStats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Deduped int64 `json:"builds_deduped"` // misses that joined an in-flight build
	Builds  int64 `json:"builds"`         // completed engine builds
	// Advances counts builds served by advancing a version-chain ancestor;
	// ColdBuilds counts builds that analyzed the program from scratch.
	Advances    int64 `json:"advances"`
	ColdBuilds  int64 `json:"cold_builds"`
	BuildErrors int64 `json:"build_errors"`
	Evictions   int64 `json:"evictions"`
	InFlight    int64 `json:"in_flight_builds"` // gauge
	Entries     int   `json:"entries"`
	Bytes       int64 `json:"bytes"`
}

// EngineCache is a content-addressed LRU of warmed slicing engines with
// version chains: each family (FamilyKey) remembers its most recently
// built member, and a miss whose family has a cached member hands that
// engine to the build callback as an ancestor to advance.
type EngineCache struct {
	maxEntries int
	maxBytes   int64

	mu       sync.Mutex
	entries  map[string]*list.Element
	lru      *list.List // front = most recently used; values are *cacheEntry
	building map[string]*buildCall
	// families maps FamilyKey -> ContentKey of the family's most recently
	// built member still in the cache.
	families map[string]string
	stats    CacheStats
}

type cacheEntry struct {
	key    string
	family string
	eng    *specslice.Engine
	bytes  int64
}

// buildCall is the singleflight cell for one in-flight engine build.
type buildCall struct {
	done   chan struct{}
	eng    *specslice.Engine
	source BuildSource
	err    error
}

// NewEngineCache returns a cache evicting past maxEntries entries or
// maxBytes total estimated engine bytes; a zero or negative limit disables
// that bound.
func NewEngineCache(maxEntries int, maxBytes int64) *EngineCache {
	return &EngineCache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		entries:    map[string]*list.Element{},
		lru:        list.New(),
		building:   map[string]*buildCall{},
		families:   map[string]string{},
	}
}

// Get returns the engine cached under key, building it with build on a
// miss. Build runs outside the cache lock; concurrent misses on one key
// share a single build. On a miss whose family has a cached member, that
// member's engine is passed to build as ancestor — the callback advances
// it instead of cold-building and reports which path it took (advance or
// cold build). Build errors are returned to every waiter and are not
// cached — the next request retries.
//
// deduped reports that this call joined another request's in-flight build
// instead of doing any work itself. Waiters still receive the builder's
// source so callers can see how the engine came to exist, but response
// attribution (advanced) belongs to the one request that did the work —
// the deduped flag is what distinguishes them.
func (c *EngineCache) Get(key, family string, build func(ancestor *specslice.Engine) (*specslice.Engine, BuildSource, error)) (eng *specslice.Engine, hit, deduped bool, source BuildSource, err error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		c.stats.Hits++
		eng := el.Value.(*cacheEntry).eng
		c.mu.Unlock()
		return eng, true, false, BuildCold, nil
	}
	c.stats.Misses++
	if call, ok := c.building[key]; ok {
		c.stats.Deduped++
		c.mu.Unlock()
		<-call.done
		return call.eng, false, true, call.source, call.err
	}
	call := &buildCall{done: make(chan struct{})}
	c.building[key] = call
	c.stats.InFlight++
	// Version-chain lookup: the family's most recent member, if still
	// cached, becomes the ancestor. Using it concurrently is safe — no
	// one writes an engine's graph once it is built, and Advance only
	// reads it.
	var ancestor *specslice.Engine
	if ak, ok := c.families[family]; ok {
		if el, ok := c.entries[ak]; ok {
			ancestor = el.Value.(*cacheEntry).eng
		}
	}
	c.mu.Unlock()

	var bytes int64
	call.eng, call.source, bytes, call.err = runBuild(ancestor, build)

	c.mu.Lock()
	delete(c.building, key)
	c.stats.InFlight--
	if call.err != nil {
		c.stats.BuildErrors++
	} else {
		c.stats.Builds++
		if call.source == BuildAdvance {
			c.stats.Advances++
		} else {
			c.stats.ColdBuilds++
		}
		el := c.lru.PushFront(&cacheEntry{key: key, family: family, eng: call.eng, bytes: bytes})
		c.entries[key] = el
		c.families[family] = key
		c.stats.Bytes += bytes
		// Evict from the cold end. The just-inserted entry is never evicted
		// (it is in use by this request); an engine bigger than the whole
		// byte budget therefore stays cached alone until displaced.
		for c.overBudget() && c.lru.Len() > 1 {
			c.evictOldest()
		}
	}
	c.stats.Entries = c.lru.Len()
	c.mu.Unlock()
	close(call.done)
	return call.eng, false, false, call.source, call.err
}

// runBuild runs the build plus the engine warm-up (Footprint warms every
// cache, so waiters and later hits get a fully built engine and the LRU
// charges its real weight), converting a panic anywhere in that analysis
// into an error. Without the guard, a panicking build (net/http recovers
// it per-connection, so the server survives) would leave the key's
// buildCall registered forever with an unclosed done channel — wedging
// every later request for that program.
func runBuild(ancestor *specslice.Engine, build func(*specslice.Engine) (*specslice.Engine, BuildSource, error)) (eng *specslice.Engine, source BuildSource, bytes int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			eng, source, bytes, err = nil, BuildCold, 0, fmt.Errorf("server: engine build panicked: %v", r)
		}
	}()
	eng, source, err = build(ancestor)
	if err != nil {
		return nil, BuildCold, 0, err
	}
	return eng, source, eng.Footprint(), nil
}

func (c *EngineCache) overBudget() bool {
	if c.maxEntries > 0 && c.lru.Len() > c.maxEntries {
		return true
	}
	return c.maxBytes > 0 && c.stats.Bytes > c.maxBytes
}

func (c *EngineCache) evictOldest() {
	el := c.lru.Back()
	if el == nil {
		return
	}
	ent := el.Value.(*cacheEntry)
	c.lru.Remove(el)
	delete(c.entries, ent.key)
	// Drop the version-chain head if it pointed at the evicted entry; the
	// family's next build will be cold (or advance a newer member).
	if c.families[ent.family] == ent.key {
		delete(c.families, ent.family)
	}
	c.stats.Bytes -= ent.bytes
	c.stats.Evictions++
}

// Stats returns a snapshot of the cache counters.
func (c *EngineCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = c.lru.Len()
	return st
}
