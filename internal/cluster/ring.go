// Package cluster shards the slicing service across worker processes: a
// coordinator/router consistent-hashes ContentKey *families* (FamilyKey, so
// version chains stay shard-local and Engine.Advance always finds its
// ancestor on the same worker) across N `specslice serve` workers, with
// health-checked membership with deterministic rebalancing, graceful
// drain, and per-tenant admission control (token-bucket rate limiting plus
// load-shedding when a shard's in-flight depth or byte budget runs hot).
// Concurrent builds of one program need no router-level gate: the ring
// sends them all to one worker, whose engine cache joins them.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
)

// ringVnodes is the number of virtual nodes per shard. 160 points per
// shard keeps the family distribution within ~±25% of the mean for small
// clusters while leaving ring rebuilds trivially cheap (a rebuild sorts
// shards·160 points, and membership changes are rare).
const ringVnodes = 160

// Ring is an immutable consistent-hash ring mapping family keys to shard
// IDs. Immutability is the concurrency story: the router swaps a freshly
// built ring on every membership change instead of locking lookups
// against mutation.
//
// The placement is deterministic in the member set alone — point hashes
// mix only the shard ID and vnode index — so every router instance, and
// every rebuild with the same members, routes a family identically, and
// removing one shard remaps only the families that lived on it (its
// points vanish; every other family still meets the same first point).
type Ring struct {
	hashes []uint64 // sorted vnode hashes
	owner  []string // owner[i] is the shard owning hashes[i]
	ids    []string // distinct member IDs, sorted
}

// NewRing builds a ring over the given shard IDs. Duplicate IDs collapse;
// an empty member set yields a ring whose Lookup reports no owner.
func NewRing(ids []string) *Ring {
	seen := map[string]bool{}
	var members []string
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			members = append(members, id)
		}
	}
	sort.Strings(members)
	r := &Ring{ids: members}
	type point struct {
		h  uint64
		id string
	}
	points := make([]point, 0, len(members)*ringVnodes)
	var buf [8]byte
	for _, id := range members {
		h := sha256.New()
		for v := 0; v < ringVnodes; v++ {
			h.Reset()
			h.Write([]byte(id))
			binary.BigEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
			sum := h.Sum(nil)
			points = append(points, point{h: binary.BigEndian.Uint64(sum[:8]), id: id})
		}
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].h != points[j].h {
			return points[i].h < points[j].h
		}
		// Tie-break on ID so equal hashes (astronomically unlikely with
		// 64-bit SHA prefixes, but determinism must not depend on luck)
		// still order identically everywhere.
		return points[i].id < points[j].id
	})
	r.hashes = make([]uint64, len(points))
	r.owner = make([]string, len(points))
	for i, p := range points {
		r.hashes[i] = p.h
		r.owner[i] = p.id
	}
	return r
}

// Lookup returns the shard owning the family key, or ("", false) on an
// empty ring. The owner is the first vnode at or after the key's hash,
// wrapping at the top of the ring.
func (r *Ring) Lookup(family string) (string, bool) {
	if len(r.hashes) == 0 {
		return "", false
	}
	sum := sha256.Sum256([]byte(family))
	h := binary.BigEndian.Uint64(sum[:8])
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i == len(r.hashes) {
		i = 0
	}
	return r.owner[i], true
}

// Members returns the ring's distinct shard IDs in sorted order.
func (r *Ring) Members() []string {
	out := make([]string, len(r.ids))
	copy(out, r.ids)
	return out
}
