package cluster

import (
	"sort"
	"strconv"
)

// defaultVnodes is the virtual-node count per member. 64 points per
// member keeps the max/min key-share ratio under ~1.4 for small
// clusters while a 3-node ring is still only 192 points — one binary
// search over a slice that fits in a cache line row.
const defaultVnodes = 64

// ringPoint is one virtual node on the hash circle.
type ringPoint struct {
	hash uint64
	id   string
}

// Ring is an immutable consistent-hash ring over member ids. Keys are
// core.CacheKey strings; a key belongs to the member owning the first
// ring point at or clockwise of the key's hash. Immutability is the
// concurrency story: the router swaps whole rings under a lock and
// readers never see a partial rebuild.
type Ring struct {
	points  []ringPoint
	members []string // distinct ids, sorted
}

// fnv1a is FNV-1a over the whole string, dependency-free.
func fnv1a(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// NewRing builds a ring over members with vnodes virtual nodes each
// (defaultVnodes when vnodes <= 0). A nil or empty member list yields
// an empty ring whose Owner always reports false.
func NewRing(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = defaultVnodes
	}
	distinct := make([]string, 0, len(members))
	seen := make(map[string]bool, len(members))
	for _, id := range members {
		if id == "" || seen[id] {
			continue
		}
		seen[id] = true
		distinct = append(distinct, id)
	}
	sort.Strings(distinct)
	r := &Ring{
		points:  make([]ringPoint, 0, len(distinct)*vnodes),
		members: distinct,
	}
	for _, id := range distinct {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: fnv1a(id + "#" + strconv.Itoa(v)), id: id})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// succ returns the index of the first point at or after h, wrapping.
func (r *Ring) succ(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}

// Owner returns the member owning key, or false on an empty ring.
func (r *Ring) Owner(key string) (string, bool) {
	if len(r.points) == 0 {
		return "", false
	}
	return r.points[r.succ(fnv1a(key))].id, true
}

// Replicas returns up to n distinct members for key in preference
// order: the owner first, then successive distinct successors on the
// circle. This is the failover order for fills and forwards.
func (r *Ring) Replicas(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	start := r.succ(fnv1a(key))
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		id := r.points[(start+i)%len(r.points)].id
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

// Size returns the number of distinct members on the ring.
func (r *Ring) Size() int { return len(r.members) }
