// Package placement is the cluster's consistent-hash tensor placement:
// the shared routing arithmetic that decides which executor shard owns a
// (tenant, tensor) key. Both sides of the wire import it — the server's
// cluster router to dispatch requests and validate client hints, and the
// cluster-aware client to pick a shard before sending — so a key hashes
// to the same owner everywhere as long as both hold the same shard map.
//
// The ring is classic consistent hashing with virtual nodes: every shard
// projects Replicas points onto a 64-bit circle, and a key belongs to the
// first shard point at or clockwise of its own hash. Removing a shard
// moves only the keys that shard owned (they slide to their clockwise
// successors); adding one moves only the keys the new points capture.
// That minimal-movement property is what makes live rebalancing tractable:
// a drain migrates one shard's tensors and leaves every other tensor
// exactly where it was.
//
// The Map type is the serialized shard map the server publishes on its
// /cluster endpoint and the client discovers: shard IDs with their serving
// state, the replica count (both ends must build identical rings), and a
// version that bumps on every topology change so stale clients can tell
// their routing is out of date.
package placement

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultReplicas is the virtual-node count per shard when a Map carries
// zero. 256 points per shard keeps the load split across shards within a
// few percent of uniform at 10k keys — comfortably inside the ±20% band
// the cluster's admission sizing assumes.
const DefaultReplicas = 256

// Shard states carried in a Map. Only active shards project ring points;
// a draining shard still serves its not-yet-migrated tensors but receives
// no new placements, and a drained shard is gone for every purpose.
const (
	StateActive   = "active"
	StateDraining = "draining"
	StateDrained  = "drained"
)

// Shard is one executor shard's entry in the cluster map.
type Shard struct {
	ID    int    `json:"id"`
	State string `json:"state"`
}

// Map is the cluster topology a server publishes and a client routes by.
type Map struct {
	// Version increments on every topology change (shard drain, add).
	// Clients cache the map and refresh when the server refuses a stale
	// routing hint.
	Version int `json:"version"`
	// Replicas is the virtual-node count per shard; both ends must use the
	// same value or their rings disagree. Zero means DefaultReplicas.
	Replicas int     `json:"replicas"`
	Shards   []Shard `json:"shards"`
}

// ActiveIDs returns the IDs of shards that accept placements.
func (m *Map) ActiveIDs() []int {
	var ids []int
	for _, s := range m.Shards {
		if s.State == StateActive {
			ids = append(ids, s.ID)
		}
	}
	return ids
}

// Ring returns the consistent-hash ring over the map's active shards.
func (m *Map) Ring() *Ring {
	return NewRing(m.ActiveIDs(), m.Replicas)
}

// Key builds the placement key for a tenant's tensor — the same qualified
// name the server uses to namespace tensors on the executor, so placement
// and storage agree on identity.
func Key(tenant, name string) string { return tenant + "/" + name }

// point is one virtual node: a position on the hash circle owned by a shard.
type point struct {
	hash  uint64
	shard int
}

// Ring is an immutable consistent-hash ring. Build one per topology
// version and share it freely; lookups are lock-free.
type Ring struct {
	replicas int
	points   []point // sorted by hash
}

// NewRing builds a ring with the given replica count per shard (zero
// selects DefaultReplicas). An empty shard list yields a ring that owns
// nothing.
func NewRing(shards []int, replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	r := &Ring{
		replicas: replicas,
		points:   make([]point, 0, len(shards)*replicas),
	}
	for _, id := range shards {
		for v := 0; v < replicas; v++ {
			r.points = append(r.points, point{hash: hash64(vnodeKey(id, v)), shard: id})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// A 64-bit collision between two shards' points is vanishingly
		// unlikely, but the tie must still break deterministically on both
		// ends of the wire.
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// vnodeKey names one virtual node. The format is part of the protocol:
// client and server must derive identical point positions.
func vnodeKey(shard, replica int) string {
	return fmt.Sprintf("shard-%d#%d", shard, replica)
}

// hash64 is FNV-1a finished with a splitmix64 avalanche, chosen for
// determinism and zero dependencies; the ring needs spread, not
// adversarial collision resistance (tensor names come from the tenant
// that owns them — a tenant can only skew its own placement). Raw FNV-1a
// diffuses poorly over the short, similar strings vnode and tensor keys
// are, leaving the circle's arcs lopsided; the finalizer restores the
// near-uniform spread the ±20% placement band depends on.
func hash64(key string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Owner returns the shard owning key. ok is false on an empty ring.
func (r *Ring) Owner(key string) (shard int, ok bool) {
	if r == nil || len(r.points) == 0 {
		return 0, false
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the circle's first point succeeds its last
	}
	return r.points[i].shard, true
}

// Shards returns the distinct shard IDs on the ring, ascending.
func (r *Ring) Shards() []int {
	if r == nil {
		return nil
	}
	seen := map[int]bool{}
	var ids []int
	for _, p := range r.points {
		if !seen[p.shard] {
			seen[p.shard] = true
			ids = append(ids, p.shard)
		}
	}
	sort.Ints(ids)
	return ids
}

// Replicas returns the ring's virtual-node count per shard.
func (r *Ring) Replicas() int {
	if r == nil {
		return 0
	}
	return r.replicas
}
