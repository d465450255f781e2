// Package fleet coordinates distributed DSE and fusion sweeps: it
// shards a design space (DSE: the PE-count and tile-knob axes; fusion:
// the L2 budget grid), dispatches the shards to a pool of maestro-serve
// nodes over the resilient client through one shard scheduler, and
// merges the partial results incrementally as shards complete.
//
// Routing is deterministic: DSE shards hash onto a consistent ring over the
// node set keyed by the canonical (layer, template, PE subset) triple —
// the same key family the servers' profile caches are warmed by — so a
// repeated or follow-up sweep lands each shard on the node that already
// holds its cluster walks. Node loss is survived by walking the ring:
// shards stranded behind a tripped circuit breaker re-dispatch to the
// next healthy node, with at-most-once result accounting, and a
// straggler watchdog steals the slowest shard onto an idle node when
// one server falls far behind the pack.
package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/serve"
)

// vnodesPerHost is the ring's virtual-node fan-out. 64 keeps the
// per-host load spread within a few percent for small pools while the
// ring stays tiny (a 16-node fleet is 1024 entries).
const vnodesPerHost = 64

type vnode struct {
	hash uint64
	host int // index into ring.hosts
}

// ring is an immutable consistent-hash ring over the fleet's hosts.
type ring struct {
	hosts  []string
	vnodes []vnode // sorted by hash
}

func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

func newRing(hosts []string) *ring {
	r := &ring{hosts: hosts}
	for hi, h := range hosts {
		for v := 0; v < vnodesPerHost; v++ {
			r.vnodes = append(r.vnodes, vnode{hash: hash64(fmt.Sprintf("%s#%d", h, v)), host: hi})
		}
	}
	sort.Slice(r.vnodes, func(i, j int) bool {
		a, b := r.vnodes[i], r.vnodes[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return a.host < b.host // stable under (vanishingly unlikely) hash ties
	})
	return r
}

// order returns every host exactly once, in ring-walk order starting at
// the key's position: the first entry is the shard's preferred node,
// and the rest are its failover sequence. The order depends only on the
// host set and the key, so re-dispatch decisions are reproducible.
func (r *ring) order(key serve.Key) []string {
	start := sort.Search(len(r.vnodes), func(i int) bool {
		return r.vnodes[i].hash >= binary.BigEndian.Uint64(key[:8])
	})
	out := make([]string, 0, len(r.hosts))
	seen := make([]bool, len(r.hosts))
	for i := 0; i < len(r.vnodes) && len(out) < len(r.hosts); i++ {
		v := r.vnodes[(start+i)%len(r.vnodes)]
		if !seen[v.host] {
			seen[v.host] = true
			out = append(out, r.hosts[v.host])
		}
	}
	return out
}
