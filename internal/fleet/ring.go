package fleet

import (
	"fmt"
	"sort"
)

// ringVnodes is the virtual-node count per member: enough that a
// three-node fleet splits keys near-evenly, small enough that ring
// construction stays trivial.
const ringVnodes = 64

// Ring is a consistent-hash ring over fleet node IDs. Placement is a
// pure function of (member set, key): every node that knows the same
// peer list routes the same key to the same owner, with no coordination
// — which is what makes replica-to-replica job handoff safe. Keys are
// derived from `(*kir.Program).Hash()`.
type Ring struct {
	points []ringPoint
	nodes  []string
}

type ringPoint struct {
	h    uint64
	node string
}

// NewRing builds a ring over the given node IDs (duplicates and empties
// dropped). Construction is deterministic: the member order does not
// matter.
func NewRing(nodes []string) *Ring {
	seen := make(map[string]bool, len(nodes))
	r := &Ring{}
	for _, n := range nodes {
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		r.nodes = append(r.nodes, n)
		for v := 0; v < ringVnodes; v++ {
			r.points = append(r.points, ringPoint{h: ringHash(fmt.Sprintf("%s#%d", n, v)), node: n})
		}
	}
	sort.Strings(r.nodes)
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].h != r.points[j].h {
			return r.points[i].h < r.points[j].h
		}
		return r.points[i].node < r.points[j].node
	})
	return r
}

// Nodes returns the ring's members, sorted.
func (r *Ring) Nodes() []string { return append([]string(nil), r.nodes...) }

// Owner returns the node owning key ("" on an empty ring).
func (r *Ring) Owner(key string) string {
	seq := r.Sequence(key)
	if len(seq) == 0 {
		return ""
	}
	return seq[0]
}

// Sequence returns every member in failover order for key: the owner
// first, then the distinct successors clockwise around the ring. A
// caller that finds seq[0] dead hands the key to seq[1], and every
// node computes the same handoff target.
func (r *Ring) Sequence(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	var out []string
	seen := make(map[string]bool, len(r.nodes))
	for n := 0; n < len(r.points) && len(out) < len(r.nodes); n++ {
		p := r.points[(i+n)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}

// fnv64 is FNV-1a, the repo's standard deterministic string hash.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// ringHash places a string on the ring: FNV-1a finalized with a
// splitmix64 round. Ring position compares full 64-bit values, and raw
// FNV of short near-identical strings ("n1#7" vs "n2#7") barely
// diffuses into the high bits — unfinalized, a three-node ring can
// starve a member outright.
func ringHash(s string) uint64 {
	z := fnv64(s) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
