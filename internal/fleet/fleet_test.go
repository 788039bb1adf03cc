package fleet

import (
	"fmt"
	"reflect"
	"testing"
)

// TestRingDeterministicPlacement: every node that knows the same member
// set computes the same owner and the same failover sequence for every
// key, regardless of the order the members were listed in.
func TestRingDeterministicPlacement(t *testing.T) {
	a := NewRing([]string{"n1", "n2", "n3"})
	b := NewRing([]string{"n3", "n1", "n2", "n1", ""})
	if !reflect.DeepEqual(a.Nodes(), b.Nodes()) {
		t.Fatalf("member sets diverge: %v vs %v", a.Nodes(), b.Nodes())
	}
	owned := make(map[string]int)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("job|prog-%d", i)
		sa, sb := a.Sequence(key), b.Sequence(key)
		if !reflect.DeepEqual(sa, sb) {
			t.Fatalf("key %s: sequences diverge: %v vs %v", key, sa, sb)
		}
		if len(sa) != 3 {
			t.Fatalf("key %s: sequence %v does not cover the fleet", key, sa)
		}
		owned[sa[0]]++
	}
	// Consistent hashing should spread 200 keys across 3 nodes without
	// starving any member outright.
	for _, id := range a.Nodes() {
		if owned[id] == 0 {
			t.Errorf("node %s owns no keys: %v", id, owned)
		}
	}
}

// TestRingEmptyAndSingle: degenerate rings answer rather than panic.
func TestRingEmptyAndSingle(t *testing.T) {
	if got := NewRing(nil).Owner("k"); got != "" {
		t.Errorf("empty ring owner = %q, want \"\"", got)
	}
	if got := NewRing([]string{"only"}).Owner("k"); got != "only" {
		t.Errorf("single ring owner = %q, want only", got)
	}
}

// TestNodeStatusSnapshot: Status reflects membership, liveness and the
// job-routing view.
func TestNodeStatusSnapshot(t *testing.T) {
	peers := []string{"n1", "n2", "n3"}
	n := New(Config{ID: "n1", Peers: peers})
	other := New(Config{ID: "n2", Peers: peers})
	n.MarkDown("n3")
	other.MarkDown("n3")
	n.NoteJobHandoff()
	st := n.Status()
	if st.Node != "n1" || st.JobHandoffs != 1 {
		t.Errorf("status = %+v, want node n1 with 1 job handoff", st)
	}
	if len(st.Peers) != 3 {
		t.Fatalf("peers = %v, want all 3 members", st.Peers)
	}
	for _, p := range st.Peers {
		wantAlive := p.ID != "n3"
		if p.Alive != wantAlive {
			t.Errorf("peer %s alive = %v, want %v", p.ID, p.Alive, wantAlive)
		}
		if p.Self != (p.ID == "n1") {
			t.Errorf("peer %s self = %v", p.ID, p.Self)
		}
	}
	// Ownership agrees across survivors even after the death.
	if o1, o2 := n.OwnerOf("deadbeef"), other.OwnerOf("deadbeef"); o1 != o2 {
		t.Errorf("owners diverge after a death: %s vs %s", o1, o2)
	}
	if seq := n.JobSequence("deadbeef"); len(seq) != 3 || seq[0] != n.OwnerOf("deadbeef") {
		t.Errorf("job sequence %v does not start at owner %s", seq, n.OwnerOf("deadbeef"))
	}
}
