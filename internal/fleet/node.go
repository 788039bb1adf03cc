// Package fleet is the multi-node mode of the diagnosis service: a set
// of aitia-serve replicas that route each job to its owner by
// consistent hash of the program, and hand a job off to the next node
// in ring order when its owner is down.
//
// Routing is the only thing the fleet distributes. A diagnosis runs
// entirely on the node that accepted it — serially, on that node's
// local LIFS worker pool, or resumed from its checkpoints — so which
// node ran a job changes availability and the job's Node stamp, never
// its chain.
package fleet

import (
	"sync"
	"sync/atomic"
)

// Config assembles a fleet node.
type Config struct {
	// ID is this node's stable identity; Peers is the full member list
	// (including ID). Every node must be configured with the same set —
	// consistent hashing depends on it.
	ID    string
	Peers []string
}

// Node is one fleet member: the job-routing ring and this node's view
// of which peers are alive.
type Node struct {
	cfg     Config
	jobRing *Ring

	mu   sync.Mutex
	down map[string]bool

	jobHandoffs atomic.Uint64 // jobs taken over from (or forwarded past) a dead owner
}

// New assembles a node.
func New(cfg Config) *Node {
	return &Node{
		cfg:     cfg,
		jobRing: NewRing(cfg.Peers),
		down:    make(map[string]bool),
	}
}

// ID returns the node's identity.
func (n *Node) ID() string { return n.cfg.ID }

// OwnerOf returns the fleet node owning the job for the given program
// hash.
func (n *Node) OwnerOf(progHash string) string { return n.jobRing.Owner("job|" + progHash) }

// JobSequence returns the failover order for a job: owner first, then
// handoff targets.
func (n *Node) JobSequence(progHash string) []string { return n.jobRing.Sequence("job|" + progHash) }

// MarkDown records that a peer is unreachable (observed by a failed
// proxy). Routing skips down peers.
func (n *Node) MarkDown(peer string) {
	n.mu.Lock()
	n.down[peer] = true
	n.mu.Unlock()
}

// Alive reports whether the node considers a peer reachable.
func (n *Node) Alive(peer string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return !n.down[peer]
}

// NoteJobHandoff counts a job routed past its dead owner.
func (n *Node) NoteJobHandoff() { n.jobHandoffs.Add(1) }

// PeerStatus is one row of the fleet status.
type PeerStatus struct {
	ID    string `json:"id"`
	Self  bool   `json:"self,omitempty"`
	Alive bool   `json:"alive"`
}

// Status is the machine-readable fleet state served at /v1/fleet.
type Status struct {
	Node        string       `json:"node"`
	Peers       []PeerStatus `json:"peers"`
	JobHandoffs uint64       `json:"job_handoffs"`
}

// Status snapshots the node.
func (n *Node) Status() Status {
	n.mu.Lock()
	var peers []PeerStatus
	for _, p := range n.jobRing.Nodes() {
		peers = append(peers, PeerStatus{ID: p, Self: p == n.cfg.ID, Alive: !n.down[p]})
	}
	n.mu.Unlock()
	return Status{
		Node:        n.cfg.ID,
		Peers:       peers,
		JobHandoffs: n.jobHandoffs.Load(),
	}
}
