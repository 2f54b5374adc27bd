package cluster

// Bounded gossip dissemination (SWIM's piggyback buffer). Every state
// change a node observes — a member learned, escalated, convicted,
// refuted, or leaving — is queued here once per member and rides along
// on the next probes and acks, fewest-transmissions-first, until it has
// been sent λ·log₂N times. Messages carry at most MaxPiggyback updates,
// so gossip payload size is O(1) in cluster size where the pre-PR 7
// full-table piggyback was O(N). Full-table exchanges survive in three
// places — join bootstrap (a probe from an unknown sender is answered
// with the whole table), the FullSyncEvery anti-entropy cadence, and
// Rejoin — which repair anything the bounded buffer evicted too early.

import (
	"math/bits"
	"sort"
)

// qUpdate is one queued rumor awaiting piggybacked dissemination.
type qUpdate struct {
	m         Member
	transmits int
}

// enqueueLocked queues m for dissemination, replacing any queued rumor
// about the same member and resetting its transmit count. Replacement
// is what lets a refutation (alive at a higher incarnation) or an
// escalation (suspect to dead) preempt a stale rumor mid-flight with a
// fresh retransmit budget: applyTable only records changes that
// supersede the table, so whatever is enqueued last is newest. Callers
// hold n.mu.
func (n *Node) enqueueLocked(m Member) {
	n.queue[m.ID] = &qUpdate{m: m}
	n.mQueueDepth.Set(int64(len(n.queue)))
}

// retransmitLimitLocked is the per-rumor transmit budget,
// λ·⌈log₂(N+1)⌉ with a small floor so tiny clusters still repeat each
// rumor a few times. Callers hold n.mu.
func (n *Node) retransmitLimitLocked() int {
	limit := n.cfg.RetransmitMult * bits.Len(uint(len(n.members)))
	if limit < 3 {
		limit = 3
	}
	return limit
}

// selectUpdatesLocked picks up to MaxPiggyback queued updates for one
// outgoing message, fewest-transmissions-first (ties broken by id so
// tests are deterministic), charges each pick one transmission, and
// evicts rumors that exhausted their budget. Callers hold n.mu.
func (n *Node) selectUpdatesLocked() []Member {
	if len(n.queue) == 0 {
		return nil
	}
	ids := make([]string, 0, len(n.queue))
	for id := range n.queue {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := n.queue[ids[i]], n.queue[ids[j]]
		if a.transmits != b.transmits {
			return a.transmits < b.transmits
		}
		return ids[i] < ids[j]
	})
	limit := n.retransmitLimitLocked()
	take := n.cfg.MaxPiggyback
	if len(ids) < take {
		take = len(ids)
	}
	out := make([]Member, 0, take)
	for _, id := range ids[:take] {
		u := n.queue[id]
		out = append(out, u.m)
		u.transmits++
		if u.transmits >= limit {
			delete(n.queue, id)
		}
	}
	n.mQueueDepth.Set(int64(len(n.queue)))
	return out
}

// gossipLoad is one outgoing message's piggyback payload: a bounded
// batch of queued updates, or (full) the whole table.
type gossipLoad struct {
	updates []Member
	full    bool
	table   []Member
}

// load builds the bounded payload for one outgoing message: the given
// must-carry entries (certificates a specific probe depends on — they
// do not charge the queue's budget) followed by the queue's selection.
func (n *Node) load(must ...Member) gossipLoad {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.loadLocked(must...)
}

func (n *Node) loadLocked(must ...Member) gossipLoad {
	sel := n.selectUpdatesLocked()
	if len(must) == 0 {
		return gossipLoad{updates: sel}
	}
	merged := make([]Member, 0, len(must)+len(sel))
	seen := make(map[string]bool, len(must))
	for _, m := range must {
		if !seen[m.ID] {
			merged = append(merged, m)
			seen[m.ID] = true
		}
	}
	for _, m := range sel {
		if !seen[m.ID] {
			merged = append(merged, m)
		}
	}
	return gossipLoad{updates: merged}
}

// fullLoad is a full-table anti-entropy payload.
func (n *Node) fullLoad() gossipLoad {
	return gossipLoad{full: true, table: n.tableSnapshot()}
}

// absorb merges a received payload: the full table when the exchange
// was Full, the bounded updates otherwise. Full-table merges do not
// re-enter the dissemination buffer — the sender's whole table is
// already wherever its gossip reaches, and re-queueing N entries on
// every bootstrap exchange floods the bounded buffer with redundant
// rumors that crowd out real news for hundreds of rounds. Bounded
// updates are rumors mid-flight and do re-queue, which is what carries
// them across the cluster in O(log N) rounds.
func (n *Node) absorb(updates, table []Member, full bool) {
	if full {
		n.applyFull(table)
		return
	}
	n.applyTable(updates)
}
