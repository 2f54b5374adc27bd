package cluster

import (
	"fmt"

	"mdagent/internal/state"
	"mdagent/internal/transport"
)

// WriteConcern selects how durable a federation write must be before it
// returns: how many peer centers must synchronously acknowledge the
// pushed record (or snapshot delta). The local copy always lands first;
// the concern only controls how long the writer blocks for replication.
type WriteConcern string

// Write concerns, in increasing durability order.
const (
	// WriteAsync returns as soon as the write lands locally; replication
	// is fire-and-forget push plus anti-entropy (the pre-durability
	// behaviour, and the default). A record written only to a center
	// that dies before its first push is lost.
	WriteAsync WriteConcern = "async"
	// WriteOne blocks until at least one peer center acknowledged the
	// write, so it survives the loss of the writing center.
	WriteOne WriteConcern = "one"
	// WriteQuorum blocks until a majority of the federation (the writing
	// center included) holds the write, so it survives the loss of any
	// minority of centers.
	WriteQuorum WriteConcern = "quorum"
)

// ErrNotDurable reports a durability shortfall: the write landed locally
// (and anti-entropy keeps retrying delivery) but fewer peers than the
// concern requires acknowledged it in time. Aliased from the state
// package so the replication pipeline and packages that must not import
// cluster (migrate, core helpers) check the same sentinel.
var ErrNotDurable = state.ErrNotDurable

// Durability shortfalls normally cross the snapshot wire in-band
// (the not-durable flag of a fast put outcome), but any path where the text leaks into
// an error reply should still satisfy errors.Is on the far side.
func init() { transport.RegisterWireSentinel(ErrNotDurable) }

// ParseWriteConcern validates a write-concern string — the flag and
// wire-header boundary. Empty means "use the configured default".
func ParseWriteConcern(s string) (WriteConcern, error) {
	switch WriteConcern(s) {
	case "", WriteAsync:
		return WriteAsync, nil
	case WriteOne:
		return WriteOne, nil
	case WriteQuorum:
		return WriteQuorum, nil
	}
	return "", fmt.Errorf("cluster: unknown write concern %q (want %s, %s or %s)",
		s, WriteAsync, WriteOne, WriteQuorum)
}

// requiredAcks is how many peer acknowledgements a concern demands over
// a federation of 1+peers centers. Quorum counts the local copy: a
// majority of n centers needs n/2 rounded up plus one holders, of which
// the writer itself is one.
func requiredAcks(wc WriteConcern, peers int) int {
	switch wc {
	case WriteOne:
		if peers == 0 {
			return 0 // standalone center: local durability is all there is
		}
		return 1
	case WriteQuorum:
		return (peers + 1) / 2
	}
	return 0
}

// DurabilityEvent describes the outcome of one synchronous-concern write
// attempt (async writes never report). internal/core bridges these onto
// the context kernel as cluster.durable / cluster.degraded events.
type DurabilityEvent struct {
	Key      string       // record key the write targeted
	Concern  WriteConcern // effective concern of the write
	Required int          // peer acks the concern demanded
	Acked    int          // peer acks collected before the verdict
	// Degraded reports that the membership view said too few peer
	// centers were reachable to ever meet the concern, so the write
	// skipped the ack wait entirely and fell back to async replication.
	Degraded bool
	// Durable reports that the concern was met.
	Durable bool
}
