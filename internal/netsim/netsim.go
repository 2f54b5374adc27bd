// Package netsim models the paper's evaluation testbed: hosts with
// 2002-era CPU throughput (P4 1.7 GHz / 256 MB and PM 1.6 GHz / 512 MB)
// connected by 10 Mbps Ethernet, plus smart-space topology with gateways
// for inter-space migration (paper §3.2, Fig. 1).
//
// The simulator charges transfer and CPU costs to a vclock.Clock. With a
// Virtual clock this reproduces the paper's multi-second migrations in
// microseconds of wall time; with a Real clock it paces live demos.
// Deterministic jitter comes from a seeded PRNG so runs are reproducible.
package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"mdagent/internal/vclock"
)

// ErrHostDown is wrapped by routing errors when an endpoint of a transfer
// has been taken down by fault injection.
var ErrHostDown = errors.New("netsim: host down")

// ErrPartitioned is wrapped by routing errors when the two endpoints of a
// transfer sit on different sides of an injected partition.
var ErrPartitioned = errors.New("netsim: network partitioned")

// ErrLinkDown is wrapped by routing errors when the link between the two
// endpoints of a transfer has been severed by fault injection (SetLinkDown
// or a Flap schedule).
var ErrLinkDown = errors.New("netsim: link down")

// HostProfile describes the compute characteristics of a simulated host.
// Serialization throughput governs suspend/wrap cost; deserialization
// throughput governs resume/unwrap cost; the fixed overheads model the
// agent-platform bookkeeping that dominates small payloads.
type HostProfile struct {
	Name            string
	SerializeMBps   float64       // component wrap / snapshot throughput
	DeserializeMBps float64       // component unwrap / restore throughput
	FixedSuspend    time.Duration // constant suspend-side platform overhead
	FixedResume     time.Duration // constant resume-side platform overhead
	MemoryMB        int
}

// Pentium4_1700 approximates the paper's source host (P4 1.7 GHz, 256 MB).
func Pentium4_1700() HostProfile {
	return HostProfile{
		Name:            "P4-1.7GHz",
		SerializeMBps:   28,
		DeserializeMBps: 24,
		FixedSuspend:    55 * time.Millisecond,
		FixedResume:     120 * time.Millisecond,
		MemoryMB:        256,
	}
}

// PentiumM_1600 approximates the paper's destination host (PM 1.6 GHz, 512 MB).
func PentiumM_1600() HostProfile {
	return HostProfile{
		Name:            "PM-1.6GHz",
		SerializeMBps:   30,
		DeserializeMBps: 26,
		FixedSuspend:    50 * time.Millisecond,
		FixedResume:     110 * time.Millisecond,
		MemoryMB:        512,
	}
}

// LinkProfile describes a network link. The paper's testbed used a
// 10 Mbps Ethernet segment.
type LinkProfile struct {
	BandwidthMbps float64       // payload bandwidth in megabits per second
	Latency       time.Duration // one-way propagation + switching delay
	JitterFrac    float64       // deterministic jitter as a fraction of cost
}

// Ethernet10 returns the paper's 10 Mbps Ethernet link.
func Ethernet10() LinkProfile {
	return LinkProfile{BandwidthMbps: 10, Latency: 2 * time.Millisecond, JitterFrac: 0.03}
}

// Ethernet100 returns a 100 Mbps link, used by ablation benches.
func Ethernet100() LinkProfile {
	return LinkProfile{BandwidthMbps: 100, Latency: time.Millisecond, JitterFrac: 0.03}
}

// WLAN11 returns an 11 Mbps 802.11b-class link with higher latency,
// modeling the paper's handheld scenarios.
func WLAN11() LinkProfile {
	return LinkProfile{BandwidthMbps: 11, Latency: 8 * time.Millisecond, JitterFrac: 0.10}
}

// Host is a simulated machine placed in a smart space.
type Host struct {
	ID      string
	Space   string
	Profile HostProfile
	Gateway bool // gateways bridge spaces (paper Fig. 1: "Gateway Required")

	clock vclock.Clock // possibly skewed view of the network clock
}

// Clock returns the host's (possibly skewed) clock.
func (h *Host) Clock() vclock.Clock { return h.clock }

type edge struct{ a, b string }

func normEdge(a, b string) edge {
	if a > b {
		a, b = b, a
	}
	return edge{a, b}
}

// Network is the simulated topology: hosts grouped into spaces, links
// between hosts, and gateways bridging spaces.
type Network struct {
	clock vclock.Clock

	mu          sync.RWMutex
	hosts       map[string]*Host
	links       map[edge]LinkProfile
	defaultLink LinkProfile
	rng         *rand.Rand
	down        map[string]bool   // fault injection: crashed hosts
	partition   map[string]string // fault injection: host -> partition side
	linkDown    map[edge]bool     // fault injection: severed host pairs
}

// gatewayCost is the extra cost charged each time a transfer crosses a
// space gateway (paper: inter-space requires gateway support).
const gatewayCost = 25 * time.Millisecond

// Option configures a Network.
type Option func(*Network)

// WithDefaultLink sets the link profile used between host pairs that have
// no explicit link.
func WithDefaultLink(l LinkProfile) Option {
	return func(n *Network) { n.defaultLink = l }
}

// WithSeed seeds the deterministic jitter source.
func WithSeed(seed int64) Option {
	return func(n *Network) { n.rng = rand.New(rand.NewSource(seed)) }
}

// New creates a Network charging costs to clock.
func New(clock vclock.Clock, opts ...Option) *Network {
	n := &Network{
		clock:       clock,
		hosts:       make(map[string]*Host),
		links:       make(map[edge]LinkProfile),
		defaultLink: Ethernet10(),
		rng:         rand.New(rand.NewSource(1)),
		down:        make(map[string]bool),
		partition:   make(map[string]string),
		linkDown:    make(map[edge]bool),
	}
	for _, o := range opts {
		o(n)
	}
	return n
}

// Clock returns the network's reference clock.
func (n *Network) Clock() vclock.Clock { return n.clock }

// AddHost places a host in a space. skew offsets the host's clock from the
// network reference clock, modeling unsynchronized machines (Fig. 7).
func (n *Network) AddHost(id, space string, profile HostProfile, skew time.Duration) (*Host, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.hosts[id]; ok {
		return nil, fmt.Errorf("netsim: host %q already exists", id)
	}
	h := &Host{
		ID:      id,
		Space:   space,
		Profile: profile,
		clock:   vclock.NewSkewed(n.clock, skew),
	}
	n.hosts[id] = h
	return h, nil
}

// AddGateway places a gateway host bridging its space to others.
func (n *Network) AddGateway(id, space string, profile HostProfile) (*Host, error) {
	h, err := n.AddHost(id, space, profile, 0)
	if err != nil {
		return nil, err
	}
	h.Gateway = true
	return h, nil
}

// SetLink installs an explicit link profile between two hosts.
func (n *Network) SetLink(a, b string, l LinkProfile) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[normEdge(a, b)] = l
}

// Host looks up a host by id.
func (n *Network) Host(id string) (*Host, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	h, ok := n.hosts[id]
	return h, ok
}

// Hosts returns the ids of all hosts, in unspecified order.
func (n *Network) Hosts() []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	ids := make([]string, 0, len(n.hosts))
	for id := range n.hosts {
		ids = append(ids, id)
	}
	return ids
}

func (n *Network) linkFor(a, b string) LinkProfile {
	if l, ok := n.links[normEdge(a, b)]; ok {
		return l
	}
	return n.defaultLink
}

// jitter returns cost perturbed by the link's deterministic jitter.
func (n *Network) jitter(cost time.Duration, frac float64) time.Duration {
	if frac <= 0 || cost <= 0 {
		return cost
	}
	// Uniform in [-frac, +frac].
	f := 1 + frac*(2*n.rng.Float64()-1)
	return time.Duration(float64(cost) * f)
}

// transferCost computes the one-hop cost of moving payload bytes across l.
func transferCost(l LinkProfile, bytes int64) time.Duration {
	if bytes < 0 {
		bytes = 0
	}
	bits := float64(bytes) * 8
	secs := bits / (l.BandwidthMbps * 1e6)
	return l.Latency + time.Duration(secs*float64(time.Second))
}

// Route describes the hop sequence a transfer takes.
type Route struct {
	Hops       []string // host ids including source and destination
	Gateways   int      // number of gateway traversals
	InterSpace bool
}

// SetHostDown injects (down=true) or repairs (down=false) a host crash:
// every transfer to or from a down host fails with ErrHostDown. The host's
// simulated processes keep running — only its network is severed — which
// models the paper testbed's machine becoming unreachable.
func (n *Network) SetHostDown(id string, down bool) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.hosts[id]; !ok {
		return fmt.Errorf("netsim: unknown host %q", id)
	}
	if down {
		n.down[id] = true
	} else {
		delete(n.down, id)
	}
	return nil
}

// HostDown reports whether a host is currently failed.
func (n *Network) HostDown(id string) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.down[id]
}

// Partition splits the network: hosts named in groups can only reach hosts
// within their own group. Hosts in no group stay reachable from every
// group. It replaces any previous partition; call HealPartition to rejoin.
func (n *Network) Partition(groups ...[]string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partition = make(map[string]string)
	for i, g := range groups {
		side := fmt.Sprintf("side-%d", i)
		for _, h := range g {
			n.partition[h] = side
		}
	}
}

// HealPartition removes any injected partition.
func (n *Network) HealPartition() {
	n.mu.Lock()
	n.partition = make(map[string]string)
	n.mu.Unlock()
}

// reachable checks fault-injection state; callers hold n.mu.
func (n *Network) reachable(from, to string) error {
	if n.down[from] {
		return fmt.Errorf("%w: %q", ErrHostDown, from)
	}
	if n.down[to] {
		return fmt.Errorf("%w: %q", ErrHostDown, to)
	}
	sa, sb := n.partition[from], n.partition[to]
	if sa != "" && sb != "" && sa != sb {
		return fmt.Errorf("%w: %q / %q", ErrPartitioned, from, to)
	}
	if n.linkDown[normEdge(from, to)] {
		return fmt.Errorf("%w: %q - %q", ErrLinkDown, from, to)
	}
	return nil
}

// SetLinkDown severs (down=true) or restores (down=false) the pairwise
// link between two hosts: transfers between exactly that pair fail with
// ErrLinkDown while every other path — including indirect routes through
// a common peer — stays up. It is the single-link analogue of Partition,
// modeling a flaky cable or a marginal wireless association.
func (n *Network) SetLinkDown(a, b string, down bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if down {
		n.linkDown[normEdge(a, b)] = true
	} else {
		delete(n.linkDown, normEdge(a, b))
	}
}

// LinkDown reports whether the a-b link is currently severed.
func (n *Network) LinkDown(a, b string) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.linkDown[normEdge(a, b)]
}

// Flap starts a flapping-link fault schedule: the a-b link toggles
// down/up every period until the returned stop function is called, which
// also restores the link. The schedule runs on the wall clock — it drives
// the gossip and federation protocols, which run on real timers, not the
// simulated testbed clock.
func (n *Network) Flap(a, b string, period time.Duration) (stop func()) {
	stopCh := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(period)
		defer t.Stop()
		down := false
		for {
			select {
			case <-stopCh:
				return
			case <-t.C:
				down = !down
				n.SetLinkDown(a, b, down)
			}
		}
	}()
	return func() {
		once.Do(func() {
			close(stopCh)
			wg.Wait()
			n.SetLinkDown(a, b, false)
		})
	}
}

// RouteBetween computes the route from one host to another. Hosts in the
// same space connect directly; hosts in different spaces route through each
// space's gateway (paper Fig. 1: inter-space mobility requires gateways).
func (n *Network) RouteBetween(from, to string) (Route, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	src, ok := n.hosts[from]
	if !ok {
		return Route{}, fmt.Errorf("netsim: unknown source host %q", from)
	}
	dst, ok := n.hosts[to]
	if !ok {
		return Route{}, fmt.Errorf("netsim: unknown destination host %q", to)
	}
	if from != to {
		if err := n.reachable(from, to); err != nil {
			return Route{}, err
		}
	}
	if from == to {
		return Route{Hops: []string{from}}, nil
	}
	if src.Space == dst.Space {
		return Route{Hops: []string{from, to}}, nil
	}
	gwSrc := n.gatewayOf(src.Space)
	gwDst := n.gatewayOf(dst.Space)
	if gwSrc == nil || gwDst == nil {
		return Route{}, fmt.Errorf("netsim: no gateway between space %q and %q", src.Space, dst.Space)
	}
	hops := []string{from}
	gateways := 0
	if gwSrc.ID != from {
		hops = append(hops, gwSrc.ID)
	}
	gateways++
	if gwDst.ID != gwSrc.ID {
		hops = append(hops, gwDst.ID)
		gateways++
	}
	if gwDst.ID != to {
		hops = append(hops, to)
	}
	for _, hop := range hops {
		if n.down[hop] {
			return Route{}, fmt.Errorf("%w: gateway hop %q", ErrHostDown, hop)
		}
	}
	return Route{Hops: hops, Gateways: gateways, InterSpace: true}, nil
}

// gatewayOf returns any gateway in space; callers hold n.mu.
func (n *Network) gatewayOf(space string) *Host {
	for _, h := range n.hosts {
		if h.Space == space && h.Gateway {
			return h
		}
	}
	return nil
}

// Transfer charges the clock for moving payload bytes from one host to
// another and returns the charged duration and route taken.
func (n *Network) Transfer(from, to string, bytes int64) (time.Duration, Route, error) {
	route, err := n.RouteBetween(from, to)
	if err != nil {
		return 0, Route{}, err
	}
	var total time.Duration
	n.mu.Lock()
	for i := 0; i+1 < len(route.Hops); i++ {
		l := n.linkFor(route.Hops[i], route.Hops[i+1])
		total += n.jitter(transferCost(l, bytes), l.JitterFrac)
	}
	total += time.Duration(route.Gateways) * gatewayCost
	n.mu.Unlock()
	n.clock.Charge(total)
	return total, route, nil
}

// EstimateTransfer returns the nominal (jitter-free) cost of a transfer
// without charging the clock. Autonomous agents use it when reasoning about
// whether the "network condition is good" (paper Fig. 6, Rule 3).
func (n *Network) EstimateTransfer(from, to string, bytes int64) (time.Duration, error) {
	route, err := n.RouteBetween(from, to)
	if err != nil {
		return 0, err
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	var total time.Duration
	for i := 0; i+1 < len(route.Hops); i++ {
		total += transferCost(n.linkFor(route.Hops[i], route.Hops[i+1]), bytes)
	}
	total += time.Duration(route.Gateways) * gatewayCost
	return total, nil
}

// ResponseTime estimates the request/response latency between two hosts in
// milliseconds, the quantity the paper's Rule 3 compares against 1000 ms.
func (n *Network) ResponseTime(from, to string) (time.Duration, error) {
	// A small probe message both ways.
	oneWay, err := n.EstimateTransfer(from, to, 512)
	if err != nil {
		return 0, err
	}
	back, err := n.EstimateTransfer(to, from, 512)
	if err != nil {
		return 0, err
	}
	return oneWay + back, nil
}

// ChargeSerialize charges h's profile cost for wrapping payload bytes and
// returns the charged duration.
func (n *Network) ChargeSerialize(h *Host, bytes int64) time.Duration {
	cost := SerializeCost(h.Profile, bytes)
	n.clock.Charge(cost)
	return cost
}

// ChargeDeserialize charges h's profile cost for unwrapping payload bytes
// and returns the charged duration.
func (n *Network) ChargeDeserialize(h *Host, bytes int64) time.Duration {
	cost := DeserializeCost(h.Profile, bytes)
	n.clock.Charge(cost)
	return cost
}

// SerializeCost computes the CPU cost of wrapping payload bytes on a host
// with profile p: fixed platform overhead plus throughput-bound copy.
func SerializeCost(p HostProfile, bytes int64) time.Duration {
	if bytes < 0 {
		bytes = 0
	}
	secs := float64(bytes) / (p.SerializeMBps * 1e6)
	return p.FixedSuspend + time.Duration(secs*float64(time.Second))
}

// DeserializeCost computes the CPU cost of unwrapping payload bytes on a
// host with profile p.
func DeserializeCost(p HostProfile, bytes int64) time.Duration {
	if bytes < 0 {
		bytes = 0
	}
	secs := float64(bytes) / (p.DeserializeMBps * 1e6)
	return p.FixedResume + time.Duration(secs*float64(time.Second))
}
