package main

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// The benchmark runs on shared virtual machines, where the hypervisor
// can take a large and varying share of the CPU time the guest asks for
// ("steal"). On a 2-vCPU host, steal moved a run's migration p50 by
// more than half between quiet and busy minutes, far beyond any bound a
// regression gate can use. So every gated latency is taken only from
// operations that ran entirely inside quiet slots: 50 ms slots in which
// the hypervisor stole no CPU time (/proc/stat counts steal in 10 ms
// ticks). Operations in slots with any steal ran measurably slower even
// when the steal was small, so the bar is zero. The detail line reports
// the unfiltered p50, the share of operations kept and the steal limit
// used.
const (
	stealSlot  = 50 * time.Millisecond
	quietSteal = 0.0
)

// stealMeter samples the machine's CPU tick counters once per slot.
type stealMeter struct {
	mu    sync.Mutex
	slots []slotSample
	stop  chan struct{}
	done  chan struct{}
}

type slotSample struct {
	from, to time.Time
	share    float64 // steal over demand (busy + steal) in the slot
}

// startStealMeter starts sampling; without /proc/stat every slot reads
// as quiet.
func startStealMeter() *stealMeter {
	m := &stealMeter{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		prev, at := readCPUTicks(), time.Now()
		tick := time.NewTicker(stealSlot)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				return
			case now := <-tick.C:
				cur := readCPUTicks()
				m.mu.Lock()
				m.slots = append(m.slots, slotSample{from: at, to: now, share: stealOfDemand(prev, cur)})
				m.mu.Unlock()
				prev, at = cur, now
			}
		}
	}()
	return m
}

func (m *stealMeter) close() {
	close(m.stop)
	<-m.done
}

// share is the highest steal share among the slots [from, to] touches,
// and whether the meter has sampled past to yet.
func (m *stealMeter) share(from, to time.Time) (share float64, known bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	i := sort.Search(len(m.slots), func(i int) bool { return m.slots[i].to.After(from) })
	for ; i < len(m.slots); i++ {
		share = max(share, m.slots[i].share)
		if !m.slots[i].to.Before(to) {
			return share, true
		}
	}
	return share, false
}

// timings records operations by start and end, so their latencies can
// be kept or dropped by what the hypervisor did meanwhile.
type timings []span

type span struct{ from, to time.Time }

func (t *timings) add(from, to time.Time) { *t = append(*t, span{from, to}) }

// all is every latency, in milliseconds.
func (t timings) all() samples {
	out := make(samples, len(t))
	for i, s := range t {
		out[i] = ms(s.to.Sub(s.from))
	}
	return out
}

// quiet is the latencies of the operations that ran in quiet slots
// only. When fewer than need did (a long busy spell on the host), the
// threshold rises to the least steal that admits need operations (or
// all of them, when there are fewer), so a run still reports its
// quietest operations. It also returns the threshold used.
func (t timings) quiet(m *stealMeter, need int) (samples, float64) {
	shares := make([]float64, len(t))
	for i, s := range t {
		shares[i], _ = m.share(s.from, s.to)
	}
	limit := quietSteal
	if k := min(need, len(shares)); k > 0 {
		sorted := append([]float64(nil), shares...)
		sort.Float64s(sorted)
		limit = max(limit, sorted[k-1])
	}
	var out samples
	for i, s := range t {
		if shares[i] <= limit {
			out = append(out, ms(s.to.Sub(s.from)))
		}
	}
	return out, limit
}

// quietCount counts the operations that ran in quiet slots, among those
// the meter has already sampled past.
func (t timings) quietCount(m *stealMeter) int {
	n := 0
	for _, s := range t {
		if share, known := m.share(s.from, s.to); known && share <= quietSteal {
			n++
		}
	}
	return n
}

// readCPUTicks reads the host-wide CPU tick counters from /proc/stat
// (user nice system idle iowait irq softirq steal ...); nil if absent.
func readCPUTicks() []float64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return nil
	}
	ticks := make([]float64, 0, len(f)-1)
	for _, v := range f[1:] {
		var t float64
		if _, err := fmt.Sscan(v, &t); err != nil {
			return nil
		}
		ticks = append(ticks, t)
	}
	return ticks
}

// stealOfDemand is the share of the CPU time the machine wanted between
// two readings that the hypervisor took instead (0 when idle).
func stealOfDemand(a, b []float64) float64 {
	if len(a) < 8 || len(b) < len(a) {
		return 0
	}
	d := func(i int) float64 { return b[i] - a[i] }
	steal := d(7)
	demand := d(0) + d(1) + d(2) + d(5) + d(6) + steal
	if demand <= 0 {
		return 0
	}
	return steal / demand
}

// stealShare is the share of all CPU time the hypervisor took between
// two readings, for the host facts.
func stealShare(a, b []float64) float64 {
	if len(a) < 8 || len(b) < len(a) {
		return 0
	}
	var total float64
	for i := range a {
		total += b[i] - a[i]
	}
	if total <= 0 {
		return 0
	}
	return (b[7] - a[7]) / total
}
