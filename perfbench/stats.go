package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"mdagent/internal/obs"
)

// samples is a set of latencies in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, ms(d)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile by linear interpolation between the
// two nearest ranks (0 when empty).
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return c[lo] + (c[hi]-c[lo])*(pos-float64(lo))
}

func (s samples) median() float64 { return s.quantile(0.5) }

// tailMin is the sample count a tail percentile q needs: at least ten
// samples must lie beyond it.
func tailMin(q float64) int { return int(math.Ceil(10/(1-q) - 1e-9)) }

// tail returns the q-quantile, or an error when fewer than ten samples
// lie beyond it — such a percentile is not reported.
func (s samples) tail(name string, q float64) (float64, error) {
	if len(s) < tailMin(q) {
		return 0, fmt.Errorf("%s: %d samples, a p%g needs %d", name, len(s), q*100, tailMin(q))
	}
	return s.quantile(q), nil
}

// metricSet indexes one obs registry snapshot (a ctl.Client.Metrics
// reply) by metric name, summing across label sets.
type metricSet map[string][]obs.Sample

func indexMetrics(ss []obs.Sample) metricSet {
	m := metricSet{}
	for _, s := range ss {
		m[s.Name] = append(m[s.Name], s)
	}
	return m
}

// value sums a counter or gauge across label sets matching labels.
func (m metricSet) value(name string, labels ...string) int64 {
	var v int64
	for _, s := range m[name] {
		if matchLabels(s, labels) {
			v += s.Value
		}
	}
	return v
}

// hist merges a histogram's label sets matching labels.
func (m metricSet) hist(name string, labels ...string) obs.Sample {
	out := obs.Sample{Name: name, Type: "histogram"}
	byLe := map[int64]int64{}
	for _, s := range m[name] {
		if !matchLabels(s, labels) {
			continue
		}
		out.Count += s.Count
		out.Sum += s.Sum
		for _, b := range s.Bkts {
			byLe[b.Le] += b.Count
		}
	}
	for le, c := range byLe {
		out.Bkts = append(out.Bkts, obs.Bucket{Le: le, Count: c})
	}
	sort.Slice(out.Bkts, func(i, j int) bool { return out.Bkts[i].Le < out.Bkts[j].Le })
	return out
}

func matchLabels(s obs.Sample, kv []string) bool {
	for i := 0; i+1 < len(kv); i += 2 {
		if s.Labels[kv[i]] != kv[i+1] {
			return false
		}
	}
	return true
}

// histDelta is after minus before, bucket by bucket: the observations
// made inside a measured window.
func histDelta(after, before obs.Sample) obs.Sample {
	out := obs.Sample{Name: after.Name, Type: after.Type, Count: after.Count - before.Count, Sum: after.Sum - before.Sum}
	prev := map[int64]int64{}
	for _, b := range before.Bkts {
		prev[b.Le] = b.Count
	}
	for _, b := range after.Bkts {
		if c := b.Count - prev[b.Le]; c > 0 {
			out.Bkts = append(out.Bkts, obs.Bucket{Le: b.Le, Count: c})
		}
	}
	return out
}

// histQuantile estimates the q-quantile of a log2-bucketed obs
// histogram, interpolating geometrically inside the bucket that holds
// it (bucket i spans [Le/2, Le]). The unit is whatever the histogram
// observed, in its raw nanosecond field.
func histQuantile(h obs.Sample, q float64) float64 {
	if h.Count <= 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var cum float64
	for _, b := range h.Bkts {
		if b.Count == 0 {
			continue
		}
		if cum+float64(b.Count) >= rank {
			frac := (rank - cum) / float64(b.Count)
			lo := float64(b.Le) / 2
			if lo < 1 {
				return float64(b.Le) * frac
			}
			return lo * math.Pow(2, frac)
		}
		cum += float64(b.Count)
	}
	return float64(h.Bkts[len(h.Bkts)-1].Le)
}

// histMean is the histogram's mean observation in its raw unit.
func histMean(h obs.Sample) float64 {
	if h.Count <= 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}
