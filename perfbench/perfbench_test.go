package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mdagent/internal/app"
	"mdagent/internal/cluster"
	"mdagent/internal/obs"
)

// manifest is the shape of BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestManifestMatchesCatalog holds BENCHMARK.json and catalog.go in step.
func TestManifestMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, catalog %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.manifestWhy() {
			t.Errorf("workload %d: json %+v, catalog %q / %q", i, m.Workloads[i], w.name, w.manifestWhy())
		}
		if len(w.manifestWhy()) > 200 {
			t.Errorf("workload %s: why is %d characters, over 200", w.name, len(w.manifestWhy()))
		}
	}
	if len(m.EndToEnd) != len(endToEnd) || len(m.PerLayer) != len(perLayer) {
		t.Fatalf("json has %d/%d metrics, catalog %d/%d", len(m.EndToEnd), len(m.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		j := m.EndToEnd[i]
		if j.Name != d.name || j.Unit != d.unit || j.Better != d.better || j.Bound != d.bound || j.Bound > 0.25 {
			t.Errorf("end_to_end %d: json %+v, catalog %+v", i, j, d)
		}
	}
	for i, d := range perLayer {
		j := m.PerLayer[i]
		if j.Name != d.name || j.Unit != d.unit || j.Better != d.better {
			t.Errorf("per_layer %d: json %+v, catalog %+v", i, j, d)
		}
		if d.layer == "" || (d.moves == "" && !strings.HasPrefix(d.name, "trace.")) {
			t.Errorf("per_layer %s: no layer or no end-to-end metric it should move", d.name)
		}
	}
}

// buildDaemons builds the binaries under test once per test binary.
var builtBin string

func buildDaemons(t *testing.T) string {
	t.Helper()
	if builtBin != "" {
		return builtBin
	}
	dir, err := os.MkdirTemp("", "perfbench-bin-")
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "mdagent/cmd/mdagentd", "mdagent/cmd/mdregistry")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build daemons: %v\n%s", err, out)
	}
	builtBin = dir
	return dir
}

func TestMain(m *testing.M) {
	code := m.Run()
	if builtBin != "" {
		os.RemoveAll(builtBin)
	}
	os.Exit(code)
}

func shortEnv(t *testing.T, traced bool) env {
	m := startStealMeter()
	t.Cleanup(m.close)
	return env{
		seed: 3, seconds: 2 * time.Second, traced: traced, short: true,
		binDir: buildDaemons(t), runRoot: t.TempDir(), gomaxprocs: 2, steal: m,
	}
}

// TestShortRunsEmitEveryMetric runs each workload briefly, untraced and
// traced, and checks every catalog metric comes out with its unit and
// that no check failed.
func TestShortRunsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real daemons")
	}
	for _, w := range workloadNames() {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%v", w, traced), func(t *testing.T) {
				e := shortEnv(t, traced)
				wf, _ := workloadByName(w)
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
				defer cancel()
				out, err := wf(ctx, e)
				if err != nil {
					t.Fatal(err)
				}
				res, err := assemble(e, out)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 {
					t.Fatalf("failed %d of %d: %v", res.Failed, res.Attempted, out.failures)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Fatalf("%d metrics emitted, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					mv, ok := res.Metrics[d.name]
					if !ok || mv.Unit != d.unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.name, mv, d.unit)
					}
					if !traced && mv.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, mv.Value)
					}
				}
				if out.fabric == "" || len(out.procs) == 0 {
					t.Errorf("host facts missing fabric or processes: %q %v", out.fabric, out.procs)
				}
			})
		}
	}
}

// TestReadbackCountsMissingPutAsFailed corrupts the ledger of acked puts
// after a real durable-write round: a put the peers never received, and
// an acked put whose expected frame differs from what was sent, must each
// count as a failed op, never as passing.
func TestReadbackCountsMissingPutAsFailed(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real daemons")
	}
	e := shortEnv(t, false)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	rng := rand.New(rand.NewSource(5))
	r, err := dwUp(ctx, e, rng)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	fleet := []string{"app-a", "app-b", "app-c", "app-d"}
	ledger := &putLedger{last: map[string]seededPut{}}
	o := newOutcome("loopback-tcp")
	if _, _, err := dwPhase(ctx, e, r, o, rng, fleet, 200*time.Millisecond, 1, ledger, cluster.WriteQuorum); err != nil {
		t.Fatal(err)
	}
	if o.failed != 0 || len(ledger.last) == 0 {
		t.Fatalf("clean round: %d failed, %d apps acked", o.failed, len(ledger.last))
	}
	clean := newOutcome("loopback-tcp")
	if err := dwChecks(ctx, r, clean, ledger); err != nil {
		t.Fatal(err)
	}
	if clean.failed != 0 {
		t.Fatalf("uncorrupted read-back failed: %v", clean.failures)
	}

	// Never sent: the peers cannot hold it.
	ledger.last["app-never-sent"] = makePut(rng, "app-never-sent", 1024)
	// Sent, but the ledger expects other bytes than the peers hold.
	for name, p := range ledger.last {
		if name != "app-never-sent" {
			p.frame[0] ^= 0xff
			ledger.last[name] = p
			break
		}
	}
	bad := newOutcome("loopback-tcp")
	if err := dwChecks(ctx, r, bad, ledger); err != nil {
		t.Fatal(err)
	}
	if bad.failed != 2 {
		t.Fatalf("corrupted ledger: %d failed (%v), want 2", bad.failed, bad.failures)
	}
}

// TestCLIRefusesWithoutBinaries: in a directory without the built
// daemons the benchmark exits non-zero and prints no result.
func TestCLIRefusesWithoutBinaries(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "follow-me", "--bin", t.TempDir()}, &stdout, &stderr)
	if code == 0 || stdout.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, stdout.String())
	}
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 {
		t.Fatal("unknown workload accepted")
	}
}

func TestSpanBreakdownSubtractsNestedSpans(t *testing.T) {
	t0 := time.Unix(100, 0)
	ms := time.Millisecond
	tr := obs.MigrationTrace{Spans: []obs.Span{
		{Phase: obs.PhaseSuspend, Start: t0, Dur: 1 * ms},
		{Phase: obs.PhaseCapture, Start: t0.Add(1 * ms), Dur: 2 * ms},
		{Phase: obs.PhaseTransfer, Start: t0.Add(3 * ms), Dur: 10 * ms},
		{Phase: obs.PhaseRestore, Start: t0.Add(5 * ms), Dur: 3 * ms},
		{Phase: obs.PhaseRebind, Start: t0.Add(7 * ms), Dur: 4 * ms}, // overlaps restore by 1 ms
	}}
	self, root := spanBreakdown(tr)
	if root != 13*ms {
		t.Errorf("root = %v, want 13ms", root)
	}
	if got := self[obs.PhaseTransfer]; got != 4*ms {
		t.Errorf("transfer self = %v, want 4ms (10 minus 6 covered)", got)
	}
	if self[obs.PhaseRestore] != 3*ms || self[obs.PhaseRebind] != 4*ms {
		t.Errorf("nested spans: %v", self)
	}
}

func TestSameStateIgnoresFieldOrder(t *testing.T) {
	capture := func(fields [][2]string) app.Wrap {
		a := app.New("x", "h", bundleDesc("x"))
		st := app.NewState("s")
		for _, f := range fields {
			st.Set(f[0], f[1])
		}
		if err := a.AddComponent(st); err != nil {
			t.Fatal(err)
		}
		w, err := a.WrapComponents(nil)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	fields := [][2]string{{"a", "1"}, {"b", "2"}, {"c", "3"}, {"d", "4"}}
	w := capture(fields)
	for i := 0; i < 20; i++ {
		if !sameState(w, capture(fields)) {
			t.Fatal("equal states compared unequal")
		}
	}
	if sameState(w, capture(fields[:3])) {
		t.Fatal("different states compared equal")
	}
}

func TestTailNeedsTenBeyond(t *testing.T) {
	var s samples
	for i := 0; i < 99; i++ {
		s = append(s, float64(i))
	}
	if _, err := s.tail("x", 0.9); err == nil {
		t.Fatal("p90 of 99 samples reported")
	}
	s = append(s, 99)
	if v, err := s.tail("x", 0.9); err != nil || v < 89 || v > 90 {
		t.Fatalf("p90 of 0..99 = %v, %v", v, err)
	}
}
