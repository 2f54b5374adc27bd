// Command perfbench is MDAgent's wall-clock benchmark. It builds nothing
// itself (run.sh builds it and the daemons from source), starts the
// system under test, drives one named workload from this single seeded
// generator process, checks every result, and prints the metrics as one
// JSON object on the last line of standard output.
//
//	perfbench --workload follow-me --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// twice on one set-up (untraced, then traced) and prints the per-layer
// metrics, the unattributed remainder and the tracing overhead.
// catalog.go lists every metric, its unit, and for each layer metric the
// end-to-end metric it should move on which workload.
//
// Every layer is measured from outside: the generator times its own
// calls into each layer's public functions and reads what the daemons
// already export (ctl.Client.Trace for migration spans,
// ctl.Client.Metrics for the mdagent_* series).
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// env is what every workload receives: the seed, the measuring window,
// where the daemons' binaries are, and where fresh run directories go.
type env struct {
	seed    int64
	seconds time.Duration
	traced  bool
	// short runs a workload briefly with tiny sizes; tails are then
	// reported from whatever samples exist (the benchmark's own tests).
	short      bool
	binDir     string
	runRoot    string
	gomaxprocs int
	// steal tells which slots of the run the hypervisor left quiet.
	steal *stealMeter
}

// outcome is one workload run's result before printing.
type outcome struct {
	attempted, failed int
	// failures describes the first failed checks (for the log).
	failures []string
	e2e      map[string]float64
	layer    map[string]float64
	// detail carries the workload's operation-named figures (migrate_p50_ms,
	// read_p99_us, ...) and sample counts, printed before the result.
	detail map[string]any
	// fabric is how the workload reached the system under test:
	// "loopback-tcp" or "in-process-netsim".
	fabric string
	// procs names the processes under test and their GOMAXPROCS.
	procs map[string]int
}

func newOutcome(fabric string) *outcome {
	return &outcome{
		e2e:    map[string]float64{},
		layer:  map[string]float64{},
		detail: map[string]any{},
		fabric: fabric,
		procs:  map[string]int{},
	}
}

// fail counts one failed or check-failed operation.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 8 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// check counts a check against fail_share: an op that failed it is
// failed, one that passed only counts as attempted.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.fail(format, args...)
	}
}

type workloadFunc func(ctx context.Context, e env) (*outcome, error)

func workloadByName(name string) (workloadFunc, bool) {
	switch name {
	case "follow-me":
		return runFollowMe, true
	case "durable-write":
		return runDurableWrite, true
	case "control-plane":
		return runControlPlane, true
	case "crash-failover":
		return runCrashFailover, true
	}
	return nil, false
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fset.SetOutput(stderr)
	workload := fset.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fset.Int64("seed", 1, "input seed: app names, payload bytes, routes and sizes derive from it")
	seconds := fset.Int("seconds", 10, "measuring window in seconds")
	trace := fset.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	binDir := fset.String("bin", filepath.Join(".bench_build", "bin"), "directory holding the built mdagentd and mdregistry")
	runRoot := fset.String("rundir", filepath.Join(".bench_build", "runs"), "parent of the fresh per-set-up directories")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	wf, ok := workloadByName(*workload)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload one of %v, --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	for _, b := range []string{"mdagentd", "mdregistry"} {
		if _, err := os.Stat(filepath.Join(*binDir, b)); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v (build with perfbench/run.sh)\n", err)
			return 1
		}
	}
	e := env{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *trace == 1,
		binDir: *binDir, runRoot: *runRoot, gomaxprocs: runtime.GOMAXPROCS(0),
	}
	e.steal = startStealMeter()
	defer e.steal.close()
	// Hard stop well inside the 180 s a run may take; an interrupt also
	// ends the run early, and the workload still reaps its daemons.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(sigCtx, 170*time.Second)
	defer cancel()
	cpu0 := readCPUTicks()
	out, err := wf(ctx, e)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	res, err := assemble(e, out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	for _, f := range out.failures {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", f)
	}
	facts := hostFacts(*workload, e, out)
	facts["cpu_steal_share"] = stealShare(cpu0, readCPUTicks())
	out.detail["fail_share"] = float64(out.failed) / float64(out.attempted)
	if err := printJSON(stdout, map[string]any{"facts": facts, "detail": out.detail}); err != nil {
		return 1
	}
	if err := printJSON(stdout, res); err != nil {
		return 1
	}
	return 0
}

// assemble picks the catalog's metrics for the run mode out of the
// outcome; a metric the workload did not produce is a benchmark bug.
func assemble(e env, out *outcome) (result, error) {
	res := result{Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	if res.Attempted < 1 {
		return res, errors.New("no operation attempted")
	}
	res.Correct = out.failed == 0
	defs, src := endToEnd, out.e2e
	if e.traced {
		defs, src = perLayer, out.layer
	}
	for _, d := range defs {
		v, ok := src[d.name]
		if !ok {
			return res, fmt.Errorf("metric %s not produced", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}

func printJSON(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// hostFacts records what a reader needs to compare two results.
func hostFacts(workload string, e env, out *outcome) map[string]any {
	procs := map[string]int{"perfbench": runtime.GOMAXPROCS(0)}
	for k, v := range out.procs {
		procs[k] = v
	}
	return map[string]any{
		"workload":   workload,
		"seed":       e.seed,
		"seconds":    e.seconds.Seconds(),
		"traced":     e.traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": procs,
		"go":         runtime.Version(),
		"commit":     commit(),
		"tree":       treeDigest("."),
		"fabric":     out.fabric,
	}
}

// commit is the checkout's git HEAD, or "none" when the working
// directory is not the root of a git checkout.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "none"
	}
	b, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(b))
}

// treeDigest hashes the program's Go sources and module file, so a
// result identifies the code it measured even without git.
func treeDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(raw))
		h.Write(raw)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
