package bench

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"mdagent/internal/store"
)

// StoreConfig shapes the storage-engine experiment: Records resident
// keys are preloaded, then Writers goroutines issue Ops mixed
// operations — registry-sized overwrites with every BlobEvery-th write
// a BlobBytes snapshot frame — against the storage engine.
type StoreConfig struct {
	Records    int
	Writers    int
	Ops        int
	ValueBytes int
	BlobEvery  int // 0 disables snapshot writes
	BlobBytes  int
}

// StoreResult is one row of the store table, one per sync policy.
type StoreResult struct {
	// Engine is always "engine": recorded documents and the benchdiff
	// gate select the row by it.
	Engine  string
	Sync    string // sync policy
	Records int
	Writers int
	Ops     int

	LoadWritesPerSec float64 // preload throughput (sequential fill)
	WritesPerSec     float64 // sustained mixed-write throughput
	P50              time.Duration
	P99              time.Duration
	BlobWrites       int
	DiskBytes        int64
}

func storeKey(i int) string { return fmt.Sprintf("rec/%08d", i) }

// RunStore runs the mixed-write experiment against the storage engine
// under one sync policy.
func RunStore(cfg StoreConfig, pol store.SyncPolicy) (StoreResult, error) {
	if cfg.Writers <= 0 {
		cfg.Writers = 1
	}
	res := StoreResult{Engine: "engine", Records: cfg.Records, Writers: cfg.Writers, Ops: cfg.Ops, Sync: pol.String()}

	dir, err := os.MkdirTemp("", "mdbench-store-*")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	kv, err := store.Open(filepath.Join(dir, "db"), store.WithSyncPolicy(pol))
	if err != nil {
		return res, err
	}
	defer kv.Close()

	val := make([]byte, cfg.ValueBytes)
	for i := range val {
		val[i] = byte(i)
	}

	// Phase 1: preload the resident set.
	loadStart := time.Now()
	var wg sync.WaitGroup
	errc := make(chan error, cfg.Writers)
	per := cfg.Records / cfg.Writers
	for w := 0; w < cfg.Writers; w++ {
		lo, hi := w*per, (w+1)*per
		if w == cfg.Writers-1 {
			hi = cfg.Records
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				if err := kv.Put(storeKey(i), val); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errc:
		return res, err
	default:
	}
	if d := time.Since(loadStart).Seconds(); d > 0 {
		res.LoadWritesPerSec = float64(cfg.Records) / d
	}

	// Phase 2: sustained mixed traffic — random overwrites of resident
	// registry records, with periodic multi-hundred-KB snapshot frames.
	blob := make([]byte, cfg.BlobBytes)
	for i := range blob {
		blob[i] = byte(i * 7)
	}
	opsPer := cfg.Ops / cfg.Writers
	lat := make([][]int64, cfg.Writers)
	blobWrites := make([]int, cfg.Writers)
	start := time.Now()
	for w := 0; w < cfg.Writers; w++ {
		w := w
		lat[w] = make([]int64, 0, opsPer)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for i := 0; i < opsPer; i++ {
				var (
					key string
					v   []byte
				)
				if cfg.BlobEvery > 0 && i%cfg.BlobEvery == cfg.BlobEvery-1 {
					key = fmt.Sprintf("snap/app-%02d", w)
					v = blob
					blobWrites[w]++
				} else {
					key = storeKey(rng.Intn(cfg.Records))
					v = val
				}
				t0 := time.Now()
				if err := kv.Put(key, v); err != nil {
					errc <- err
					return
				}
				lat[w] = append(lat[w], int64(time.Since(t0)))
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errc:
		return res, err
	default:
	}

	var all []int64
	for w := range lat {
		all = append(all, lat[w]...)
		res.BlobWrites += blobWrites[w]
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	if n := len(all); n > 0 {
		res.P50 = time.Duration(all[n/2])
		res.P99 = time.Duration(all[n*99/100])
	}
	if s := elapsed.Seconds(); s > 0 {
		res.WritesPerSec = float64(cfg.Writers*opsPer) / s
	}
	res.DiskBytes = kv.DiskUsage()

	// Read back a handful of keys so an engine that dropped writes on
	// the floor cannot post a throughput number.
	for i := 0; i < 100 && i < cfg.Records; i++ {
		if _, err := kv.Get(storeKey(i * (cfg.Records / 100))); err != nil {
			return res, fmt.Errorf("bench: store verify: %w", err)
		}
	}
	return res, nil
}

// storeCrashEnv points a re-exec'd child at its store directory for the
// kill-mid-commit audit.
const storeCrashEnv = "MDBENCH_STORE_CRASH_DIR"

// StoreCrashChildMain is the kill-mid-commit child body. When the env
// hook is set it writes records under SyncPolicy=always, appending each
// key to an acked-writes ledger only AFTER Put returns, until the
// parent kills it. Returns true if it ran (the caller should exit).
func StoreCrashChildMain() bool {
	dir := os.Getenv(storeCrashEnv)
	if dir == "" {
		return false
	}
	st, err := store.Open(filepath.Join(dir, "db"), store.WithSyncPolicy(store.SyncAlways))
	if err != nil {
		fmt.Fprintf(os.Stderr, "crash child: %v\n", err)
		os.Exit(3)
	}
	ledger, err := os.OpenFile(filepath.Join(dir, "acked.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		fmt.Fprintf(os.Stderr, "crash child: %v\n", err)
		os.Exit(3)
	}
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	const writers = 4
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			val := make([]byte, 128)
			for i := 0; ; i++ {
				key := fmt.Sprintf("w%d-k%08d", w, i)
				copy(val, key)
				if err := st.Put(key, val); err != nil {
					fmt.Fprintf(os.Stderr, "crash child put: %v\n", err)
					os.Exit(3)
				}
				// The write is acknowledged (fsynced, under always):
				// only now does it enter the audit ledger.
				mu.Lock()
				fmt.Fprintln(ledger, key)
				mu.Unlock()
			}
		}()
	}
	wg.Wait() // unreachable: the parent SIGKILLs us mid-commit
	return true
}

// StoreCrashResult is the kill-mid-commit audit outcome: every key the
// child's ledger recorded as acknowledged must be present after replay.
type StoreCrashResult struct {
	Trials    int
	KillAfter time.Duration
	Acked     int // acknowledged writes across all trials
	Recovered int
	Lost      int // acknowledged writes missing after replay — must be 0
}

// RunStoreCrash re-execs this binary as a SyncAlways writer child,
// SIGKILLs it mid-commit, replays the store, and audits the child's
// acked-writes ledger against the recovered state.
//
// The audit proves the ack ordering (nothing is acknowledged before its
// frame is committed) and torn-tail replay. The fsync itself cannot be
// falsified in-process — the page cache survives SIGKILL — so the
// ledger is the ground truth for "acknowledged".
func RunStoreCrash(trials int, killAfter time.Duration) (StoreCrashResult, error) {
	res := StoreCrashResult{Trials: trials, KillAfter: killAfter}
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	for t := 0; t < trials; t++ {
		dir, err := os.MkdirTemp("", "mdbench-crash-*")
		if err != nil {
			return res, err
		}
		defer os.RemoveAll(dir)

		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), storeCrashEnv+"="+dir)
		if err := cmd.Start(); err != nil {
			return res, err
		}
		// Stagger the kill point across trials to land in different
		// commit phases (mid-batch, mid-fsync, between frames).
		time.Sleep(killAfter + time.Duration(t)*17*time.Millisecond)
		if err := cmd.Process.Kill(); err != nil {
			return res, err
		}
		_ = cmd.Wait() // expected: killed

		st, err := store.Open(filepath.Join(dir, "db"))
		if err != nil {
			return res, fmt.Errorf("bench: reopen after kill: %w", err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, "acked.log"))
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			st.Close()
			return res, err
		}
		sc := bufio.NewScanner(strings.NewReader(string(raw)))
		complete := strings.HasSuffix(string(raw), "\n")
		var keys []string
		for sc.Scan() {
			if k := strings.TrimSpace(sc.Text()); k != "" {
				keys = append(keys, k)
			}
		}
		if !complete && len(keys) > 0 {
			keys = keys[:len(keys)-1] // defensive: drop a torn final ledger line
		}
		for _, k := range keys {
			res.Acked++
			if _, err := st.Get(k); err != nil {
				res.Lost++
			} else {
				res.Recovered++
			}
		}
		st.Close()
	}
	return res, nil
}
