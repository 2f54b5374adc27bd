package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one process under test: an mdagentd or mdregistry started
// from the benchmark's freshly built binaries. Its stdout is scanned
// line by line so set-up can wait for readiness lines, and the last
// lines are kept for error reports.
type daemon struct {
	name string
	cmd  *exec.Cmd

	mu    sync.Mutex
	lines []string
	seen  chan struct{} // pulsed on every new line
	done  chan struct{} // closed when the process has exited
}

// startDaemon launches bin with args, its working directory and temp
// files inside dir, and GOMAXPROCS pinned to the value recorded in the
// result's host facts.
func startDaemon(dir, bin, name string, gomaxprocs int, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs), "TMPDIR="+dir)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	d := &daemon{name: name, cmd: cmd, seen: make(chan struct{}, 1), done: make(chan struct{})}
	go d.scan(out)
	return d, nil
}

func (d *daemon) scan(r io.Reader) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		d.mu.Lock()
		d.lines = append(d.lines, sc.Text())
		if len(d.lines) > 400 {
			d.lines = append(d.lines[:0], d.lines[len(d.lines)-200:]...)
		}
		d.mu.Unlock()
		select {
		case d.seen <- struct{}{}:
		default:
		}
	}
	_ = d.cmd.Wait()
	close(d.done)
}

// waitLine waits for a stdout line containing substr and returns the
// text after it (the daemons print "... on <addr> ...").
func (d *daemon) waitLine(substr string, timeout time.Duration) (string, error) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		d.mu.Lock()
		for _, l := range d.lines {
			if i := strings.Index(l, substr); i >= 0 {
				d.mu.Unlock()
				return l[i+len(substr):], nil
			}
		}
		d.mu.Unlock()
		select {
		case <-d.seen:
		case <-d.done:
			return "", fmt.Errorf("%s exited before printing %q:\n%s", d.name, substr, d.tail())
		case <-deadline.C:
			return "", fmt.Errorf("%s did not print %q within %v:\n%s", d.name, substr, timeout, d.tail())
		}
	}
}

func (d *daemon) tail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.lines)
	if n > 20 {
		n = 20
	}
	return strings.Join(d.lines[len(d.lines)-n:], "\n")
}

// peakRSSMB reads the process's VmHWM (peak resident set) in MB.
func (d *daemon) peakRSSMB() float64 {
	return vmHWM(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
}

// stop sends SIGTERM (the daemons leave gracefully), escalates to
// SIGKILL after a grace period, and returns once the process is reaped.
func (d *daemon) stop() {
	select {
	case <-d.done:
		return
	default:
	}
	_ = syscall.Kill(-d.cmd.Process.Pid, syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(3 * time.Second):
		_ = syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL)
		<-d.done
	}
}

// vmHWM parses a /proc status file's VmHWM line into MB (0 when absent).
func vmHWM(path string) float64 {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// deployment is one set-up of the system under test: a fresh directory
// and the daemons started in it. close reaps every daemon and deletes
// the directory, so no run inherits another's store or compaction debt.
type deployment struct {
	dir     string
	daemons []*daemon
}

func newDeployment(root string) (*deployment, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, "run-")
	if err != nil {
		return nil, err
	}
	return &deployment{dir: dir}, nil
}

func (dp *deployment) start(bin, name string, gomaxprocs int, args ...string) (*daemon, error) {
	d, err := startDaemon(dp.dir, bin, name, gomaxprocs, args...)
	if err != nil {
		return nil, err
	}
	dp.daemons = append(dp.daemons, d)
	return d, nil
}

// peakRSSMB sums the daemons' peak resident sets.
func (dp *deployment) peakRSSMB() float64 {
	var sum float64
	for _, d := range dp.daemons {
		sum += d.peakRSSMB()
	}
	return sum
}

func (dp *deployment) close() {
	var wg sync.WaitGroup
	for _, d := range dp.daemons {
		wg.Add(1)
		go func(d *daemon) {
			defer wg.Done()
			d.stop()
		}(d)
	}
	wg.Wait()
	_ = os.RemoveAll(dp.dir)
}

// freeAddrs reserves n distinct loopback ports. The daemons of a
// federation must know each other's addresses at launch, so the ports
// are picked up front (bound all at once, so they are distinct) and
// released just before the daemons bind them.
func freeAddrs(n int) ([]string, error) {
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// withRetry runs a set-up attempt, retrying once on failure: a port
// reserved by freeAddrs can be taken by another process in the instant
// between release and bind.
func withRetry(ctx context.Context, f func() error) error {
	err := f()
	if err == nil || ctx.Err() != nil {
		return err
	}
	return f()
}

// rssProbe reads a peak RSS once the base window has passed, so a
// window stretched to collect enough quiet samples does not grow it.
type rssProbe struct {
	mu    sync.Mutex
	mb    float64
	read  func() float64
	timer *time.Timer
}

func probeRSSAt(window time.Duration, read func() float64) *rssProbe {
	p := &rssProbe{read: read}
	p.timer = time.AfterFunc(window, func() {
		v := read()
		p.mu.Lock()
		p.mb = v
		p.mu.Unlock()
	})
	return p
}

// value stops the probe and returns its reading, or a reading now when
// the phase ended before its window did.
func (p *rssProbe) value() float64 {
	p.timer.Stop()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.mb == 0 {
		p.mb = p.read()
	}
	return p.mb
}
