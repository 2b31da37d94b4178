package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serverArgs are the cmd/serve flags every workload runs with, besides
// the listen address. The cache is smaller than a miss run's distinct
// keys, so that workload writes and evicts in steady state. The queue
// bound admits two connections' worth of 32-row batches: at the default
// (4 × workers, 8 on two cores) a lone 32-row batch already sheds most of
// its rows. Request logging is off so the client does not measure log
// formatting.
var serverArgs = []string{"-cache", strconv.Itoa(serverCache), "-queue", strconv.Itoa(serverQueue), "-loglevel", "warn"}

// The server's cache capacity (entries) and queue bound; the traced
// replay configures its in-process engine the same way.
const (
	serverCache = 512
	serverQueue = 128
)

// server is one running cmd/serve child process.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan struct{} // closed once the process has been reaped
	err  error         // Wait's result, valid after done
}

// live tracks started servers so a signal can stop them all.
var live = struct {
	sync.Mutex
	set map[*server]bool
}{set: map[*server]bool{}}

// freePort returns a loopback port nothing listens on right now.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer execs bin with serverArgs on a free loopback port. The
// child dies with the benchmark (parent-death signal) even if the
// benchmark is killed before it can stop it.
func startServer(bin string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("pick port: %w", err)
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, serverArgs...)...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	live.Lock()
	live.set[s] = true
	live.Unlock()
	go func() {
		s.err = cmd.Wait()
		close(s.done)
	}()
	return s, nil
}

// pid is the child's process id.
func (s *server) pid() int { return s.cmd.Process.Pid }

// waitHealthy polls /healthz until it answers 200, the process exits, or
// timeout passes.
func (s *server) waitHealthy(ctx context.Context, c *client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-s.done:
			return fmt.Errorf("server exited before becoming healthy: %v", s.err)
		default:
		}
		if _, err := c.get(ctx, "/healthz"); err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not healthy after %v", timeout)
		}
		sleepUntil(time.Now().Add(200 * time.Microsecond))
	}
}

// stop asks the server to shut down gracefully, kills it if it has not
// exited within grace, and returns once the process has been reaped.
// Calling stop again is harmless.
func (s *server) stop(grace time.Duration) {
	select {
	case <-s.done:
	default:
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.done:
		case <-time.After(grace):
			_ = s.cmd.Process.Kill()
			<-s.done
		}
	}
	live.Lock()
	delete(live.set, s)
	live.Unlock()
}

// stopAll stops every server still running, allowing each a second to
// shut down gracefully; the signal path and run's exit use it.
func stopAll() {
	live.Lock()
	servers := make([]*server, 0, len(live.set))
	for s := range live.set {
		servers = append(servers, s)
	}
	live.Unlock()
	for _, s := range servers {
		s.stop(time.Second)
	}
}

// clockTick is the kernel's accounting unit for /proc/<pid>/stat times
// (USER_HZ, 100 on Linux).
const clockTick = 10 * time.Millisecond

// readProcCPU reads the user plus system CPU time a process has used.
func readProcCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name is parenthesized and may hold spaces; fields
	// after it are space-separated, utime and stime being the 12th and
	// 13th of them (fields 14 and 15 of the whole line).
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat line")
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("parse /proc stat: %w", err)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// cpuTimes is the machine's CPU time accounting from /proc/stat, in
// clock ticks summed over CPUs: all of it, and the part the hypervisor
// gave to other guests while this one's CPUs were ready to run (steal).
type cpuTimes struct{ total, steal uint64 }

// readCPUTimes reads the aggregate cpu line of /proc/stat.
func readCPUTimes() (cpuTimes, error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}, errors.New("malformed /proc/stat cpu line")
	}
	var t cpuTimes
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, v := range f[1:9] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return cpuTimes{}, fmt.Errorf("parse /proc/stat: %w", err)
		}
		t.total += n
		if i == 7 {
			t.steal = n
		}
	}
	return t, nil
}

// stealShare is the share of CPU time stolen between two readings.
func stealShare(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// peakRSS returns a process's peak resident set size (VmHWM) in bytes.
func peakRSS(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb * 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// promSnapshot is one scrape of the server's /metrics: sample name with
// labels (as printed) to value.
type promSnapshot map[string]float64

// scrape fetches and parses /metrics.
func scrape(ctx context.Context, c *client) (promSnapshot, error) {
	body, err := c.get(ctx, "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	return parseProm(body)
}

// parseProm parses Prometheus text exposition lines into a snapshot.
func parseProm(body []byte) (promSnapshot, error) {
	snap := promSnapshot{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("malformed metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		snap[line[:i]] = v
	}
	return snap, sc.Err()
}

// delta returns after[name] - before[name] (0 for a series absent from
// both).
func delta(before, after promSnapshot, name string) float64 {
	return after[name] - before[name]
}

// sumDelta sums the deltas of every series whose name starts with prefix
// (a metric name plus an opening label brace selects all its labels).
func sumDelta(before, after promSnapshot, prefix string) float64 {
	total := 0.0
	for name, v := range after {
		if strings.HasPrefix(name, prefix) {
			total += v - before[name]
		}
	}
	return total
}
