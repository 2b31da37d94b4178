package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// These tests drive run end to end against the real cmd/serve, built once
// by TestMain, behind a stand-in server: the test binary itself, started
// as the benchmark's server child. The stand-in execs the real server
// and proxies to it, and can corrupt one answer or fail every request.
// It records its own pid and the real server's, so the tests can check
// that no process outlives the run.

// Environment of the stand-in server and of the benchmark subprocess.
const (
	envRole    = "PERFBENCH_TEST_ROLE"    // "serve" or "main"
	envServe   = "PERFBENCH_TEST_SERVE"   // real cmd/serve binary
	envPids    = "PERFBENCH_TEST_PIDS"    // file the stand-in appends pids to
	envCorrupt = "PERFBENCH_TEST_CORRUPT" // corrupt the n-th /v1/whatif answer
	envFail    = "PERFBENCH_TEST_FAIL"    // answer every /v1/ request 500
)

var realServe string

func TestMain(m *testing.M) {
	switch os.Getenv(envRole) {
	case "serve":
		os.Exit(standIn(os.Args[1:]))
	case "main":
		os.Setenv(envRole, "serve") // the benchmark's children are stand-ins
		main()
	}
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	realServe = filepath.Join(dir, "serve")
	if out, err := exec.Command("go", "build", "-o", realServe, "../cmd/serve").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build cmd/serve: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// standIn runs the stand-in server: it takes cmd/serve's flags, execs the
// real server on another port with the same flags, and proxies -addr to
// it until SIGTERM, when it stops the real server and exits.
func standIn(args []string) int {
	var addr string
	var rest []string
	for i := 0; i < len(args); i++ {
		if args[i] == "-addr" && i+1 < len(args) {
			addr = args[i+1]
			i++
			continue
		}
		rest = append(rest, args[i])
	}
	port, err := freePort()
	if err != nil {
		return 1
	}
	inner := "127.0.0.1:" + strconv.Itoa(port)
	rest = append([]string{"-addr", inner}, rest...)
	child := exec.Command(os.Getenv(envServe), rest...)
	child.Stderr = os.Stderr
	child.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := child.Start(); err != nil {
		return 1
	}
	if f, err := os.OpenFile(os.Getenv(envPids), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644); err == nil {
		fmt.Fprintf(f, "%d %d\n", os.Getpid(), child.Process.Pid)
		f.Close()
	}
	corruptAt, _ := strconv.ParseInt(os.Getenv(envCorrupt), 10, 64)
	var whatifs atomic.Int64
	target, _ := url.Parse("http://" + inner)
	proxy := httputil.NewSingleHostReverseProxy(target)
	// Refused dials while the real server starts are expected.
	proxy.ErrorLog = log.New(io.Discard, "", 0)
	proxy.ModifyResponse = func(resp *http.Response) error {
		if resp.Request.URL.Path != "/v1/whatif" || whatifs.Add(1) != corruptAt {
			return nil
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		// Same length, different answer.
		body = bytes.Replace(body, []byte(`"interp": "absolute"`), []byte(`"interp": "absolutE"`), -1)
		resp.Body = io.NopCloser(bytes.NewReader(body))
		return nil
	}
	handler := http.Handler(proxy)
	if os.Getenv(envFail) != "" {
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/v1/") {
				http.Error(w, "injected failure", http.StatusInternalServerError)
				return
			}
			proxy.ServeHTTP(w, r)
		})
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		_ = child.Process.Kill()
		_ = child.Wait()
		return 1
	}
	term := make(chan os.Signal, 1)
	signal.Notify(term, syscall.SIGTERM, os.Interrupt)
	go func() { _ = http.Serve(l, handler) }()
	<-term
	_ = child.Process.Signal(syscall.SIGTERM)
	_ = child.Wait()
	return 0
}

// benchEnv points the stand-in at the real server and a fresh pid file,
// returning the pid file's path.
func benchEnv(t *testing.T) string {
	t.Helper()
	pids := filepath.Join(t.TempDir(), "pids")
	t.Setenv(envServe, realServe)
	t.Setenv(envPids, pids)
	t.Setenv(envCorrupt, "")
	t.Setenv(envFail, "")
	t.Setenv(envRole, "serve")
	return pids
}

// benchArgs runs the hit workload for the given seconds against the
// stand-in.
func benchArgs(seconds string) []string {
	self, _ := os.Executable()
	return []string{"-workload", "hit", "-seed", "1", "-seconds", seconds,
		"-serve", self, "-root", ".."}
}

// assertNoServers fails if any process the stand-ins recorded still runs.
func assertNoServers(t *testing.T, pidFile string) {
	t.Helper()
	raw, err := os.ReadFile(pidFile)
	if err != nil {
		t.Fatalf("no server was started: %v", err)
	}
	fields := strings.Fields(string(raw))
	if len(fields) == 0 {
		t.Fatal("no server was started")
	}
	for _, f := range fields {
		pid, _ := strconv.Atoi(f)
		if alive(pid) {
			t.Errorf("process %d outlived the run", pid)
		}
	}
}

// alive reports whether pid is a running (not zombie) process.
func alive(pid int) bool {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return false
	}
	i := bytes.LastIndexByte(raw, ')')
	return i >= 0 && len(raw) > i+2 && raw[i+2] != 'Z'
}

// lastResult parses the result line a run printed.
func lastResult(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %q: %v", lines[len(lines)-1], err)
	}
	return res
}

func TestRunPassesAndStopsItsServers(t *testing.T) {
	pids := benchEnv(t)
	var stdout, stderr bytes.Buffer
	if code := run(benchArgs("2"), nil, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	res := lastResult(t, stdout.String())
	if !res.Correct || res.Failed != 0 || res.Attempted < 100 {
		t.Errorf("result %+v, want a correct run with no failures", res)
	}
	names := declared(t, "end_to_end")
	if len(res.Metrics) != len(names) {
		t.Errorf("run printed %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(names))
	}
	for _, name := range names {
		if m, ok := res.Metrics[name]; !ok || !(m.Value > 0) {
			t.Errorf("metric %s = %+v, want a positive value", name, m)
		}
	}
	assertNoServers(t, pids)
}

// declared returns the metric names BENCHMARK.json lists under key.
func declared(t *testing.T, key string) []string {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var metrics []struct{ Name string }
	if err := json.Unmarshal(spec[key], &metrics); err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(metrics))
	for i, m := range metrics {
		names[i] = m.Name
	}
	return names
}

func TestTracedRunReportsEveryLayer(t *testing.T) {
	pids := benchEnv(t)
	var stdout, stderr bytes.Buffer
	if code := run(append(benchArgs("2"), "-trace", "1"), nil, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	res := lastResult(t, stdout.String())
	names := declared(t, "per_layer")
	if len(res.Metrics) != len(names) {
		t.Errorf("traced run printed %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(names))
	}
	for _, name := range names {
		if _, ok := res.Metrics[name]; !ok {
			t.Errorf("traced run lacks %s", name)
		}
	}
	for _, want := range []string{"layer sum", "tracing overhead"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("traced report lacks %q", want)
		}
	}
	assertNoServers(t, pids)
}

func TestOneWrongAnswerFailsTheRun(t *testing.T) {
	pids := benchEnv(t)
	// Past the 16 warm-up requests: a measured open-loop answer.
	t.Setenv(envCorrupt, "100")
	var stdout, stderr bytes.Buffer
	if code := run(benchArgs("2"), nil, &stdout, &stderr); code == 0 {
		t.Fatalf("a run with a wrong answer exited 0; stderr:\n%s", stderr.String())
	}
	res := lastResult(t, stdout.String())
	if res.Correct || res.Failed != 1 {
		t.Errorf("result %+v, want correct=false with exactly one failed request", res)
	}
	if !strings.Contains(stderr.String(), "WRONG ANSWER") || strings.Contains(stderr.String(), "error_rate 0 ") {
		t.Errorf("report does not show the wrong answer in error_rate:\n%s", stderr.String())
	}
	assertNoServers(t, pids)
}

func TestFailingRunLeavesNoServer(t *testing.T) {
	pids := benchEnv(t)
	t.Setenv(envFail, "1")
	var stdout, stderr bytes.Buffer
	if code := run(benchArgs("2"), nil, &stdout, &stderr); code == 0 {
		t.Fatalf("a run whose server fails every request exited 0")
	}
	if stdout.Len() != 0 {
		t.Errorf("a failed run printed a result: %q", stdout.String())
	}
	assertNoServers(t, pids)
}

func TestSignalStopsServers(t *testing.T) {
	pids := benchEnv(t)
	self, _ := os.Executable()
	cmd := exec.Command(self, benchArgs("30")...)
	cmd.Env = append(os.Environ(), envRole+"=main")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Wait until the server is up, then interrupt the benchmark.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for {
		if raw, err := os.ReadFile(pids); err == nil && len(strings.Fields(string(raw))) >= 2 {
			break
		}
		if ctx.Err() != nil {
			_ = cmd.Process.Kill()
			t.Fatal("server never started")
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(300 * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Errorf("interrupted benchmark: %v, want a non-zero exit", err)
	}
	assertNoServers(t, pids)
}
