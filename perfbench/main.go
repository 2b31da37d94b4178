// Command perfbench is the repository's end-to-end benchmark. It starts
// cmd/serve on a loopback port, drives one workload at it from a single
// process over at most nproc connections, checks every answer against the
// in-process engine and the paper's golden anchors, and prints one JSON
// result line.
//
// A run is fifteen cycles. Each times two server starts (set-up), then an
// open-loop phase (requests on a fixed schedule, well below saturation,
// each timed from when it was due) that gives latency, then a closed-loop
// phase (every connection busy) that gives throughput. Figures are
// medians over the ten cycles with the least hypervisor steal. With
// -trace 1 the run instead reports per-layer numbers: it replays the
// workload's requests in-process with spans around calls into each layer
// and combines them with the server's /metrics.
//
// Usage (from the repository root, after building cmd/serve):
//
//	perfbench -serve <serve binary> -workload hit|miss|sim -seed N -seconds S -trace 0|1
//	perfbench -summarize < results.jsonl
//
// perfbench/run.sh builds both binaries and runs this.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"

	"netpowerprop/internal/engine"
)

func main() {
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		sig := <-sigc
		stopAll()
		fmt.Fprintf(os.Stderr, "perfbench: %v: stopped every server\n", sig)
		os.Exit(1)
	}()
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// options configures one run.
type options struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	Serve    string // cmd/serve binary
	Root     string // repository root, for the golden files
}

// run parses arguments, runs the benchmark, prints its result line and
// returns the exit code.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.Workload, "workload", "", "workload: hit, miss or sim")
	fs.Uint64Var(&o.Seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.Seconds, "seconds", 24, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	fs.StringVar(&o.Serve, "serve", "", "path to the cmd/serve binary")
	fs.StringVar(&o.Root, "root", ".", "repository root")
	summarize := fs.Bool("summarize", false, "read result lines of repeated runs on stdin and print each metric's median, quartiles and spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *summarize {
		if err := summarizeRuns(stdin, stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	o.Trace = trace == 1
	if o.Serve == "" || o.Seconds <= 0 || (trace != 0 && trace != 1) {
		fs.Usage()
		return 2
	}
	defer stopAll()
	var res result
	var err error
	if o.Trace {
		res, err = runTraced(context.Background(), o, stderr)
	} else {
		res, err = runMeasured(context.Background(), o, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// openRate is each workload's open-loop arrival rate (requests per
// second), well below what the server sustains on two cores.
var openRate = map[string]float64{"hit": 500, "miss": 100, "sim": 6}

// A run's measured seconds are split into cycles, each an open-loop
// (latency) phase taking openShare of it and a closed-loop (throughput)
// phase taking the rest. Before its phases a cycle times startsPerCycle
// server starts for setup_s, so the starts spread over the run and share
// their cycle's steal figure. Figures come from the keptCycles least
// stolen.
const (
	cycles         = 15
	keptCycles     = 10
	openShare      = 0.6
	startsPerCycle = 2
)

// session is a warm server and a client connected to it.
type session struct {
	srv *server
	cl  *client
}

// startWarm starts a server, waits for it to answer /healthz and sends
// it the workload's warm-up set, returning the elapsed time from exec.
func startWarm(ctx context.Context, o options, seq *sequence) (session, time.Duration, error) {
	t0 := time.Now()
	srv, err := startServer(o.Serve)
	if err != nil {
		return session{}, 0, err
	}
	cl := newClient(srv.base, runtime.NumCPU())
	if err := srv.waitHealthy(ctx, cl, 30*time.Second); err != nil {
		srv.stop(time.Second)
		return session{}, 0, err
	}
	for _, r := range warmSet(o.Workload, seq) {
		var s sample
		var buf bytes.Buffer
		cl.do(ctx, r, &buf, &s)
		if !s.ok() {
			srv.stop(time.Second)
			return session{}, 0, fmt.Errorf("warm-up %s: status %d: %v", r.Target, s.Status, s.Err)
		}
	}
	return session{srv: srv, cl: cl}, time.Since(t0), nil
}

// timeStart starts a server, times it to healthy and warm, and stops it.
func timeStart(ctx context.Context, o options, seq *sequence) (time.Duration, error) {
	s, took, err := startWarm(ctx, o, seq)
	if err != nil {
		return 0, err
	}
	s.cl.close()
	s.srv.stop(5 * time.Second)
	return took, nil
}

// runMeasured is the untraced run: end-to-end metrics only.
func runMeasured(ctx context.Context, o options, log io.Writer) (result, error) {
	seq, err := newSequence(o.Workload, o.Seed)
	if err != nil {
		return result{}, err
	}
	sess, _, err := startWarm(ctx, o, seq)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	anchorsErr := checkAnchors(ctx, sess.cl, o.Root)
	sess.cl.close()

	// The measured seconds run as cycles, each timing startsPerCycle
	// server starts and then an open-loop phase followed by a closed-loop
	// phase. Figures come from the least stolen cycles (see leastStolen).
	conns := runtime.NumCPU()
	cl := newClient(sess.srv.base, conns)
	pid := sess.srv.pid()
	cycle := time.Duration(o.Seconds * float64(time.Second) / cycles)
	openDur := time.Duration(float64(cycle) * openShare)
	chk := newChecker()
	var v verdict
	var runs []cycleStat
	for len(runs) < cycles {
		m0, err := readCPUTimes()
		if err != nil {
			return result{}, err
		}
		var cs cycleStat
		for i := 0; i < startsPerCycle; i++ {
			took, err := timeStart(ctx, o, seq)
			if err != nil {
				return result{}, fmt.Errorf("set-up: %w", err)
			}
			cs.setups = append(cs.setups, took.Seconds())
		}

		// Settle the client's heap so its collector does not run into the
		// cycle, then time the cycle.
		runtime.GC()
		cpu0, err := readProcCPU(pid)
		if err != nil {
			return result{}, err
		}
		open := cl.openLoop(ctx, seq.Next, openRate[o.Workload], openDur)
		t := time.Now()
		closed := cl.closedLoop(ctx, seq.Next, cycle-openDur)
		took := time.Since(t)
		cpu1, err := readProcCPU(pid)
		if err != nil {
			return result{}, err
		}
		m1, err := readCPUTimes()
		if err != nil {
			return result{}, err
		}

		// Check the cycle's answers before the next one starts, so the
		// batch bodies kept for checking never pile up across cycles.
		all := append(append([]sample(nil), open...), closed...)
		v.add(chk.verify(ctx, all))
		rows := rowCounts(chk.eng, all)
		for i := range open {
			open[i].Body = nil
		}
		cs.open, cs.steal = open, stealShare(m0, m1)
		cs.p99 = percentile(sortedCopy(millis(open, sample.Latency)), 99)
		answered := 0
		for _, s := range all {
			if s.ok() {
				answered++
			}
		}
		for _, s := range closed {
			if s.ok() {
				cs.tput++
				cs.rowRate += float64(rows[s.Req.wire()])
			}
		}
		cs.tput /= took.Seconds()
		cs.rowRate /= took.Seconds()
		if answered > 0 {
			cs.cpuPerReq = float64(cpu1-cpu0) / float64(time.Millisecond) / float64(answered)
		}
		runs = append(runs, cs)
	}
	rss, err := peakRSS(pid)
	if err != nil {
		return result{}, err
	}
	cl.close()
	sess.srv.stop(10 * time.Second)

	used := leastStolen(runs, keptCycles)
	var open []sample
	var setups, tputs, rowRates, cpuPerReq []float64
	for _, cs := range used {
		setups = append(setups, cs.setups...)
		open = append(open, cs.open...)
		tputs = append(tputs, cs.tput)
		rowRates = append(rowRates, cs.rowRate)
		cpuPerReq = append(cpuPerReq, cs.cpuPerReq)
	}
	m := map[string]metric{
		"setup_s":        {median(setups), "s"},
		"p50_ms":         {kindMedian(open), "ms"},
		"throughput_rps": {median(tputs), "1/s"},
		"rows_per_s":     {median(rowRates), "1/s"},
		"cpu_ms_per_req": {median(cpuPerReq), "ms"},
		"rss_mb":         {rss / 1e6, "MB"},
	}
	res := result{Correct: v.Wrong == 0 && anchorsErr == nil, Attempted: v.Attempted,
		Failed: v.Failed + v.Wrong, Metrics: m}

	fmt.Fprintf(log, "perfbench %s seed %d: %d cycles (figures from the %d least stolen) of %v open loop at %g/s then %v closed loop over %d connections; %d requests\n",
		o.Workload, o.Seed, len(runs), len(used), openDur, openRate[o.Workload], cycle-openDur, conns, v.Attempted)
	fmt.Fprintf(log, "  open-loop latency from due time (ms), cycles used: %v\n", describe(millis(open, sample.Latency)))
	fmt.Fprintf(log, "  generator lateness (ms): %v\n", describe(millis(open, sample.Late)))
	fmt.Fprintf(log, "  latency by request kind (ms):")
	for _, k := range byKind(open) {
		fmt.Fprintf(log, " %s %v;", k.name, describe(k.lat))
	}
	fmt.Fprintf(log, "\n  per cycle, in run order:\n")
	for i, cs := range runs {
		fmt.Fprintf(log, "    %2d steal %5.1f%%  p50 %8.4g ms  p99 %8.3g ms  throughput %8.4g/s  rows %8.4g/s  cpu %8.4g ms/req  set-up %.4g s\n",
			i+1, 100*cs.steal, kindMedian(cs.open), cs.p99, cs.tput, cs.rowRate, cs.cpuPerReq, cs.setups)
	}
	fmt.Fprintf(log, "  set-up (s) over the %d starts of the cycles used: %v\n", len(setups), setups)
	fmt.Fprintf(log, "  error_rate %.4g (%d failed, %d wrong of %d)\n", v.ErrorRate(), v.Failed, v.Wrong, v.Attempted)
	reportAnswers(log, v, anchorsErr)
	printMetrics(log, m)
	return res, nil
}

// reportAnswers prints the answer-check outcome.
func reportAnswers(log io.Writer, v verdict, anchorsErr error) {
	if v.First != nil {
		fmt.Fprintf(log, "  WRONG ANSWER: %v\n", v.First)
	}
	if v.FirstFailed != nil {
		fmt.Fprintf(log, "  FAILED REQUEST: %v\n", v.FirstFailed)
	}
	if anchorsErr != nil {
		fmt.Fprintf(log, "  GOLDEN ANCHOR FAILED: %v\n", anchorsErr)
	}
}

// printMetrics lists metrics by name with their units.
func printMetrics(log io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(log, "  %-28s %14.6g %s\n", name, m[name].Value, m[name].Unit)
	}
}

// millis maps successful samples through f, in milliseconds, in send
// order.
func millis(samples []sample, f func(sample) time.Duration) []float64 {
	out := make([]float64, 0, len(samples))
	for _, s := range samples {
		if s.ok() {
			out = append(out, float64(f(s))/float64(time.Millisecond))
		}
	}
	return out
}

// cycleStat is what one cycle measured.
type cycleStat struct {
	setups    []float64 // seconds from exec to healthy and warm, per start
	open      []sample  // open-loop samples
	steal     float64   // share of CPU time the hypervisor took, starts included
	p99       float64   // open-loop p99 latency from due time, ms
	tput      float64   // closed-loop requests per second
	rowRate   float64   // closed-loop rows per second
	cpuPerReq float64   // server CPU ms per answered request over both phases
}

// leastStolen returns the n cycles with the least hypervisor steal, in
// run order. Steal is time the machine's host gave to other guests while
// this one was ready to run; it slows every figure and no change to the
// program can cause it, so it is the one disturbance a run can see and
// set aside.
func leastStolen(runs []cycleStat, n int) []cycleStat {
	idx := make([]int, len(runs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return runs[idx[a]].steal < runs[idx[b]].steal })
	if n < len(idx) {
		idx = idx[:n]
	}
	sort.Ints(idx)
	out := make([]cycleStat, len(idx))
	for i, j := range idx {
		out[i] = runs[j]
	}
	return out
}

// kindMedian is the geometric mean over request kinds of each kind's
// median latency from due time, in ms. A workload that mixes kinds of
// different cost would otherwise have its median sit at the boundary
// between two kinds and jump between them from run to run.
func kindMedian(samples []sample) float64 {
	kinds := byKind(samples)
	logSum := 0.0
	for _, k := range kinds {
		logSum += math.Log(median(k.lat))
	}
	return math.Exp(logSum / float64(len(kinds)))
}

// kindLatency is the open-loop latency sample of one request kind.
type kindLatency struct {
	name string
	lat  []float64
}

// byKind splits successful samples' latencies (ms) by request kind, in
// name order.
func byKind(samples []sample) []kindLatency {
	m := map[string][]float64{}
	for _, s := range samples {
		if s.ok() {
			k := s.Req.kindName()
			m[k] = append(m[k], float64(s.Latency())/float64(time.Millisecond))
		}
	}
	out := make([]kindLatency, 0, len(m))
	for name, lat := range m {
		out = append(out, kindLatency{name, lat})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// rowCounts returns the rows each distinct request's answer carries, as
// eng plans them (a batch carries one row per request).
func rowCounts(eng *engine.Engine, samples []sample) map[string]int {
	rows := map[string]int{}
	for _, s := range samples {
		w := s.Req.wire()
		if _, ok := rows[w]; ok {
			continue
		}
		n := 0
		for _, er := range s.Req.Eng {
			p, err := eng.Plan(er)
			if err != nil {
				continue
			}
			if s.Req.Kind == kindBatch {
				n++
			} else {
				n += p.Rows()
			}
		}
		rows[w] = n
	}
	return rows
}
