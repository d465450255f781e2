// Command perfbench is the repository benchmark. It runs one named
// workload as a single-process closed loop for a fixed time, checks
// every output against an independent result, and prints its metrics
// as one JSON object on the last line of standard output.
//
//	perfbench --workload explore --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run.
// With --trace 1 it runs an untraced half window, then a traced half
// window whose spans (the benchmark's own, plus those the program emits
// into the contexts it is handed) give the per-layer metrics; the spans
// are also written as a Chrome trace. Workloads: explore, plan, serve,
// fleet (see README.md).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/serve/client"
)

// processStart anchors the set-up's wall-clock duration, printed for
// reference.
var processStart = time.Now()

// setups is how many times a run sets its workload up, each in a fresh
// process; setup_s is the median of their CPU times scaled to reference
// speed. The parent's own set-up is one of them.
const setups = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one set-up instance of a benchmark workload. It runs as a
// closed loop of one client: one operation is in flight at a time, so
// the process CPU time spent during an operation is that operation's.
type workload struct {
	// cycle is the operation count of one full input cycle, and
	// cycleTime its nominal duration. A window of d runs round(d /
	// cycleTime) whole cycles (at least one), so every run of a seed
	// does the same work and takes the same samples, however fast the
	// host runs that day, and each percentile always falls on the same
	// operations.
	cycle     int
	cycleTime time.Duration
	// op runs operation i. It returns the designs the operation
	// evaluated and a check of its output, which runs after the
	// operation's clocks stop.
	op func(ctx context.Context, i int) (designs int64, check func() error, err error)
	// sums digests the workload's simulated statistics.
	sums *checksum
	// facts accumulates per-operation results the traced run reports.
	facts *tally
	// counters snapshots public counters (caches, servers, clients,
	// fleet) so the traced run reports their deltas over its window.
	counters func() map[string]float64
	// nodes are the serve nodes whose trace segments the traced run
	// pulls to stitch node-side spans under the client attempts.
	nodes []*client.Client
	// probe times direct calls into layers the loop reaches only
	// without a context (traced run only, after the window).
	probe func(ctx context.Context)
	close func()

	next int // sequence number of the next operation
}

// window is the measurement of one timed loop. lat, cpu and ref hold
// each successful operation's wall time, process CPU time and CPU time
// scaled to reference speed; cal holds the calibrations' CPU times.
// wall leaves the calibrations out.
type window struct {
	wall          time.Duration
	lat, cpu, ref []time.Duration
	cal           []time.Duration
	designs       int64
	attempted     int64
	failed        int64
	traces        []string // trace IDs of the traced operations
}

func main() {
	name := flag.String("workload", "", "workload: explore, plan, serve or fleet")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	outDir := flag.String("out", ".bench_build", "directory for the Chrome trace")
	setupOnly := flag.Bool("setup-only", false, "set the workload up, print its reference-speed CPU seconds and exit")
	flag.Parse()
	runtime.GOMAXPROCS(1)

	setup, ok := workloads[*name]
	if !ok || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad --seconds\n", *name)
		os.Exit(2)
	}
	calBefore, c0 := calibrateSetup(), cpuTime()
	w, err := setup(*seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: set-up of %s: %v\n", *name, err)
		os.Exit(1)
	}
	defer w.close()
	setupCPU := cpuTime() - c0
	setupS := toRef([]time.Duration{setupCPU}, calBefore, calibrateSetup())[0].Seconds()
	if *setupOnly {
		fmt.Println(setupS)
		return
	}
	fmt.Printf("%s set-up: %.4g s wall from process start, %.4g s CPU, %.4g s at reference speed\n",
		*name, time.Since(processStart).Seconds(), setupCPU.Seconds(), setupS)
	if setupS, err = medianSetup(*name, *seed, setupS); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: timing set-up of %s: %v\n", *name, err)
		os.Exit(1)
	}
	d := time.Duration(*seconds) * time.Second
	var out output
	if *trace == 0 {
		win := w.run(d, nil)
		out = endToEnd(*name, win, setupS)
	} else {
		out = traced(*name, *seed, w, d, *outDir)
	}
	fmt.Printf("checksum %s seed=%d %016x\n", *name, *seed, w.sums.sum())
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// medianSetup times setups-1 more set-ups of the workload, each in a
// fresh process (process-wide caches such as core.DefaultProfileCache
// start cold in each), and returns the median with this process's own.
func medianSetup(name string, seed int64, own float64) (float64, error) {
	durs := []float64{own}
	for k := 1; k < setups; k++ {
		out, err := exec.Command(os.Args[0], "--workload", name,
			"--seed", strconv.FormatInt(seed, 10), "--setup-only").Output()
		if err != nil {
			return 0, err
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
		if err != nil {
			return 0, err
		}
		durs = append(durs, v)
	}
	sort.Float64s(durs)
	return durs[len(durs)/2], nil
}

// run drives the closed loop for the whole cycles a window of d holds.
// It calibrates before the first operation, then after any operation
// that ends calEvery or more after the last calibration, and once after
// the last; each operation's CPU time is scaled by the mean of the
// calibrations that bracket it. With rec set, each operation runs under
// an "op" root span recorded there.
func (w *workload) run(d time.Duration, rec *obs.Recorder) window {
	cycles := int(math.Max(1, math.Round(float64(d)/float64(w.cycleTime))))
	last := w.next + cycles*w.cycle
	var (
		win     window
		calWall time.Duration
		pending int // operations in win.cpu not yet scaled
	)
	recalibrate := func() {
		t := time.Now()
		c := calibrate()
		calWall += time.Since(t)
		if n := len(win.cal); n > 0 {
			win.ref = append(win.ref, toRef(win.cpu[len(win.cpu)-pending:], win.cal[n-1], c)...)
			pending = 0
		}
		win.cal = append(win.cal, c)
	}
	start := time.Now()
	recalibrate()
	lastCal := time.Now()
	for ; w.next < last; w.next++ {
		i := w.next
		ctx := context.Background()
		var span *obs.Span
		if rec != nil {
			ctx, span = obs.Start(obs.WithRecorder(ctx, rec), "op", obs.Int("i", i))
		}
		t, c := time.Now(), cpuTime()
		designs, check, err := w.op(ctx, i)
		cpu, lat := cpuTime()-c, time.Since(t)
		span.End()
		if err == nil && check != nil {
			err = check()
		}
		win.attempted++
		if err != nil {
			win.failed++
			if win.failed <= 5 {
				fmt.Fprintf(os.Stderr, "perfbench: op %d: %v\n", i, err)
			}
		} else {
			win.lat = append(win.lat, lat)
			win.cpu = append(win.cpu, cpu)
			win.designs += designs
			pending++
		}
		if span != nil {
			win.traces = append(win.traces, span.TraceID())
		}
		if time.Since(lastCal) >= calEvery {
			recalibrate()
			lastCal = time.Now()
		}
	}
	if pending > 0 {
		recalibrate()
	}
	win.wall = time.Since(start) - calWall
	return win
}

// endToEnd turns an untraced window into the end-to-end metrics. They
// are process CPU times scaled to reference speed (see calib.go), which
// leave out the shared host's contention for its CPUs and most of its
// changes of speed; the window's raw CPU and wall-clock figures are
// printed alongside.
func endToEnd(name string, win window, setupS float64) output {
	ops := math.Max(float64(len(win.lat)), 1)
	ref, cpu := sum(win.ref), sum(win.cpu)
	refSorted, cpuSorted, latSorted := sortedCopy(win.ref), sortedCopy(win.cpu), sortedCopy(win.lat)
	q := tailPercentile(len(refSorted), 90)
	m := map[string]metric{
		"ref_ms_per_op":     {ms(ref) / ops, "ms"},
		"ref_p50_ms":        {ms(percentile(refSorted, 50)), "ms"},
		"ref_p90_ms":        {ms(percentile(refSorted, q)), "ms"},
		"designs_per_ref_s": {float64(win.designs) / ref.Seconds(), "1/s"},
		"setup_s":           {setupS, "s"},
		"rss_peak_mb":       {peakRSSMiB(), "MiB"},
	}
	fmt.Printf("%s ref_p90_ms: p%.4g of %d samples, %d beyond it\n", name, q, len(refSorted), beyond(len(refSorted), q))
	fmt.Printf("%s calibration: %d calibrations, median %.4g ms CPU (nominal %.4g ms)\n",
		name, len(win.cal), ms(medianDuration(win.cal)), ms(calNominal))
	fmt.Printf("%s raw CPU: %.4g ms/op, p50 %.4g ms, p90 %.4g ms\n",
		name, ms(cpu)/ops, ms(percentile(cpuSorted, 50)), ms(percentile(cpuSorted, q)))
	q99 := tailPercentile(len(latSorted), 99)
	fmt.Printf("%s wall clock: %.4g ops/s, %.4g designs/s, latency p50 %.4g ms, p90 %.4g ms, p%.4g %.4g ms\n",
		name, ops/win.wall.Seconds(), float64(win.designs)/win.wall.Seconds(),
		ms(percentile(latSorted, 50)), ms(percentile(latSorted, q)), q99, ms(percentile(latSorted, q99)))
	fmt.Printf("%s: %d ops in %.2fs, %d failed\n", name, win.attempted, win.wall.Seconds(), win.failed)
	return output{
		Correct:   win.failed == 0 && win.attempted > 0,
		Attempted: win.attempted,
		Failed:    win.failed,
		Metrics:   m,
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// peakRSSMiB is the process's peak resident set (Linux reports KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// checksum digests a workload's simulated statistics (cycles, DRAM
// traffic, energy) keyed by operation input, independent of the order
// and number of operations run, so a speed-only change leaves it
// identical for the same seed.
type checksum struct {
	mu   sync.Mutex
	vals map[string]string
}

func newChecksum() *checksum { return &checksum{vals: map[string]string{}} }

// add records key's statistics; the first value recorded for a key wins.
func (c *checksum) add(key string, stats ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.vals[key]; !ok {
		c.vals[key] = fmt.Sprint(stats...)
	}
}

func (c *checksum) sum() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, len(c.vals))
	for k := range c.vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s;", k, c.vals[k])
	}
	return h.Sum64()
}

// tally sums named per-operation results.
type tally struct {
	mu sync.Mutex
	m  map[string]float64
}

func newTally() *tally { return &tally{m: map[string]float64{}} }

func (t *tally) add(name string, v float64) {
	t.mu.Lock()
	t.m[name] += v
	t.mu.Unlock()
}

func (t *tally) snapshot() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]float64, len(t.m))
	for k, v := range t.m {
		out[k] = v
	}
	return out
}
