// Command bench is the end-to-end and per-layer benchmark of the verdict
// service, cmd/ebda-serve. For one workload it builds the server, starts
// it as a child process on loopback with default flags, drives it with a
// closed loop of two clients for a warm-up and a measured window, checks
// a sample of the verdicts against an in-process oracle, and prints every
// metric with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}, where metrics are
// the end-to-end ones, or with -trace 1 the per-layer ones.
//
// Run it from the repository root; run.sh builds it first:
//
//	bash bench/run.sh --workload verify_cold --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --compare bench/results/set1 bench/results/set2
//
// README.md documents the workloads, the metrics and how to compare two
// commits.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"ebda/internal/serve"
)

// Run shape. Two closed-loop clients match the two CPUs of the machine
// the baseline was taken on; the counts below keep one run near 25 s.
const (
	clients      = 2
	warmup       = 3 * time.Second
	launches     = 5   // server launches per run; setup_s is their median
	replayN      = 512 // traced-replay requests; a quarter of that per in-process layer
	oracleSample = 256 // window verdicts the oracle re-derives
	calibration  = time.Second
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 15, "length of the measured window in seconds")
	traceOut := fs.Int("trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
	compare := fs.Bool("compare", false, "compare two directories of saved run outputs (arguments) instead of running")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareSets(fs.Args(), stdout, stderr)
	}
	if *seconds < 1 || (*traceOut != 0 && *traceOut != 1) {
		fmt.Fprintln(stderr, "bench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	if !slices.Contains(workloadNames, *workload) {
		fmt.Fprintf(stderr, "bench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames, ", "))
		return 2
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	bin, err := buildServer(root, filepath.Join(root, ".bench_build"), stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	rep, err := runBenchmark(runConfig{
		workload:    *workload,
		seed:        *seed,
		window:      time.Duration(*seconds) * time.Second,
		warmup:      warmup,
		trace:       *traceOut == 1,
		launches:    launches,
		replay:      replayN,
		sample:      oracleSample,
		calibration: calibration,
		serveBin:    bin,
	})
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := rep.print(stdout, *traceOut == 1); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// repoRoot finds the root of the ebda module at or above the working
// directory.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module ebda\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no ebda module (go.mod) at or above the working directory")
		}
		dir = parent
	}
}

// buildServer compiles cmd/ebda-serve from the module at root into out.
func buildServer(root, out string, stderr io.Writer) (string, error) {
	bin := filepath.Join(out, "ebda-serve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/ebda-serve")
	cmd.Dir = root
	cmd.Stdout = stderr
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build ebda-serve: %w", err)
	}
	return bin, nil
}

// runConfig is one run's shape; main fills it from the constants above,
// the smoke test with smaller values.
type runConfig struct {
	workload       string
	seed           int64
	window, warmup time.Duration
	trace          bool
	launches       int
	replay         int
	sample         int
	calibration    time.Duration
	serveBin       string
}

// environment records everything a run's numbers depend on besides the
// code: it is printed as the "env" line of every run.
type environment struct {
	Workload    string   `json:"workload"`
	Seed        int64    `json:"seed"`
	Trace       bool     `json:"trace"`
	GoVersion   string   `json:"go_version"`
	NProc       int      `json:"nproc"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	CalibSHA256 float64  `json:"calib_sha256_mb_s"`
	ServerFlags []string `json:"server_flags"`
	Workers     int      `json:"server_workers"`
	Queue       int      `json:"server_queue"`
	Jobs        int      `json:"server_jobs"`
	TraceSample int      `json:"server_trace_sample"`
	Clients     int      `json:"clients"`
	Launches    int      `json:"launches"`
	WarmupS     float64  `json:"warmup_s"`
	WindowS     float64  `json:"window_s"`
	// SpeedSetup and SpeedWindow are the median machine speeds (speed.go)
	// the set-up and window times were scaled by; RawSetupS and
	// RawThroughput are the two headline numbers before scaling.
	SpeedSetup    float64 `json:"speed_setup"`
	SpeedWindow   float64 `json:"speed_window"`
	RawSetupS     float64 `json:"raw_setup_s"`
	RawThroughput float64 `json:"raw_throughput_rps"`
	// SlicesMeasured slices of the window were run and SlicesKept of them
	// give the timed metrics (window.go); StealShare is the share of the
	// machine's CPU time the hypervisor took over all of them.
	SlicesMeasured int     `json:"slices_measured"`
	SlicesKept     int     `json:"slices_kept"`
	StealShare     float64 `json:"steal_share"`
	LatencySamples int     `json:"latency_samples"`
	// PooledP99 is the p99 of the kept slices' latencies pooled, before
	// any steal correction. With P99Fit, P99Blocks blocks of slices gave
	// the corrected p99 along a slope of P99StealSlope ms per unit of
	// steal share (window.go).
	PooledP99      float64 `json:"pooled_p99_ms"`
	P99Fit         bool    `json:"p99_fit"`
	P99Blocks      int     `json:"p99_blocks"`
	P99StealSlope  float64 `json:"p99_steal_slope_ms"`
	OracleVerdicts int     `json:"oracle_verdicts"`
}

// check is one pass/fail property of a run; a run is correct only when
// every check passes.
type check struct {
	name string
	err  error
}

// report is the outcome of one run.
type report struct {
	env               environment
	checks            []check
	e2e, layers       metricSet
	attempted, failed int
}

func (r *report) check(name string, err error) { r.checks = append(r.checks, check{name, err}) }

// provenanceFloor is the least share of window verdicts that must come
// from the path each workload was chosen to load.
var provenanceFloor = map[string]struct {
	prov  string
	share float64
}{
	wlCold:  {"computed", 0.99},
	wlHot:   {"cache", 1},
	wlDelta: {"delta", 0.99},
	wlGraph: {"computed", 0.95},
}

// runBenchmark performs one run: set-up, warm-up, measured window,
// oracle, and with cfg.trace the per-layer measurements.
func runBenchmark(cfg runConfig) (*report, error) {
	prime, gen, err := newWorkload(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	resolved := serve.Config{}.Resolved()
	rep := &report{env: environment{
		Workload:    cfg.workload,
		Seed:        cfg.seed,
		Trace:       cfg.trace,
		GoVersion:   runtime.Version(),
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		CalibSHA256: calibrate(cfg.calibration),
		ServerFlags: []string{"-addr", "127.0.0.1:0"},
		Workers:     resolved.Workers,
		Queue:       resolved.QueueDepth,
		Jobs:        resolved.Jobs,
		TraceSample: resolved.TraceSample,
		Clients:     clients,
		Launches:    cfg.launches,
		WarmupS:     cfg.warmup.Seconds(),
	}}

	// Set-up is timed over several launches; the last one serves the
	// load. The others are killed, not drained: ebda-serve installs its
	// SIGTERM handler only after printing its listening line, so a
	// SIGTERM right after set-up can end it before it drains.
	// Each launch's time is scaled by the speed measured right before it.
	var setups, rawSetups, setupSpeeds []float64
	var srv *server
	var primed []answer
	for i := 0; i < cfg.launches; i++ {
		speed := measureSpeed()
		s, d, answers, err := launch(cfg.serveBin, prime)
		if err != nil {
			return nil, fmt.Errorf("launch %d: %w", i+1, err)
		}
		setups = append(setups, d.Seconds()*speed)
		rawSetups = append(rawSetups, d.Seconds())
		setupSpeeds = append(setupSpeeds, speed)
		if i < cfg.launches-1 {
			s.kill()
			continue
		}
		srv, primed = s, answers
	}
	w, err := measureWindow(cfg, srv, gen)
	serr := srv.stop()
	if err != nil {
		return nil, err
	}
	rep.check("drain", serr)
	all, kept := w.all, w.kept
	rep.attempted, rep.failed = all.attempted, all.failed
	rep.env.WindowS = w.elapsed.Seconds()
	rep.env.SlicesMeasured, rep.env.SlicesKept = w.measured, w.keptSlices
	rep.env.StealShare = w.steal
	rep.env.LatencySamples = len(kept.latMs)
	rep.env.SpeedSetup = median(setupSpeeds)
	rep.env.SpeedWindow = median(w.speeds)
	rep.env.RawSetupS = median(rawSetups)
	rep.env.RawThroughput = float64(kept.attempted-kept.failed) / w.elapsed.Seconds()

	// The timed metrics come from the kept slices, with times scaled to
	// the reference speed (speed.go): the window's seconds, CPU seconds
	// and latencies slice by slice, set-up launch by launch. The p99 may
	// instead be fitted over every slice (window.go); a fitted p99 never
	// lies below the median.
	lat := append([]float64(nil), kept.latMs...)
	sort.Float64s(lat)
	rep.env.PooledP99 = quantile(lat, 0.99)
	rep.env.P99Fit, rep.env.P99Blocks, rep.env.P99StealSlope = w.p99Fit, w.p99Blocks, w.p99Slope
	p99 := rep.env.PooledP99
	if w.p99Fit {
		p99 = max(w.p99, quantile(lat, 0.50))
	}
	rep.e2e = metricSet{}
	set := func(name string, v float64) { rep.e2e.set(e2eMetrics, name, v) }
	set("setup_s", median(setups))
	set("throughput_rps", float64(kept.attempted-kept.failed)/w.refSeconds)
	set("p50_ms", quantile(lat, 0.50))
	set("p99_ms", p99)
	set("channels_per_s", float64(kept.channels)/w.refSeconds)
	set("server_cpu_ms_per_req", ratio(w.refCPU*1e3, float64(kept.attempted)))
	set("server_peak_rss_mb", w.rssMiB)

	var failures error
	if all.failed > 0 {
		failures = fmt.Errorf("%d of %d window requests failed; first: %w", all.failed, all.attempted, all.firstErr)
	}
	rep.check("no_failures", failures)
	var tail error
	if n := len(all.latMs); !tailOK(n, 0.99) {
		tail = fmt.Errorf("%d latency samples leave fewer than %d beyond p99", n, minTail)
	}
	rep.check("p99_samples", tail)
	floor := provenanceFloor[cfg.workload]
	var share error
	if got := ratio(float64(all.provenance[floor.prov]), float64(all.verdicts)); got < floor.share {
		share = fmt.Errorf("%.4f of %d verdicts are %q, want at least %.2f", got, all.verdicts, floor.prov, floor.share)
	}
	rep.check("provenance", share)
	checked, err := checkAnswers(append(w.sample, primed...))
	rep.env.OracleVerdicts = checked
	rep.check("oracle", err)

	if cfg.trace {
		if rep.layers, err = measureLayers(cfg, w); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// calibrate measures single-core speed on this machine: megabytes per
// second of stdlib sha256 over a 1 MiB buffer for d. Runs that disagree
// can be traced to the machine when their calibrations disagree too.
func calibrate(d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	buf := make([]byte, 1<<20)
	for i := range buf {
		buf[i] = byte(i)
	}
	n := 0
	t0 := now()
	for now().Sub(t0) < d {
		sha256.Sum256(buf)
		n++
	}
	return float64(n*len(buf)) / 1e6 / now().Sub(t0).Seconds()
}

// result is the JSON object a run prints last.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// print writes the env line, one line per check and per metric, and
// last the result object carrying the per-layer metrics when layers is
// set and the end-to-end ones otherwise.
func (r *report) print(w io.Writer, layers bool) error {
	env, err := json.Marshal(r.env)
	if err != nil {
		return err
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "env %s\n", env)
	correct := true
	for _, c := range r.checks {
		if c.err != nil {
			correct = false
			fmt.Fprintf(&b, "check %-12s FAIL %v\n", c.name, c.err)
		} else {
			fmt.Fprintf(&b, "check %-12s ok\n", c.name)
		}
	}
	for _, family := range []struct {
		defs []metricDef
		set  metricSet
	}{{e2eMetrics, r.e2e}, {layerMetrics, r.layers}} {
		for _, d := range family.defs {
			if v, ok := family.set[d.Name]; ok {
				fmt.Fprintf(&b, "metric %-30s %16.6f %s\n", d.Name, v.Value, v.Unit)
			}
		}
	}
	res := result{Correct: correct, Attempted: r.attempted, Failed: r.failed, Metrics: r.e2e}
	if layers {
		res.Metrics = r.layers
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	b.Write(line)
	b.WriteByte('\n')
	_, err = w.Write(b.Bytes())
	return err
}
