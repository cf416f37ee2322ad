package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// savedRun is one run's output as saved to a file: its env line and its
// result object.
type savedRun struct {
	env environment
	res result
}

// loadRuns reads every *.txt file of a directory as one saved run and
// groups the end-to-end runs (-trace 0) by workload.
func loadRuns(dir string) (map[string][]savedRun, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.txt"))
	if err != nil {
		return nil, err
	}
	out := map[string][]savedRun{}
	for _, f := range files {
		run, err := readRun(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if !run.env.Trace {
			out[run.env.Workload] = append(out[run.env.Workload], run)
		}
	}
	return out, nil
}

func readRun(path string) (savedRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return savedRun{}, err
	}
	defer f.Close()
	var run savedRun
	var last string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if env, ok := strings.CutPrefix(line, "env "); ok {
			if err := json.Unmarshal([]byte(env), &run.env); err != nil {
				return savedRun{}, fmt.Errorf("env line: %w", err)
			}
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return savedRun{}, err
	}
	if run.env.Workload == "" {
		return savedRun{}, fmt.Errorf("no env line")
	}
	if err := json.Unmarshal([]byte(last), &run.res); err != nil {
		return savedRun{}, fmt.Errorf("result line: %w", err)
	}
	return run, nil
}

// quartiles returns the first, second and third quartile of xs with the
// "exclusive" method of Python's statistics.quantiles(xs, n=4); a single
// value is all three.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	var q [3]float64
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	q := quartiles(xs)
	return ratio(q[2]-q[0], q[1])
}

// compareSets compares the end-to-end runs of a baseline directory with
// those of a candidate directory, workload by workload: each metric's
// median on both sides, each side's spread, and a verdict. A metric
// regresses when the candidate's median is worse than the baseline's by
// more than its bound (or floor); it is unresolved when either side's
// spread exceeds the bound. The exit status is 1 when anything
// regressed.
func compareSets(dirs []string, stdout, stderr io.Writer) int {
	if len(dirs) != 2 {
		fmt.Fprintln(stderr, "bench: -compare takes a baseline and a candidate directory")
		return 2
	}
	base, err := loadRuns(dirs[0])
	if err == nil {
		var cand map[string][]savedRun
		if cand, err = loadRuns(dirs[1]); err == nil {
			return printComparison(base, cand, stdout)
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 2
}

func printComparison(base, cand map[string][]savedRun, w io.Writer) int {
	status := 0
	fmt.Fprintf(w, "%-13s %-22s %5s %14s %14s %8s %8s %8s  %s\n",
		"workload", "metric", "runs", "base median", "cand median", "change", "base iqr", "cand iqr", "verdict")
	for _, wl := range workloadNames {
		a, b := base[wl], cand[wl]
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		for _, m := range e2eMetrics {
			va, vb := values(a, m.Name), values(b, m.Name)
			qa, qb := quartiles(va), quartiles(vb)
			sa, sb := spread(va), spread(vb)
			verdict := "ok"
			switch {
			case m.regressed(qa[1], qb[1]):
				verdict = "REGRESSED"
				status = 1
			case m.Name != "setup_s" && (sa > m.Bound || sb > m.Bound):
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-13s %-22s %2d/%-2d %14.4f %14.4f %+7.1f%% %7.1f%% %7.1f%%  %s\n",
				wl, m.Name, len(va), len(vb), qa[1], qb[1], 100*ratio(qb[1]-qa[1], qa[1]), 100*sa, 100*sb, verdict)
		}
	}
	return status
}

func values(runs []savedRun, metric string) []float64 {
	out := make([]float64, 0, len(runs))
	for _, r := range runs {
		out = append(out, r.res.Metrics[metric].Value)
	}
	return out
}
