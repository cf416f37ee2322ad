package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Machine speed. The machines this benchmark runs on are shared, and how
// fast one of them runs the same code drifts: on the baseline machine
// repeated runs of one seed spread by 7–35% in the timed metrics. To keep
// the drift out of the end-to-end metrics, the benchmark times fixed
// reference kernels with the server paused — before every launch and
// between the slices of the measured window — and scales each time by the
// speed measured around it. The metrics then read as if the machine had
// run at the reference speed throughout. The kernels are the benchmark's
// own code over the standard library, so no change to the repository
// moves them.

// speedKernel is one reference kernel: a unit of work of a kind the
// server does, and a fixed reference rate for it.
type speedKernel struct {
	ref float64 // units per second per goroutine; fixes the scale only
	// unit returns a fresh unit of work; the int it returns keeps the
	// compiler from discarding the work.
	unit func() func() int
}

// speedKernels stand for three kinds of work the server does: hashing
// into maps (graph build, caches), JSON (the HTTP API) and
// comparison-heavy branching (sorting edge sets). On the baseline
// machine they tracked the server's throughput far more closely than
// sha256 alone. Their loops reuse their memory, so how often this
// process collects garbage does not move them.
var speedKernels = []speedKernel{
	{2200, func() func() int { // map: 16k inserts into a cleared map
		m := make(map[int]int, 1<<14)
		return func() int {
			clear(m)
			for i := 0; i < 1<<14; i++ {
				m[i*7919] = i
			}
			return len(m)
		}
	}},
	{6800, func() func() int { // json: encode and decode 64 records
		type rec struct {
			A int
			B string
			C []int
		}
		recs := make([]rec, 64)
		for i := range recs {
			recs[i] = rec{A: i * 31, B: "name-" + strconv.Itoa(i), C: []int{i, i + 1, i + 2, i + 3}}
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		var out []rec
		return func() int {
			buf.Reset()
			if err := enc.Encode(recs); err != nil {
				panic(err) // plain data; encoding cannot fail on it
			}
			if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
				panic(err) // Encode just produced it
			}
			return len(out)
		}
	}},
	{620, func() func() int { // sort: 16k random ints
		rng := rand.New(rand.NewSource(2))
		src := make([]int, 16384)
		for i := range src {
			src[i] = rng.Int()
		}
		buf := make([]int, len(src))
		return func() int {
			copy(buf, src)
			slices.Sort(buf)
			return buf[0]
		}
	}},
}

// kernelSink receives the kernels' results so that their work is kept.
var kernelSink atomic.Int64

// kernelTime is how long each kernel runs per speed measurement.
const kernelTime = 40 * time.Millisecond

// measureSpeed runs every reference kernel on one goroutine per CPU for
// kernelTime and returns the geometric mean, over the kernels, of the
// rate reached over the reference rate. Higher is faster; on the
// baseline machine it ranged from 0.4 to 1.8 around a median near 1.2.
func measureSpeed() float64 {
	logSum := 0.0
	for _, k := range speedKernels {
		rates := make([]float64, runtime.NumCPU())
		var wg sync.WaitGroup
		for g := range rates {
			wg.Add(1)
			go func(g int, unit func() int) {
				defer wg.Done()
				n, sink := 0, 0
				t0 := now()
				for now().Sub(t0) < kernelTime {
					sink += unit()
					n++
				}
				rates[g] = float64(n) / now().Sub(t0).Seconds()
				kernelSink.Add(int64(sink))
			}(g, k.unit())
		}
		wg.Wait()
		logSum += math.Log(mean(rates) / k.ref)
	}
	return math.Exp(logSum / float64(len(speedKernels)))
}

// pausedSpeed measures the machine's speed while the server is stopped,
// so that the server neither slows the kernels nor finishes work of its
// own during them.
func pausedSpeed(s *server) (float64, error) {
	if err := s.cmd.Process.Signal(syscall.SIGSTOP); err != nil {
		return 0, fmt.Errorf("pause ebda-serve: %w", err)
	}
	speed := measureSpeed()
	if err := s.cmd.Process.Signal(syscall.SIGCONT); err != nil {
		return 0, fmt.Errorf("resume ebda-serve: %w", err)
	}
	return speed, nil
}
