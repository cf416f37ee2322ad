package main

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"time"
)

// The measured window is cut into slices of sliceLen. Between slices the
// server is paused while the machine's speed is measured (speed.go), and
// each slice's times are scaled by the mean of the speeds measured before
// and after it. A slice during which the hypervisor took more than
// maxSteal of the machine's CPU time is measured again, up to half the
// window over: such a slice stalls requests for as long as the machine is
// gone, which no speed measured in the pauses can correct for. The timed
// metrics come from the window's length in the least-stolen slices;
// counts, failures and the oracle's sample come from every slice. The
// p99 latency of a workload fast enough to give at least minFitBlocks
// blocks of slices (tailBlocks) is the exception: it comes from every
// slice, corrected for steal (zeroStealP99).
const (
	sliceLen     = time.Second
	maxSteal     = 0.05
	minFitBlocks = 8
	leastStolen  = 5
)

// window is the outcome of one measured window.
type window struct {
	// all merges every slice; kept only the slices the timed metrics use.
	all, kept *loadStats
	// sample is the oracle's sample of the window's verdict responses.
	sample []answer
	// elapsed is the kept slices' wall time; refSeconds and refCPU are
	// the same time and the server CPU time they used, each slice scaled
	// by its speed.
	elapsed            time.Duration
	refSeconds, refCPU float64
	// measured and keptSlices count slices; steal is the share of the
	// machine's CPU time the hypervisor took over all of them.
	measured, keptSlices int
	steal                float64
	// speeds are the speeds measured before the first slice and after
	// each one.
	speeds []float64
	// With p99Fit, p99 is the p99 latency in ms corrected for steal,
	// fitted over p99Blocks blocks of slices with slope p99Slope (ms per
	// unit of steal share); without, the kept slices' pooled p99 stands.
	p99, p99Slope float64
	p99Blocks     int
	p99Fit        bool
	// before and after are the server's metrics scraped right around the
	// window; rssMiB is the server's peak RSS at its end.
	before, after promText
	rssMiB        float64
}

// slice is one slice of the window.
type slice struct {
	stats   *loadStats
	elapsed time.Duration
	speed   float64 // mean of the speeds measured before and after it
	cpu     float64 // server CPU seconds
	steal   float64 // share of the machine's CPU time the hypervisor took
}

// measureWindow runs the warm-up and then the measured window against
// srv.
func measureWindow(cfg runConfig, srv *server, gen generator) (*window, error) {
	cs := make([]*client, clients)
	for i := range cs {
		cs[i] = newClient(srv.url)
		defer cs[i].close()
	}
	scraper := newClient(srv.url)
	defer scraper.close()
	lg := &lockedGen{gen: gen}
	if warm, _ := runLoad(cs, nil, lg, cfg.warmup); warm.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d requests failed; first: %w", warm.failed, warm.attempted, warm.firstErr)
	}
	pid := srv.cmd.Process.Pid
	w := &window{}
	var err error
	if w.before, err = scraper.scrape(); err != nil {
		return nil, err
	}
	samplers := make([]*sampler, len(cs))
	for i := range samplers {
		samplers[i] = newSampler(streamSeed(cfg.seed, "oracle")+int64(i), cfg.sample/len(cs))
	}
	want := max(1, int(cfg.window/sliceLen))
	dur := min(sliceLen, cfg.window)
	speed, err := pausedSpeed(srv)
	if err != nil {
		return nil, err
	}
	w.speeds = append(w.speeds, speed)
	var parts []slice
	for clean := 0; clean < want && len(parts) < want+want/2; {
		cpu0, steal0, err := cpuAndSteal(pid)
		if err != nil {
			return nil, err
		}
		st, el := runLoad(cs, samplers, lg, dur)
		cpu1, steal1, err := cpuAndSteal(pid)
		if err != nil {
			return nil, err
		}
		next, err := pausedSpeed(srv)
		if err != nil {
			return nil, err
		}
		sl := slice{
			stats:   st,
			elapsed: el,
			speed:   (speed + next) / 2,
			cpu:     cpu1 - cpu0,
			steal:   (steal1 - steal0) / (el.Seconds() * float64(runtime.NumCPU())),
		}
		if sl.steal <= maxSteal {
			clean++
		}
		parts = append(parts, sl)
		w.speeds = append(w.speeds, next)
		speed = next
	}
	w.summarize(parts, want)
	for _, smp := range samplers {
		w.sample = append(w.sample, smp.sample...)
	}
	if w.rssMiB, err = peakRSSMiB(pid); err != nil {
		return nil, err
	}
	if w.after, err = scraper.scrape(); err != nil {
		return nil, err
	}
	return w, nil
}

// cpuAndSteal reads the server's CPU seconds and the machine's stolen
// seconds.
func cpuAndSteal(pid int) (cpu, steal float64, err error) {
	if cpu, err = cpuSeconds(pid); err != nil {
		return 0, 0, err
	}
	steal, err = stealSeconds()
	return cpu, steal, err
}

// summarize sets the window's totals from its slices: counts over all of
// them, timed metrics over the want least stolen, with every time scaled
// by its slice's speed, and the p99 fitted over all of them when they
// give enough blocks.
func (w *window) summarize(parts []slice, want int) {
	w.all, w.kept = newLoadStats(), newLoadStats()
	var stolen, total float64
	for _, sl := range parts {
		for i := range sl.stats.latMs {
			sl.stats.latMs[i] *= sl.speed
		}
		w.all.merge(sl.stats)
		stolen += sl.steal * sl.elapsed.Seconds()
		total += sl.elapsed.Seconds()
	}
	w.steal = ratio(stolen, total)
	bySteal := slices.Clone(parts)
	slices.SortStableFunc(bySteal, func(a, b slice) int { return cmp.Compare(a.steal, b.steal) })
	bySteal = bySteal[:min(want, len(bySteal))]
	for _, sl := range bySteal {
		w.kept.merge(sl.stats)
		w.elapsed += sl.elapsed
		w.refSeconds += sl.elapsed.Seconds() * sl.speed
		w.refCPU += sl.cpu * sl.speed
	}
	w.measured, w.keptSlices = len(parts), len(bySteal)
	blocks := tailBlocks(parts)
	w.p99Blocks, w.p99Fit = len(blocks), len(blocks) >= minFitBlocks
	if w.p99Fit {
		w.p99, w.p99Slope = zeroStealP99(blocks)
	}
}

// tailBlock is a run of consecutive slices with enough latency samples
// for a p99 (tailOK): its p99 in ms, scaled, and the share of the
// machine's CPU time the hypervisor took during it.
type tailBlock struct {
	steal, p99 float64
}

// tailBlocks cuts the slices, in the order they ran, into blocks of the
// fewest slices that hold enough samples for a p99; a remainder too small
// for a block of its own joins the last one. Too few samples in all give
// one block, whose p99 the p99_samples check then rejects.
func tailBlocks(parts []slice) []tailBlock {
	var groups [][]slice
	n := 0
	for i, sl := range parts {
		if i == 0 || tailOK(n, 0.99) {
			groups = append(groups, nil)
			n = 0
		}
		groups[len(groups)-1] = append(groups[len(groups)-1], sl)
		n += len(sl.stats.latMs)
	}
	if k := len(groups); k > 1 && !tailOK(n, 0.99) {
		groups[k-2] = append(groups[k-2], groups[k-1]...)
		groups = groups[:k-1]
	}
	out := make([]tailBlock, 0, len(groups))
	for _, g := range groups {
		var lat []float64
		var stolen, secs float64
		for _, sl := range g {
			lat = append(lat, sl.stats.latMs...)
			stolen += sl.steal * sl.elapsed.Seconds()
			secs += sl.elapsed.Seconds()
		}
		slices.Sort(lat)
		out = append(out, tailBlock{steal: ratio(stolen, secs), p99: quantile(lat, 0.99)})
	}
	return out
}

// zeroStealP99 estimates the p99 latency of a machine the hypervisor
// takes nothing from. In a closed loop a stall of the machine slows the
// requests in flight, so the share of slow requests grows with steal, and
// a p99 sits right where that share is: on the baseline machine one
// verify_hot slice's p99 read 1.2 ms at 0.5% steal and 5 ms at 30%, about
// 12 ms more per unit of steal share. Pooled over a window, the p99 then
// measures the hypervisor's neighbours more than the server. The estimate
// is the Theil–Sen line through the blocks' (steal, p99) points, read at
// zero steal: the slope is the median of the slopes between every two
// blocks of different steal, never below 0, since steal cannot speed a
// request up, and the intercept the median of p99 − slope·steal. Medians
// keep a few odd blocks from moving it; blocks that all saw the same
// steal give their median p99. Since steal cannot speed a request up, no
// estimate exceeds the median p99 of the leastStolen least-stolen blocks
// either: a line drawn through heavily stolen blocks, far from zero steal,
// can overshoot.
func zeroStealP99(blocks []tailBlock) (p99, slope float64) {
	var slopes []float64
	for i, a := range blocks {
		for _, b := range blocks[i+1:] {
			if a.steal != b.steal {
				slopes = append(slopes, (b.p99-a.p99)/(b.steal-a.steal))
			}
		}
	}
	if len(slopes) > 0 {
		slope = max(0, median(slopes))
	}
	at0 := make([]float64, len(blocks))
	for i, b := range blocks {
		at0[i] = b.p99 - slope*b.steal
	}
	bySteal := slices.Clone(blocks)
	slices.SortStableFunc(bySteal, func(a, b tailBlock) int { return cmp.Compare(a.steal, b.steal) })
	least := make([]float64, 0, leastStolen)
	for _, b := range bySteal[:min(leastStolen, len(bySteal))] {
		least = append(least, b.p99)
	}
	return min(median(at0), median(least)), slope
}
