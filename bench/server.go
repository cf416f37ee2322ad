package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// now reads the wall clock. Every timing in the benchmark goes through
// it, so the one deliberate clock read is annotated once.
func now() time.Time {
	return time.Now() //ebda:allow detlint the benchmark measures wall time by design
}

// micros returns the time since t0 in microseconds.
func micros(t0 time.Time) float64 { return float64(now().Sub(t0).Nanoseconds()) / 1e3 }

// processTimeout bounds how long ebda-serve may take to start or drain.
const processTimeout = 30 * time.Second

// server is one ebda-serve child process on a loopback port.
type server struct {
	cmd *exec.Cmd
	url string
	// drained is closed once the child's stdout has been read to EOF;
	// Wait may only run after that.
	drained chan struct{}
}

// startServer execs ebda-serve on a free loopback port, with the given
// flags after -addr, and returns once it prints its listening line.
func startServer(bin string, flags ...string) (*server, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, flags...)...)
	cmd.Stderr = os.Stderr
	// The child must not outlive the benchmark, even a killed one.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, drained: make(chan struct{})}
	first := make(chan string, 1)
	go func() {
		defer close(s.drained)
		br := bufio.NewReader(out)
		line, _ := br.ReadString('\n')
		first <- line
		io.Copy(io.Discard, br)
	}()
	timer := time.NewTimer(processTimeout)
	defer timer.Stop()
	select {
	case line := <-first:
		addr, ok := strings.CutPrefix(strings.TrimSpace(line), "ebda-serve: listening on ")
		if !ok {
			s.kill()
			return nil, fmt.Errorf("ebda-serve printed %q, want its listening line", line)
		}
		s.url = "http://" + addr
		return s, nil
	case <-timer.C:
		s.kill()
		return nil, fmt.Errorf("ebda-serve printed no listening line within %s", processTimeout)
	}
}

// stop drains the server with SIGTERM and waits for it to exit; a server
// that does not drain in time is killed. A non-zero exit is an error.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return fmt.Errorf("signal ebda-serve: %w", err)
	}
	done := make(chan error, 1)
	go func() {
		<-s.drained
		done <- s.cmd.Wait()
	}()
	timer := time.NewTimer(processTimeout)
	defer timer.Stop()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("ebda-serve drain: %w", err)
		}
		return nil
	case <-timer.C:
		s.cmd.Process.Kill()
		<-done
		return fmt.Errorf("ebda-serve did not drain within %s", processTimeout)
	}
}

// kill ends the server at once and waits for it.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.drained
	s.cmd.Wait()
}

// cpuSeconds returns the process's user plus system CPU time from
// /proc/<pid>/stat, whose tick unit Linux fixes at 100 per second.
func cpuSeconds(pid int) (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) is parenthesised and may contain
	// spaces; the fields after its closing parenthesis start at field 3.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: no command name", pid)
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields after the command name, want 13", pid, len(f))
	}
	var ticks float64
	for _, s := range f[11:13] { // utime and stime: fields 14 and 15
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
		}
		ticks += v
	}
	return ticks / 100, nil
}

// stealSeconds returns the CPU time the hypervisor has taken from this
// machine since boot, summed over its CPUs: the steal column of the cpu
// line of /proc/stat, in ticks of 1/100 s.
func stealSeconds() (float64, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, fmt.Errorf("/proc/stat: first line %q has no steal column", line)
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0, fmt.Errorf("/proc/stat steal: %w", err)
	}
	return ticks / 100, nil
}

// peakRSSMiB returns the process's resident-set high-water mark (VmHWM).
func peakRSSMiB(pid int) (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status VmHWM: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no VmHWM line", pid)
}

// client is one closed-loop caller holding a single keep-alive
// connection.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: processTimeout}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// call posts one request and reads the whole response; the latency runs
// from send to the last body byte.
func (c *client) call(r *request) (int, []byte, time.Duration, error) {
	t0 := now()
	resp, err := c.hc.Post(c.base+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, now().Sub(t0), err
}

// get fetches an introspection path, which must answer 200.
func (c *client) get(path string) ([]byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, nil
}

// scrape reads the server's Prometheus metrics.
func (c *client) scrape() (promText, error) {
	body, err := c.get("/metrics")
	if err != nil {
		return nil, err
	}
	return parseProm(bytes.NewReader(body))
}

// verdict is what the load loop reads from each verdict a response
// carries.
type verdict struct {
	Channels   int    `json:"channels"`
	Provenance string `json:"provenance"`
}

// parseVerdicts extracts the verdicts of a 200 response: one, or one per
// batch item. A batch item that failed is an error.
func parseVerdicts(r *request, body []byte) ([]verdict, error) {
	if r.path != pathBatch {
		var v verdict
		if err := json.Unmarshal(body, &v); err != nil {
			return nil, err
		}
		return []verdict{v}, nil
	}
	var b struct {
		Results []struct {
			OK    *verdict `json:"ok"`
			Error string   `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &b); err != nil {
		return nil, err
	}
	out := make([]verdict, len(b.Results))
	for i, item := range b.Results {
		if item.OK == nil {
			return nil, fmt.Errorf("batch item %d: %s", i, item.Error)
		}
		out[i] = *item.OK
	}
	return out, nil
}

// answer is one response kept for the oracle.
type answer struct {
	req  *request
	body []byte
}

// loadStats accumulates closed-loop load: one client's during one slice
// of the window, or several merged.
type loadStats struct {
	attempted, failed int
	firstErr          error
	latMs             []float64
	verdicts          int
	provenance        map[string]int
	channels          int64
}

func newLoadStats() *loadStats { return &loadStats{provenance: map[string]int{}} }

// record accounts one completed call and reports whether it returned
// verdicts, which the oracle may then check.
func (s *loadStats) record(r *request, status int, body []byte, lat time.Duration, err error) bool {
	s.attempted++
	if err == nil && status != r.status {
		err = fmt.Errorf("%s answered %d, want %d: %.200s", r.path, status, r.status, body)
	}
	var vs []verdict
	if err == nil && status == http.StatusOK {
		vs, err = parseVerdicts(r, body)
	}
	if err != nil {
		s.failed++
		if s.firstErr == nil {
			s.firstErr = err
		}
		return false
	}
	s.latMs = append(s.latMs, float64(lat.Nanoseconds())/1e6)
	for _, v := range vs {
		s.verdicts++
		s.provenance[v.Provenance]++
		s.channels += int64(v.Channels)
	}
	return len(vs) > 0
}

// merge folds other stats into s.
func (s *loadStats) merge(o *loadStats) {
	s.attempted += o.attempted
	s.failed += o.failed
	if s.firstErr == nil {
		s.firstErr = o.firstErr
	}
	s.latMs = append(s.latMs, o.latMs...)
	s.verdicts += o.verdicts
	for k, v := range o.provenance {
		s.provenance[k] += v
	}
	s.channels += o.channels
}

// mergeStats folds several stats into new ones.
func mergeStats(parts ...*loadStats) *loadStats {
	total := newLoadStats()
	for _, st := range parts {
		total.merge(st)
	}
	return total
}

// sampler keeps a uniform sample of up to keep responses for the oracle
// (reservoir sampling, Algorithm R).
type sampler struct {
	rng        *rand.Rand
	keep, seen int
	sample     []answer
}

func newSampler(seed int64, keep int) *sampler {
	return &sampler{rng: rand.New(rand.NewSource(seed)), keep: keep}
}

func (s *sampler) offer(a answer) {
	s.seen++
	if len(s.sample) < s.keep {
		s.sample = append(s.sample, a)
	} else if j := s.rng.Intn(s.seen); j < s.keep {
		s.sample[j] = a
	}
}

// runLoad drives the server from one goroutine per client until dur has
// passed: a closed loop, each client sending its next request only once
// the previous response is fully read. Client i records its calls in
// stats[i] and, when samplers is not nil, offers its verdict responses
// to samplers[i]. runLoad returns the per-client stats merged and the
// time from start until the last client stopped.
func runLoad(clients []*client, samplers []*sampler, gen *lockedGen, dur time.Duration) (*loadStats, time.Duration) {
	stats := make([]*loadStats, len(clients))
	var wg sync.WaitGroup
	start := now()
	end := start.Add(dur)
	for i, c := range clients {
		stats[i] = newLoadStats()
		var smp *sampler
		if samplers != nil {
			smp = samplers[i]
		}
		wg.Add(1)
		go func(c *client, st *loadStats, smp *sampler) {
			defer wg.Done()
			for now().Before(end) {
				r := gen.next()
				status, body, lat, err := c.call(r)
				if st.record(r, status, body, lat, err) && smp != nil {
					smp.offer(answer{r, body})
				}
			}
		}(c, stats[i], smp)
	}
	wg.Wait()
	return mergeStats(stats...), now().Sub(start)
}

// launch starts a server, waits for /readyz and answers the priming
// requests. It returns the server, the set-up time — from exec to the
// last priming response — and the priming responses.
func launch(bin string, prime []*request) (*server, time.Duration, []answer, error) {
	t0 := now()
	s, err := startServer(bin)
	if err != nil {
		return nil, 0, nil, err
	}
	c := newClient(s.url)
	defer c.close()
	if _, err := c.get("/readyz"); err != nil {
		s.kill()
		return nil, 0, nil, err
	}
	out := make([]answer, 0, len(prime))
	for _, r := range prime {
		status, body, _, err := c.call(r)
		if err == nil && status != r.status {
			err = fmt.Errorf("priming %s answered %d: %.200s", r.path, status, body)
		}
		if err != nil {
			s.kill()
			return nil, 0, nil, err
		}
		out = append(out, answer{r, body})
	}
	return s, now().Sub(t0), out, nil
}
