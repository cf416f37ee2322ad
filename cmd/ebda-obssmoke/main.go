// Command ebda-obssmoke is the observability smoke check behind
// `make obs-smoke`: it builds ebda-verify, runs the same deterministic
// verification twice with -obs-json, and asserts that (a) both dumps
// parse as obs snapshots, (b) the required engine series are present with
// the expected structure, and (c) the two runs are byte-identical once
// timing-dependent fields are canonicalised — the determinism contract
// the -obs-json dump advertises.
//
// With -trace it instead checks the tracing determinism contract behind
// `make trace-smoke`: two fresh in-process replicas each serve the same
// fixed sequential request sequence with every trace retained, and the
// canonical text renderings of their flight recorders — span names,
// nesting, attributes, status and provenance, with IDs and timings
// stripped — must be byte-identical.
//
// Exit status: 0 on success, 1 on assertion failure, 2 on setup errors.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"ebda/internal/cdg"
	"ebda/internal/obs"
	"ebda/internal/obs/obshttp"
	"ebda/internal/obs/trace"
	"ebda/internal/serve"
)

// verifyArgs is the deterministic workload: one serial verification, so
// workspace-pool traffic is independent of scheduling, and the fixed turn
// set always verifies acyclic on the fixed mesh.
var verifyArgs = []string{
	"-turns", "X+>Y+,X+>Y-,X->Y+,X->Y-",
	"-mesh", "8x8",
}

// requiredCounters must appear in every ebda-verify dump; their presence
// pins the cdg instrumentation end to end.
var requiredCounters = []string{
	"ebda_verify_cache_hits_total",
	"ebda_verify_cache_misses_total",
	"ebda_cdg_verifies_total",
	"ebda_cdg_kahn_rounds_total",
	"ebda_workspace_pool_gets_total",
	"ebda_workspace_pool_puts_total",
}

func main() {
	traceMode := flag.Bool("trace", false, "check trace determinism instead of the -obs-json contract")
	flag.Parse()
	if *traceMode {
		if err := runTrace(); err != nil {
			fmt.Fprintln(os.Stderr, "ebda-obssmoke:", err)
			os.Exit(1)
		}
		fmt.Println("trace-smoke: ok (identical sampled runs render identical canonical span trees)")
		return
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ebda-obssmoke:", err)
		os.Exit(1)
	}
	fmt.Println("obs-smoke: ok (snapshots parse, required series present, canonical dumps identical)")
}

// traceWorkload is the fixed sequential request sequence both replicas
// serve: a cold verify, the identical request again (a cache hit), a
// second design, and one single-link delta against the first.
var traceWorkload = []struct{ path, body string }{
	{"/v1/verify", `{"network":{"kind":"mesh","sizes":[8,8]},"chain":"PA[X+ X- Y-] -> PB[Y+]"}`},
	{"/v1/verify", `{"network":{"kind":"mesh","sizes":[8,8]},"chain":"PA[X+ X- Y-] -> PB[Y+]"}`},
	{"/v1/verify", `{"network":{"kind":"torus","sizes":[6,6]},"chain":"PA[X+ Y+] -> PB[X- Y-]"}`},
	{"/v1/verify/delta", `{"base":{"network":{"kind":"mesh","sizes":[8,8]},"chain":"PA[X+ X- Y-] -> PB[Y+]"},"remove_links":[{"at":[2,3],"dir":"X+"}]}`},
}

// runTrace asserts trace determinism: two identical sampled runs on
// fresh replicas produce byte-identical canonical span trees.
func runTrace() error {
	canonRun := func() (string, error) {
		rec := trace.NewRecorder(64, 16)
		tr := trace.New(trace.Config{
			Fragment:      "smoke",
			SampleEvery:   1,  // retain every request
			SlowThreshold: -1, // the slow lane would double-record slow runs
			Recorder:      rec,
		})
		srv := serve.NewReplica(serve.Config{Workers: 1, Tracer: tr}, &cdg.VerifyCache{})
		mux := obshttp.Mux(obs.NewRegistry(), srv.Ready)
		srv.Register(mux)
		ts := httptest.NewServer(mux)
		defer ts.Close()
		for i, req := range traceWorkload {
			resp, err := ts.Client().Post(ts.URL+req.path, "application/json", strings.NewReader(req.body))
			if err != nil {
				return "", fmt.Errorf("request %d: %w", i, err)
			}
			resp.Body.Close()
			if resp.StatusCode != 200 {
				return "", fmt.Errorf("request %d: status %d", i, resp.StatusCode)
			}
		}
		var b bytes.Buffer
		for _, tj := range trace.Collect(rec.Snapshot()) {
			if err := tj.WriteCanonicalText(&b); err != nil {
				return "", err
			}
		}
		return b.String(), nil
	}
	// The delta request checks out a workspace from the process-global
	// cdg.DefaultDeltaPool: the first run in a process builds it (its
	// trace carries the base verification), later runs reuse it. A
	// warm-up pass primes the pool so the two measured runs see the same
	// pool state and must render identically.
	if _, err := canonRun(); err != nil {
		return err
	}
	a, err := canonRun()
	if err != nil {
		return err
	}
	b, err := canonRun()
	if err != nil {
		return err
	}
	if a == "" {
		return fmt.Errorf("flight recorder captured no traces with SampleEvery=1")
	}
	if a != b {
		return fmt.Errorf("canonical span trees differ between identical runs:\n--- run 1\n%s\n--- run 2\n%s", a, b)
	}
	return nil
}

func run() error {
	dir, err := os.MkdirTemp("", "ebda-obssmoke")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)

	bin := filepath.Join(dir, "ebda-verify")
	build := exec.Command("go", "build", "-o", bin, "ebda/cmd/ebda-verify")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fatal(fmt.Errorf("building ebda-verify: %w", err))
	}

	snaps := make([]obs.Snapshot, 2)
	for i := range snaps {
		out := filepath.Join(dir, fmt.Sprintf("run%d.json", i+1))
		cmd := exec.Command(bin, append(append([]string(nil), verifyArgs...), "-obs-json", out)...)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fatal(fmt.Errorf("run %d: %w", i+1, err))
		}
		data, err := os.ReadFile(out)
		if err != nil {
			fatal(err)
		}
		s, err := obs.ParseSnapshot(data)
		if err != nil {
			return fmt.Errorf("run %d: %w", i+1, err)
		}
		snaps[i] = s
	}

	for _, s := range snaps {
		for _, name := range requiredCounters {
			found := false
			for _, c := range s.Counters {
				if c.Name == name {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("required counter %s missing from dump", name)
			}
		}
		if pv, ok := s.Phase("cdg.verify"); !ok || pv.Count != 1 {
			return fmt.Errorf("phase cdg.verify = %+v, want exactly one span", pv)
		}
		if _, ok := s.Histogram(obs.Label("ebda_phase_duration_seconds", "phase", "cdg.verify")); !ok {
			return fmt.Errorf("per-phase duration histogram missing from dump")
		}
		if got := s.Counter("ebda_cdg_verifies_total"); got != 1 {
			return fmt.Errorf("ebda_cdg_verifies_total = %d, want 1", got)
		}
		if got := s.Counter("ebda_verify_cache_misses_total"); got != 1 {
			return fmt.Errorf("ebda_verify_cache_misses_total = %d, want 1 (fresh process)", got)
		}
	}

	var a, b bytes.Buffer
	if err := snaps[0].Canonical().WriteJSON(&a); err != nil {
		fatal(err)
	}
	if err := snaps[1].Canonical().WriteJSON(&b); err != nil {
		fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		return fmt.Errorf("canonical snapshots differ between identical runs:\n--- run 1\n%s\n--- run 2\n%s", a.String(), b.String())
	}
	return nil
}

// fatal reports a setup problem (not an assertion failure) and exits 2.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ebda-obssmoke: setup:", err)
	os.Exit(2)
}
