//go:build unix

package main

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// lockedBuffer is a bytes.Buffer safe to read while run still writes.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRunDrainsOnSIGTERM is the process drain contract: once the
// listening line is printed the server answers, and a SIGTERM sent to
// the process drains it and exits 0 with "drained cleanly".
func TestRunDrainsOnSIGTERM(t *testing.T) {
	pr, pw := io.Pipe()
	var stderr lockedBuffer
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0"}, pw, &stderr)
		pw.Close()
	}()

	line, err := bufio.NewReader(pr).ReadString('\n')
	if err != nil {
		t.Fatalf("no listening line: %v; stderr:\n%s", err, stderr.String())
	}
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "ebda-serve: listening on ")
	if !ok {
		t.Fatalf("unexpected first stdout line %q", line)
	}
	resp, err := http.Get("http://" + addr + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz while serving = %d, want 200", resp.StatusCode)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("run = %d after SIGTERM, want 0; stderr:\n%s", code, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("no drain within 30s of SIGTERM; stderr:\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "drained cleanly") {
		t.Fatalf("stderr does not report a clean drain:\n%s", stderr.String())
	}
}
