package cdg

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"os"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"ebda/internal/channel"
	"ebda/internal/topology"
)

// snapshotCache builds a cache holding both acyclic and cyclic verdicts
// (cyclic entries carry Cycle witnesses, exercising the full report
// codec) and returns it with the design list used to populate it.
func snapshotCache(t *testing.T) (*VerifyCache, []*topology.Network) {
	t.Helper()
	c := &VerifyCache{}
	nets := []*topology.Network{
		topology.NewMesh(4, 4),
		topology.NewMesh(3, 5),
		topology.NewTorus(4, 4),
		topology.NewPartialMesh3D(3, 3, 2, [][2]int{{0, 0}}),
	}
	for _, net := range nets {
		cachedVerify(c, net, nil, xyTurnSet(), 1)
		cachedVerify(c, net, nil, allTurnSet(), 1)
	}
	return c, nets
}

func TestSnapshotRoundTrip(t *testing.T) {
	src, nets := snapshotCache(t)
	var buf bytes.Buffer
	saved, err := SaveSnapshot(src, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if want := src.Stats().Entries; saved != want {
		t.Fatalf("saved %d entries, cache holds %d", saved, want)
	}

	dst := &VerifyCache{}
	loaded, err := LoadSnapshot(dst, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded != saved {
		t.Fatalf("loaded %d entries, saved %d", loaded, saved)
	}

	// Every lookup through the warm-started cache must be bit-identical
	// to the source.
	for _, net := range nets {
		for _, mk := range []int{0, 1} {
			ts := xyTurnSet()
			if mk == 1 {
				ts = allTurnSet()
			}
			want, ok := src.Lookup(VerifyKey(net, nil, ts))
			if !ok {
				t.Fatalf("%s: source cache lost an entry", net.Name())
			}
			got, ok := dst.Lookup(VerifyKey(net, nil, ts))
			if !ok {
				t.Fatalf("%s: warm-started cache misses", net.Name())
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s: report diverged after round-trip:\n%+v\nvs\n%+v", net.Name(), want, got)
			}
		}
	}
}

func TestSnapshotDeterministicBytes(t *testing.T) {
	// Equal cache contents must produce byte-equal snapshots regardless
	// of map iteration order: entries are sorted by key on save.
	c, _ := snapshotCache(t)
	var a, b bytes.Buffer
	if _, err := SaveSnapshot(c, &a); err != nil {
		t.Fatal(err)
	}
	if _, err := SaveSnapshot(c, &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two saves of one cache produced different bytes")
	}
}

func TestSnapshotEmptyCache(t *testing.T) {
	c := &VerifyCache{}
	var buf bytes.Buffer
	if n, err := SaveSnapshot(c, &buf); err != nil || n != 0 {
		t.Fatalf("empty save = (%d, %v)", n, err)
	}
	d := &VerifyCache{}
	if n, err := LoadSnapshot(d, bytes.NewReader(buf.Bytes())); err != nil || n != 0 {
		t.Fatalf("empty load = (%d, %v)", n, err)
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	c, _ := snapshotCache(t)
	var buf bytes.Buffer
	if _, err := SaveSnapshot(c, &buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] ^= 0xff
		d := &VerifyCache{}
		if _, err := LoadSnapshot(d, bytes.NewReader(bad)); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("err = %v, want ErrSnapshotCorrupt", err)
		}
		if d.Stats().Entries != 0 {
			t.Fatal("corrupt load mutated the cache")
		}
	})

	t.Run("version skew", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		binary.LittleEndian.PutUint32(bad[8:], snapshotVersion+1)
		d := &VerifyCache{}
		if _, err := LoadSnapshot(d, bytes.NewReader(bad)); !errors.Is(err, ErrSnapshotVersion) {
			t.Fatalf("err = %v, want ErrSnapshotVersion", err)
		}
		if d.Stats().Entries != 0 {
			t.Fatal("version-skewed load mutated the cache")
		}
	})

	t.Run("bit flip in body", func(t *testing.T) {
		// Flip one bit in the middle of the entry region: either a
		// decoded length goes implausible or the trailer hash catches it.
		bad := append([]byte(nil), good...)
		bad[len(bad)/2] ^= 0x01
		d := &VerifyCache{}
		if _, err := LoadSnapshot(d, bytes.NewReader(bad)); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("err = %v, want ErrSnapshotCorrupt", err)
		}
		if d.Stats().Entries != 0 {
			t.Fatal("bit-flipped load mutated the cache")
		}
	})

	t.Run("bit flip in trailer", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[len(bad)-1] ^= 0x80
		d := &VerifyCache{}
		if _, err := LoadSnapshot(d, bytes.NewReader(bad)); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("err = %v, want ErrSnapshotCorrupt", err)
		}
	})

	t.Run("truncation", func(t *testing.T) {
		// Cut the stream at every interesting boundary plus a sweep of
		// mid-stream offsets; all must reject without mutating the cache.
		cuts := []int{0, 4, 8, 11, 12, 19, 20, len(good) / 3, len(good) / 2, len(good) - 9, len(good) - 1}
		for _, n := range cuts {
			if n >= len(good) {
				continue
			}
			d := &VerifyCache{}
			if _, err := LoadSnapshot(d, bytes.NewReader(good[:n])); !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("truncation at %d: err = %v, want ErrSnapshotCorrupt", n, err)
			}
			if d.Stats().Entries != 0 {
				t.Fatalf("truncation at %d mutated the cache", n)
			}
		}
	})

	t.Run("trailing garbage", func(t *testing.T) {
		bad := append(append([]byte(nil), good...), 0x00)
		d := &VerifyCache{}
		if _, err := LoadSnapshot(d, bytes.NewReader(bad)); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("err = %v, want ErrSnapshotCorrupt", err)
		}
	})
}

func TestSnapshotLoadRespectsEvictionEpochs(t *testing.T) {
	// A snapshot larger than the cache bound must warm-start through the
	// normal epoch-flush semantics, not grow without limit.
	old := maxCacheEntries
	maxCacheEntries = 3
	defer func() { maxCacheEntries = old }()

	src, _ := snapshotCache(t)
	var buf bytes.Buffer
	if _, err := SaveSnapshot(src, &buf); err != nil {
		t.Fatal(err)
	}
	d := &VerifyCache{}
	n, err := LoadSnapshot(d, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.Entries > maxCacheEntries {
		t.Fatalf("entries = %d, bound %d", s.Entries, maxCacheEntries)
	}
	if n > maxCacheEntries && s.Evictions == 0 {
		t.Fatalf("loaded %d entries past bound %d with no evictions counted", n, maxCacheEntries)
	}
}

func TestSnapshotLoadConcurrentWithVerifies(t *testing.T) {
	// Snapshot loads racing live verifications and eviction flushes must
	// stay safe (run under -race in CI) and must never surface a wrong
	// verdict: the dual-hash key contract holds for loaded entries too.
	src, nets := snapshotCache(t)
	var buf bytes.Buffer
	if _, err := SaveSnapshot(src, &buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()

	// Lower the epoch-flush bound for the contended cache only, after the
	// fully-populated source snapshot exists, so loads constantly race
	// eviction flushes.
	old := maxCacheEntries
	maxCacheEntries = 4
	defer func() { maxCacheEntries = old }()

	// Ground truth per design, from the source cache (XY on the torus is
	// cyclic — wrap links close a dependency ring without extra VCs).
	wantXY := make([]bool, len(nets))
	for i, net := range nets {
		rep, ok := src.Lookup(VerifyKey(net, nil, xyTurnSet()))
		if !ok {
			t.Fatalf("%s: source cache lost an entry", net.Name())
		}
		wantXY[i] = rep.Acyclic
	}

	c := &VerifyCache{}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if w%2 == 0 {
					if _, err := LoadSnapshot(c, bytes.NewReader(snap)); err != nil {
						t.Errorf("concurrent load: %v", err)
						return
					}
				} else {
					ni := (w + i) % len(nets)
					rep := cachedVerify(c, nets[ni], nil, xyTurnSet(), 1)
					if rep.Acyclic != wantXY[ni] {
						t.Errorf("%s under XY: acyclic = %v, want %v", nets[ni].Name(), rep.Acyclic, wantXY[ni])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// Whatever interleaving happened, surviving entries answer correctly.
	for i, net := range nets {
		if rep, ok := c.Lookup(VerifyKey(net, nil, xyTurnSet())); ok && rep.Acyclic != wantXY[i] {
			t.Fatalf("%s: cache serves a wrong verdict after concurrent loads", net.Name())
		}
		if rep, ok := c.Lookup(VerifyKey(net, nil, allTurnSet())); ok && rep.Acyclic {
			t.Fatalf("%s: cache serves a wrong verdict after concurrent loads", net.Name())
		}
	}
}

// snapshotFixture is a six-entry snapshot written before the verify
// cache became Cache[Report]: full and delta verdicts, acyclic and
// cyclic, on regular networks and one irregular one.
const snapshotFixture = "testdata/snapshot-v1.bin"

// fixtureQueries are the verifications that populated snapshotFixture.
func fixtureQueries(t testing.TB) []Query[Report] {
	mesh := topology.NewMesh(4, 4)
	d1, err := SingleLinkDiff(mesh, 0, channel.X, channel.Plus)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := SingleLinkDiff(mesh, 5, channel.Y, channel.Plus)
	if err != nil {
		t.Fatal(err)
	}
	return []Query[Report]{
		TurnSetQuery(mesh, nil, xyTurnSet()),
		TurnSetQuery(mesh, nil, allTurnSet()),
		TurnSetQuery(topology.NewTorus(4, 4), nil, xyTurnSet()),
		TurnSetQuery(topology.NewPartialMesh3D(3, 3, 2, [][2]int{{0, 0}}), nil, xyTurnSet()),
		DeltaQuery(mesh, nil, xyTurnSet(), d1),
		DeltaQuery(mesh, nil, allTurnSet(), d2),
	}
}

// TestSnapshotFixtureBytes pins the on-disk format: loading the
// committed fixture and saving it again reproduces it byte for byte,
// and every entry answers today's query for its design with today's
// verdict.
func TestSnapshotFixtureBytes(t *testing.T) {
	want, err := os.ReadFile(snapshotFixture)
	if err != nil {
		t.Fatal(err)
	}
	c := &VerifyCache{}
	if n, err := LoadSnapshot(c, bytes.NewReader(want)); err != nil || n != 6 {
		t.Fatalf("load: %d entries, err %v; want 6", n, err)
	}
	var got bytes.Buffer
	if _, err := SaveSnapshot(c, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("re-saved snapshot differs from %s (%d vs %d bytes)", snapshotFixture, got.Len(), len(want))
	}
	acyclic := 0
	for i, q := range fixtureQueries(t) {
		rep, ok := c.Lookup(q.Key, q.Check)
		if !ok {
			t.Fatalf("query %d (key %x) has no fixture entry", i, q.Key)
		}
		fresh, err := (&VerifyCache{}).Verify(context.Background(), q, 1)
		if err != nil || !reportsIdentical(rep, fresh) {
			t.Fatalf("query %d: fixture verdict %s, fresh %s (err %v)", i, rep, fresh, err)
		}
		if rep.Acyclic {
			acyclic++
		}
	}
	if acyclic == 0 || acyclic == 6 {
		t.Fatalf("fixture holds %d acyclic verdicts of 6, want a mix", acyclic)
	}
}

// FuzzLoadSnapshot feeds LoadSnapshot arbitrary streams: snapshot files
// are untrusted input (ebda-serve -snapshot-load). A stream must never
// panic, a rejection must be a snapshot error, and a rejected stream
// must insert nothing.
func FuzzLoadSnapshot(f *testing.F) {
	fixture, err := os.ReadFile(snapshotFixture)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	for _, n := range []int{0, 8, 12, 20, 40, len(fixture) / 2, len(fixture) - 8, len(fixture) - 1} {
		f.Add(fixture[:n])
	}
	for _, i := range []int{2, 9, 13, 21, 29, 37, 100, len(fixture) / 2, len(fixture) - 2} {
		flipped := bytes.Clone(fixture)
		flipped[i] ^= 0x04
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := &VerifyCache{}
		c.m = map[uint64]cacheEntry[Report]{1: {check: 2}}
		n, err := LoadSnapshot(c, bytes.NewReader(data))
		if err == nil {
			if got := c.Stats().Entries; got < 1 || got > n+1 {
				t.Fatalf("accepted %d entries, cache holds %d", n, got)
			}
			return
		}
		if !errors.Is(err, ErrSnapshotCorrupt) && !errors.Is(err, ErrSnapshotVersion) {
			t.Fatalf("rejection is not a snapshot error: %v", err)
		}
		if n != 0 || c.Stats().Entries != 1 {
			t.Fatalf("rejected stream changed the cache: n=%d, entries=%d", n, c.Stats().Entries)
		}
	})
}

// TestSnapshotLengthFieldsDoNotDriveAllocation feeds streams whose length
// fields claim the largest plausible sizes but carry no data: each must
// be rejected without allocating anywhere near what the fields claim.
func TestSnapshotLengthFieldsDoNotDriveAllocation(t *testing.T) {
	header := func(count uint64) []byte {
		b := append([]byte(nil), snapshotMagic[:]...)
		b = binary.LittleEndian.AppendUint32(b, snapshotVersion)
		return binary.LittleEndian.AppendUint64(b, count)
	}
	entry := func(b []byte, replen uint32, rep []byte) []byte {
		b = binary.LittleEndian.AppendUint64(b, 1)
		b = binary.LittleEndian.AppendUint64(b, 2)
		b = binary.LittleEndian.AppendUint32(b, replen)
		return append(b, rep...)
	}
	// A report claiming a maximal cycle witness and holding none of it.
	rep := binary.LittleEndian.AppendUint32(nil, 0)
	rep = binary.LittleEndian.AppendUint64(rep, 4)
	rep = binary.LittleEndian.AppendUint64(rep, 4)
	rep = append(rep, 0)
	rep = binary.LittleEndian.AppendUint32(rep, snapMaxCycle)
	for name, stream := range map[string][]byte{
		"entry count":   header(snapMaxEntries),
		"report length": entry(header(1), snapMaxName+snapMaxCycle*48+64, nil),
		"cycle length":  entry(header(1), uint32(len(rep)), rep),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := LoadSnapshot(&VerifyCache{}, bytes.NewReader(stream))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("%s: err = %v, want ErrSnapshotCorrupt", name, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
			t.Fatalf("%s: a %d-byte stream allocated %d bytes", name, len(stream), n)
		}
	}
}
