package cdg

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"ebda/internal/channel"
	"ebda/internal/topology"
)

// Verify-cache snapshots let a replica warm-start from another's (or
// its own previous) memoized verdicts: ebda-serve saves one on a clean
// drain and loads one before serving, and the cluster load generator
// uses them to prove a cold replica answers its first hot-key request
// from cache. The format is a versioned, length-prefixed binary stream
// with an integrity hash:
//
//	magic   [8]byte  "EBDASNAP"
//	version uint32   (currently 1)
//	count   uint64   entry count
//	entry*  key uint64, check uint64, replen uint32, report[replen]
//	trailer uint64   FNV-1a 64 over every preceding byte
//
// where each report is:
//
//	nlen uint32, network [nlen]byte
//	channels uint64, edges uint64, acyclic byte
//	cyclen uint32, cycle channel*
//
// and each cycle channel is:
//
//	from uint64, to uint64, dim uint64, sign byte (0 plus / 1 minus),
//	wrap byte, vc uint64, index uint64
//
// All integers are little-endian and fixed-width. Entries are written
// in ascending key order, so equal cache contents produce byte-equal
// snapshots. The loader verifies the magic, the version and the
// trailer hash over the full stream before inserting anything, so a
// truncated or bit-flipped file changes nothing.

// Snapshot load errors. ErrSnapshotVersion marks a version the reader
// does not speak (a skewed replica); ErrSnapshotCorrupt marks
// everything else — bad magic, truncation, implausible lengths or a
// trailer hash mismatch. Both are matchable with errors.Is.
var (
	ErrSnapshotCorrupt = errors.New("cdg: cache snapshot corrupt")
	ErrSnapshotVersion = errors.New("cdg: cache snapshot version unsupported")
)

const (
	snapshotVersion = 1
	// snapMaxEntries / snapMaxCycle / snapMaxName bound decoded lengths:
	// anything larger than the cache could plausibly hold is corruption,
	// not data, and must not drive allocation.
	snapMaxEntries = 1 << 24
	snapMaxCycle   = 1 << 20
	snapMaxName    = 1 << 12
	// snapCycleBytes is the encoded size of one cycle channel.
	snapCycleBytes = 3*8 + 2 + 2*8
)

var snapshotMagic = [8]byte{'E', 'B', 'D', 'A', 'S', 'N', 'A', 'P'}

// fnvWriter hashes every byte it forwards (FNV-1a 64); the running sum
// is the snapshot's integrity trailer.
type fnvWriter struct {
	w   io.Writer
	sum uint64
}

func (f *fnvWriter) Write(p []byte) (int, error) {
	for _, b := range p {
		f.sum = (f.sum ^ uint64(b)) * 0x100000001b3
	}
	return f.w.Write(p)
}

// fnvReader is the reading side of fnvWriter.
type fnvReader struct {
	r   io.Reader
	sum uint64
}

func (f *fnvReader) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	for _, b := range p[:n] {
		f.sum = (f.sum ^ uint64(b)) * 0x100000001b3
	}
	return n, err
}

const fnvOffset = 0xcbf29ce484222325

// keyedEntry is one verify-cache entry with its key, the snapshot's unit.
type keyedEntry struct {
	key uint64
	e   cacheEntry[Report]
}

// SaveSnapshot writes the cache's current entries to w and returns how
// many it wrote. The entry set is captured under the lock, then encoded
// outside it, so concurrent verifications are never blocked on I/O.
// Reports are deep-copied by encoding; the snapshot shares no memory
// with live cache entries.
func SaveSnapshot(c *VerifyCache, w io.Writer) (int, error) {
	c.mu.RLock()
	entries := make([]keyedEntry, 0, len(c.m))
	for k, e := range c.m {
		entries = append(entries, keyedEntry{key: k, e: e})
	}
	c.mu.RUnlock()
	slices.SortFunc(entries, func(a, b keyedEntry) int { return cmp.Compare(a.key, b.key) })

	fw := &fnvWriter{w: bufio.NewWriter(w), sum: fnvOffset}
	if _, err := fw.Write(snapshotMagic[:]); err != nil {
		return 0, err
	}
	if err := putU32(fw, snapshotVersion); err != nil {
		return 0, err
	}
	if err := putU64(fw, uint64(len(entries))); err != nil {
		return 0, err
	}
	var repBuf []byte
	for _, kv := range entries {
		repBuf = appendReport(repBuf[:0], kv.e.rep)
		if err := putU64(fw, kv.key); err != nil {
			return 0, err
		}
		if err := putU64(fw, kv.e.check); err != nil {
			return 0, err
		}
		if err := putU32(fw, uint32(len(repBuf))); err != nil {
			return 0, err
		}
		if _, err := fw.Write(repBuf); err != nil {
			return 0, err
		}
	}
	// The trailer is the hash of everything before it, so it bypasses
	// the hashing writer.
	sum := fw.sum
	var tail [8]byte
	binary.LittleEndian.PutUint64(tail[:], sum)
	if _, err := fw.w.Write(tail[:]); err != nil {
		return 0, err
	}
	if err := fw.w.(*bufio.Writer).Flush(); err != nil {
		return 0, err
	}
	obsSnapshotSaved.Add(uint64(len(entries)))
	return len(entries), nil
}

// LoadSnapshot reads a snapshot from r and merges its entries into the
// cache, returning how many entries the stream carried. The stream is
// fully decoded and its trailer hash verified before the first insert —
// a corrupt or truncated snapshot changes nothing. Inserts follow the
// cache's normal epoch semantics: past maxCacheEntries the map is
// flushed wholesale and the dropped entries counted as evictions, so a
// snapshot larger than the cache bound warm-starts the tail of its key
// order rather than growing without limit. Loading is safe against
// concurrent verifications and eviction flushes; a load never replaces
// an entry with a report for a different verification (keys carry their
// independent check hashes through the file).
func LoadSnapshot(c *VerifyCache, r io.Reader) (int, error) {
	fr := &fnvReader{r: bufio.NewReader(r), sum: fnvOffset}
	var magic [8]byte
	if _, err := io.ReadFull(fr, magic[:]); err != nil {
		return 0, fmt.Errorf("%w: short magic: %v", ErrSnapshotCorrupt, err)
	}
	if magic != snapshotMagic {
		return 0, fmt.Errorf("%w: bad magic %q", ErrSnapshotCorrupt, magic[:])
	}
	version, err := getU32(fr)
	if err != nil {
		return 0, fmt.Errorf("%w: short version: %v", ErrSnapshotCorrupt, err)
	}
	if version != snapshotVersion {
		return 0, fmt.Errorf("%w: version %d, reader speaks %d", ErrSnapshotVersion, version, snapshotVersion)
	}
	count, err := getU64(fr)
	if err != nil {
		return 0, fmt.Errorf("%w: short entry count: %v", ErrSnapshotCorrupt, err)
	}
	if count > snapMaxEntries {
		return 0, fmt.Errorf("%w: implausible entry count %d", ErrSnapshotCorrupt, count)
	}
	// Capacity grows with the entries actually read, never with the
	// stream's own count field: a short file must not drive a large
	// allocation.
	entries := make([]keyedEntry, 0, min(count, 1024))
	for i := uint64(0); i < count; i++ {
		key, err := getU64(fr)
		if err != nil {
			return 0, fmt.Errorf("%w: entry %d: short key: %v", ErrSnapshotCorrupt, i, err)
		}
		check, err := getU64(fr)
		if err != nil {
			return 0, fmt.Errorf("%w: entry %d: short check: %v", ErrSnapshotCorrupt, i, err)
		}
		replen, err := getU32(fr)
		if err != nil {
			return 0, fmt.Errorf("%w: entry %d: short report length: %v", ErrSnapshotCorrupt, i, err)
		}
		if replen > snapMaxName+snapMaxCycle*48+64 {
			return 0, fmt.Errorf("%w: entry %d: implausible report length %d", ErrSnapshotCorrupt, i, replen)
		}
		buf, err := io.ReadAll(io.LimitReader(fr, int64(replen)))
		if err == nil && len(buf) < int(replen) {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return 0, fmt.Errorf("%w: entry %d: short report: %v", ErrSnapshotCorrupt, i, err)
		}
		rep, err := decodeReport(buf)
		if err != nil {
			return 0, fmt.Errorf("%w: entry %d: %v", ErrSnapshotCorrupt, i, err)
		}
		entries = append(entries, keyedEntry{key: key, e: cacheEntry[Report]{check: check, rep: rep}})
	}
	// The trailer hash covers everything read so far; capture the sum
	// before the trailer itself passes through the hashing reader.
	want := fr.sum
	got, err := getU64(fr)
	if err != nil {
		return 0, fmt.Errorf("%w: short trailer: %v", ErrSnapshotCorrupt, err)
	}
	if got != want {
		return 0, fmt.Errorf("%w: integrity hash mismatch (file %x, computed %x)", ErrSnapshotCorrupt, got, want)
	}
	if _, err := fr.Read(make([]byte, 1)); err != io.EOF {
		return 0, fmt.Errorf("%w: trailing data after trailer", ErrSnapshotCorrupt)
	}

	c.mu.Lock()
	for _, kv := range entries {
		c.putLocked(kv.key, kv.e)
	}
	c.publish(len(c.m))
	c.mu.Unlock()
	obsSnapshotLoaded.Add(uint64(len(entries)))
	return len(entries), nil
}

// appendReport encodes one report onto buf.
func appendReport(buf []byte, rep Report) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rep.Network)))
	buf = append(buf, rep.Network...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(rep.Channels))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(rep.Edges))
	if rep.Acyclic {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rep.Cycle)))
	for _, ch := range rep.Cycle {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(ch.Link.From))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(ch.Link.To))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(ch.Link.Dim))
		if ch.Link.Sign == channel.Minus {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		if ch.Link.Wrap {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(ch.VC))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(ch.Index))
	}
	return buf
}

// decodeReport decodes one report from its length-prefixed buffer. It
// returns plain errors; LoadSnapshot wraps them as ErrSnapshotCorrupt.
func decodeReport(buf []byte) (Report, error) {
	var rep Report
	nlen, buf, err := takeU32(buf)
	if err != nil || nlen > snapMaxName {
		return rep, fmt.Errorf("bad network length")
	}
	if uint32(len(buf)) < nlen {
		return rep, fmt.Errorf("short network name")
	}
	rep.Network = string(buf[:nlen])
	buf = buf[nlen:]
	var v uint64
	if v, buf, err = takeU64(buf); err != nil {
		return rep, fmt.Errorf("short channels")
	}
	rep.Channels = int(v)
	if v, buf, err = takeU64(buf); err != nil {
		return rep, fmt.Errorf("short edges")
	}
	rep.Edges = int(v)
	if len(buf) < 1 {
		return rep, fmt.Errorf("short acyclic flag")
	}
	switch buf[0] {
	case 0:
		rep.Acyclic = false
	case 1:
		rep.Acyclic = true
	default:
		return rep, fmt.Errorf("bad acyclic flag %d", buf[0])
	}
	buf = buf[1:]
	cyclen, buf, err := takeU32(buf)
	// Each cycle channel encodes in snapCycleBytes; a length the buffer
	// cannot hold is rejected before it sizes an allocation.
	if err != nil || cyclen > snapMaxCycle || uint64(len(buf)) < uint64(cyclen)*snapCycleBytes {
		return rep, fmt.Errorf("bad cycle length")
	}
	if cyclen > 0 {
		rep.Cycle = make([]Channel, cyclen)
		for i := range rep.Cycle {
			var from, to, dim, vc, index uint64
			if from, buf, err = takeU64(buf); err != nil {
				return rep, fmt.Errorf("short cycle channel")
			}
			if to, buf, err = takeU64(buf); err != nil {
				return rep, fmt.Errorf("short cycle channel")
			}
			if dim, buf, err = takeU64(buf); err != nil {
				return rep, fmt.Errorf("short cycle channel")
			}
			if len(buf) < 2 {
				return rep, fmt.Errorf("short cycle channel flags")
			}
			sign := channel.Plus
			if buf[0] == 1 {
				sign = channel.Minus
			}
			wrap := buf[1] == 1
			buf = buf[2:]
			if vc, buf, err = takeU64(buf); err != nil {
				return rep, fmt.Errorf("short cycle channel")
			}
			if index, buf, err = takeU64(buf); err != nil {
				return rep, fmt.Errorf("short cycle channel")
			}
			rep.Cycle[i] = Channel{
				Link: topology.Link{
					From: topology.NodeID(from),
					To:   topology.NodeID(to),
					Dim:  channel.Dim(dim),
					Sign: sign,
					Wrap: wrap,
				},
				VC:    int(vc),
				Index: int(index),
			}
		}
	}
	if len(buf) != 0 {
		return rep, fmt.Errorf("%d trailing bytes in report", len(buf))
	}
	return rep, nil
}

func putU32(w io.Writer, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	_, err := w.Write(b[:])
	return err
}

func putU64(w io.Writer, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	_, err := w.Write(b[:])
	return err
}

func getU32(r io.Reader) (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

func getU64(r io.Reader) (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

func takeU32(buf []byte) (uint32, []byte, error) {
	if len(buf) < 4 {
		return 0, buf, io.ErrUnexpectedEOF
	}
	return binary.LittleEndian.Uint32(buf), buf[4:], nil
}

func takeU64(buf []byte) (uint64, []byte, error) {
	if len(buf) < 8 {
		return 0, buf, io.ErrUnexpectedEOF
	}
	return binary.LittleEndian.Uint64(buf), buf[8:], nil
}
