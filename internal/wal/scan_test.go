package wal

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/vfs"
)

// segmentHeader is the header of a segment whose first sequence is first.
func segmentHeader(first uint64) []byte {
	return binary.AppendUvarint(binary.AppendUvarint([]byte(segMagic), FormatVersion), first)
}

// TestCorruptLengthPrefixAllocatesLittle: a frame length prefix larger than
// the bytes left in the segment is a torn frame, found without allocating
// the length it claims.
func TestCorruptLengthPrefixAllocatesLittle(t *testing.T) {
	seg := binary.AppendUvarint(segmentHeader(1), 64<<20)
	seg = append(seg, make([]byte, 16-len(seg))...)
	dir := t.TempDir()
	path := filepath.Join(dir, segmentName(1))
	if err := os.WriteFile(path, seg, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := scanSegment(vfs.Default, path, 1, nil)
	runtime.ReadMemStats(&after)
	if err != nil || res.torn != "truncated frame payload" || res.frames != 0 {
		t.Fatalf("scan of a %d-byte segment: %+v, err %v; want a torn payload", len(seg), res, err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Fatalf("scanning a %d-byte segment allocated %d bytes, want under 1 MiB", len(seg), n)
	}
	info, err := ReplayFS(vfs.Default, dir, func(uint64, *checkpoint.Decoder) error { return nil })
	if err != nil || info.Torn != "truncated frame payload" || info.Frames != 0 {
		t.Fatalf("replay of the segment: %+v, err %v; want a torn tail", info, err)
	}
}

// FuzzWALFrame feeds arbitrary bytes as the only segment of a log, seeded
// with a segment the writer produced and cuts of it. Neither scanSegment
// nor ReplayFS may panic; the frames they return are in sequence order from
// the segment's first; and whatever follows the last valid frame is
// reported as a torn tail or an error.
func FuzzWALFrame(f *testing.F) {
	dir := f.TempDir()
	w, err := Open(dir, 1, Options{SegmentBytes: 1 << 20})
	if err != nil {
		f.Fatal(err)
	}
	for seq := uint64(1); seq <= 4; seq++ {
		if err := w.Append(seq, func(enc *checkpoint.Encoder) error {
			enc.String("rec")
			enc.Uvarint(seq * 7)
			return enc.Err()
		}); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, segmentName(1)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seg)
	f.Add(seg[:len(seg)-3])
	f.Add(seg[:len(segmentHeader(1))])
	f.Add(binary.AppendUvarint(segmentHeader(1), 1<<30))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, segmentName(1))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var scanned []uint64
		res, err := scanSegment(vfs.Default, path, 1, func(seq uint64, _ []byte) error {
			scanned = append(scanned, seq)
			return nil
		})
		inOrder(t, "scanSegment", scanned)
		if res.frames != len(scanned) {
			t.Fatalf("scanSegment counted %d frames, returned %d", res.frames, len(scanned))
		}
		if err == nil && res.torn == "" && res.validEnd != int64(len(data)) {
			t.Fatalf("scanSegment stopped at byte %d of %d without reporting a tear", res.validEnd, len(data))
		}
		var replayed []uint64
		info, rerr := ReplayFS(vfs.Default, dir, func(seq uint64, _ *checkpoint.Decoder) error {
			replayed = append(replayed, seq)
			return nil
		})
		inOrder(t, "ReplayFS", replayed)
		if (err != nil) != (rerr != nil) || err == nil && (info.Torn != res.torn || info.Frames != res.frames) {
			t.Fatalf("ReplayFS %+v, err %v disagrees with scanSegment %+v, err %v", info, rerr, res, err)
		}
	})
}

// inOrder fails unless seqs run 1, 2, 3, ...
func inOrder(t *testing.T, who string, seqs []uint64) {
	t.Helper()
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Fatalf("%s returned frame %d at position %d, want %d", who, seq, i, i+1)
		}
	}
}
