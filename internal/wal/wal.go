// Package wal implements the engine's write-ahead log: a segmented,
// CRC-framed, fsync-batched append log of committed changes. Together with
// occasional full snapshots it makes steady-state durability cost track the
// delta instead of the history: recovery is "load the last snapshot, then
// replay the WAL tail", and a snapshot truncates the segments it covers.
//
// On disk the log is a directory of segment files named by the first commit
// sequence number they contain:
//
//	wal-0000000000000001.seg
//	wal-0000000000004096.seg
//	...
//
// A segment is a short header (magic "TVRWAL" + format version + first
// sequence number, all verified against the file name on open) followed by
// frames:
//
//	frame := uvarint(len(payload)) | payload | crc32c(payload) big-endian
//
// Each payload is a self-contained internal/checkpoint stream — the same
// encoding discipline snapshots use (magic + format version + tagged values
// + its own trailer) — beginning with the record's commit sequence number.
// The caller supplies the record body through the same write-callback shape
// checkpoint.WriteFileAtomicFS uses, so the engine encodes WAL records with
// exactly the helpers it encodes snapshots with.
//
// Failure discipline mirrors internal/checkpoint: loud, never silent.
// Replay verifies every frame's CRC and the global sequence-number
// contiguity. A torn or truncated tail in the LAST segment is the expected
// crash signature — recovery stops at the last valid frame and reports the
// tail as torn. Any invalid frame in a sealed (non-last) segment is bit rot
// of acknowledged history and fails recovery with an error instead of
// quietly dropping commits: sealed segments were fsynced before the next
// segment was created, so a crash cannot tear them.
//
// Sequence numbers are allocated by the caller (the engine, under its
// commit ordering lock), increase by exactly one per record, and are never
// reused; the log as a whole is always one contiguous run. Truncation only
// removes whole segments from the front, so the invariant survives
// compaction.
package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/obs"
	"repro/internal/vfs"
)

const (
	segMagic = "TVRWAL"
	// FormatVersion is the segment container version (header + framing).
	// The per-record payload carries its own checkpoint.FormatVersion.
	FormatVersion = 1
	// DefaultSegmentBytes is the rotation threshold when Options leaves
	// SegmentBytes zero. Segments are the unit of truncation: smaller
	// segments reclaim space sooner after a snapshot, at the cost of more
	// files.
	DefaultSegmentBytes = 4 << 20
	// maxFrameBytes bounds a single frame so a corrupt length prefix is
	// rejected before it can drive an allocation.
	maxFrameBytes = 1 << 30
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SyncMode selects when appended frames are fsynced.
type SyncMode int

const (
	// SyncAlways fsyncs after every Append. One Append carries one whole
	// committed batch (an AppendLog of N events is one frame), so this is
	// group commit at batch granularity: the strongest guarantee — an
	// acknowledged commit survives any crash.
	SyncAlways SyncMode = iota
	// SyncInterval fsyncs from a background flusher every Options.Interval.
	// A crash can lose up to one interval of acknowledged commits; recovery
	// still stops cleanly at the last fully synced frame.
	SyncInterval
	// SyncNone issues no explicit data fsyncs (the OS writes back on its
	// own schedule). Rotation, truncation, and Close still sync, so sealed
	// segments are always durable.
	SyncNone
)

// Options configures a Writer.
type Options struct {
	// SegmentBytes is the rotation threshold (0 = DefaultSegmentBytes).
	SegmentBytes int64
	// Mode is the fsync policy.
	Mode SyncMode
	// Interval is the flush period for SyncInterval.
	Interval time.Duration
	// FS is the filesystem the log does its I/O through (nil =
	// vfs.Default, the real filesystem). Tests substitute a vfs.FaultFS
	// to inject disk failures.
	FS vfs.FS
	// Obs, when non-nil, registers the wal_* metric families on the given
	// registry. The counters are incremented at the instrument sites under
	// w.mu and read lock-free at scrape time — a scrape never takes w.mu
	// (Stats() walks the directory and fsync holds the lock, so neither is
	// safe from a collector).
	Obs *obs.Registry
}

// ParseSyncPolicy maps the -wal-sync flag value to Options fields:
// "always" (or empty), "none", or a Go duration such as "250ms" for
// interval-batched fsync.
func ParseSyncPolicy(s string) (SyncMode, time.Duration, error) {
	switch s {
	case "", "always":
		return SyncAlways, 0, nil
	case "none":
		return SyncNone, 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d <= 0 {
		return 0, 0, fmt.Errorf("wal: sync policy must be \"always\", \"none\", or a positive duration, got %q", s)
	}
	return SyncInterval, d, nil
}

// Stats is a point-in-time snapshot of the writer's durability counters —
// the measures the recovery benchmark tracks (bytes appended and fsynced
// per interval, not per history).
type Stats struct {
	// LastSeq is the sequence number of the last appended record.
	LastSeq uint64
	// AppendedBytes counts every byte written to segment files (headers
	// and frames).
	AppendedBytes int64
	// SyncedBytes counts the bytes covered by an explicit fsync.
	SyncedBytes int64
	// Syncs counts fsync calls on segment files.
	Syncs int64
	// Segments is the number of live segment files.
	Segments int
}

// Writer appends CRC-framed records to the segmented log. It is safe for
// concurrent use, though the engine serializes Appends under its commit
// ordering lock anyway (WAL order must equal commit order).
type Writer struct {
	dir  string
	opts Options
	fs   vfs.FS

	mu       sync.Mutex
	f        vfs.File // active segment, nil until the first append (or after a seal)
	segStart uint64   // first sequence number of the active segment
	segBytes int64    // bytes written to the active segment
	lastSeq  uint64   // last appended (acknowledged) sequence number
	dirty    bool     // unsynced appended bytes exist
	closed   bool
	// err is the poison latch (the fsync-gate): set on any failed fsync or
	// unrepaired partial write, it makes every subsequent Append refuse
	// cleanly. After a failed fsync the kernel may drop the dirty pages and
	// clear the error, so a later fsync on the same file can report success
	// for data that never reached disk — once a file fails to sync, nothing
	// on it is ever acknowledged again. Recover is the only way out.
	err error

	// syncedEnd/syncedSeq mark the active segment's durable prefix: the
	// file offset and last sequence number covered by a successful fsync.
	// Recover truncates back to exactly this point.
	syncedEnd int64
	syncedSeq uint64

	appended int64
	synced   int64
	syncs    int64

	// Scrape-facing metrics (nil without Options.Obs; every method is
	// nil-safe). Incremented at the instrument sites so a scrape never
	// needs w.mu or a directory listing.
	mAppends      *obs.Counter
	mAppendBytes  *obs.Counter
	mFsyncs       *obs.Counter
	mFsyncSeconds *obs.Histogram
	mRotations    *obs.Counter

	stopFlush chan struct{}
	flushDone chan struct{}
}

// Open prepares dir for appending. nextSeq is the sequence number the first
// Append will carry — the engine's committed sequence plus one, after the
// caller has restored its snapshot and replayed the tail with Replay.
//
// Open repairs the crash signature at the tail: the last segment is scanned
// and any torn bytes after its last valid frame are truncated away before
// appending resumes. Consistency with nextSeq is enforced loudly: a tail
// beyond nextSeq-1 means the caller did not replay everything (error), and
// a tail short of nextSeq-1 means every on-disk record is already covered
// by the restored snapshot, so the stale segments are removed and the log
// restarts contiguously at nextSeq.
func Open(dir string, nextSeq uint64, opts Options) (*Writer, error) {
	if nextSeq == 0 {
		return nil, fmt.Errorf("wal: next sequence number must be >= 1")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.Mode == SyncInterval && opts.Interval <= 0 {
		return nil, fmt.Errorf("wal: SyncInterval needs a positive Interval")
	}
	fsys := opts.FS
	if fsys == nil {
		fsys = vfs.Default
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w := &Writer{dir: dir, opts: opts, fs: fsys, lastSeq: nextSeq - 1, syncedSeq: nextSeq - 1}
	if reg := opts.Obs; reg != nil {
		w.mAppends = reg.Counter("wal_appends_total", "WAL records appended and acknowledged.")
		w.mAppendBytes = reg.Counter("wal_append_bytes_total", "Frame bytes appended to WAL segments.")
		w.mFsyncs = reg.Counter("wal_fsyncs_total", "Successful fsyncs of the active WAL segment.")
		w.mFsyncSeconds = reg.Histogram("wal_fsync_seconds", "WAL fsync latency.", obs.DurationScale, obs.DurationBuckets)
		w.mRotations = reg.Counter("wal_segment_rotations_total", "WAL segment files created.")
	}
	segs, err := listSegments(fsys, dir)
	if err != nil {
		return nil, err
	}
	// Trim record-less tail segments before deciding how to resume. A
	// segment with a header (possibly torn) but no valid frame is an
	// interrupted creation — a crash or I/O failure between the segment's
	// birth and its first frame. It holds no acknowledged records, and
	// leaving it in place would both shadow the real tail (the scan below
	// only inspects the last segment) and collide with the name the next
	// append wants to create.
	var res scanResult
	for len(segs) > 0 {
		last := segs[len(segs)-1]
		res, err = scanSegment(fsys, last.path, last.firstSeq, nil)
		if err != nil {
			return nil, err
		}
		if res.frames > 0 {
			break
		}
		if err := fsys.Remove(last.path); err != nil {
			return nil, err
		}
		if err := fsys.SyncDir(dir); err != nil {
			return nil, err
		}
		segs = segs[:len(segs)-1]
	}
	if len(segs) > 0 {
		last := segs[len(segs)-1]
		switch {
		case res.lastSeq >= nextSeq:
			return nil, fmt.Errorf("wal: %s holds records through seq %d but the engine replayed only through %d — refusing to truncate unreplayed commits",
				dir, res.lastSeq, nextSeq-1)
		case res.lastSeq == nextSeq-1:
			// Resume the tail segment in place, discarding torn bytes.
			f, err := openSegmentAt(fsys, last.path, res.validEnd)
			if err != nil {
				return nil, err
			}
			w.f, w.segStart, w.segBytes = f, last.firstSeq, res.validEnd
			w.syncedEnd = res.validEnd
		default:
			// Every on-disk record precedes the restored snapshot (a crash
			// with a lax sync policy can lose an acked WAL suffix the
			// snapshot still captured). Appending here would leave a
			// sequence gap inside the log, so clear it and restart at
			// nextSeq; the removed records are all covered by the snapshot.
			for _, s := range segs {
				if err := fsys.Remove(s.path); err != nil {
					return nil, err
				}
			}
			if err := fsys.SyncDir(dir); err != nil {
				return nil, err
			}
		}
	}
	if opts.Mode == SyncInterval {
		w.stopFlush = make(chan struct{})
		w.flushDone = make(chan struct{})
		go w.flushLoop()
	}
	return w, nil
}

// Append encodes one record — seq first, then whatever the callback writes,
// as a self-contained checkpoint stream — and appends it as a CRC frame.
// seq must be exactly the previous sequence plus one. Under SyncAlways the
// frame is fsynced before Append returns.
func (w *Writer) Append(seq uint64, write func(*checkpoint.Encoder) error) error {
	var buf bytes.Buffer
	enc := checkpoint.NewEncoder(&buf)
	enc.Uvarint(seq)
	if err := write(enc); err != nil {
		return err
	}
	if err := enc.Close(); err != nil {
		return err
	}
	payload := buf.Bytes()

	frame := make([]byte, 0, binary.MaxVarintLen64+len(payload)+4)
	frame = binary.AppendUvarint(frame, uint64(len(payload)))
	frame = append(frame, payload...)
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.Checksum(payload, castagnoli))
	frame = append(frame, crc[:]...)

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("wal: writer is closed")
	}
	if w.err != nil {
		return w.err
	}
	if seq != w.lastSeq+1 {
		return fmt.Errorf("wal: append seq %d does not follow %d", seq, w.lastSeq)
	}
	if w.f != nil && w.segBytes >= w.opts.SegmentBytes && w.lastSeq >= w.segStart {
		if err := w.sealLocked(); err != nil {
			return err
		}
	}
	if w.f == nil {
		if err := w.startSegmentLocked(seq); err != nil {
			return err
		}
	}
	// One Write call per frame: the frame is either wholly in the file's
	// logical content or not started, and a crash mid-write is exactly the
	// torn tail Replay and Open repair.
	prevEnd := w.segBytes
	if n, err := w.f.Write(frame); err != nil {
		w.appended += int64(n)
		return w.failedWriteLocked(prevEnd, err)
	}
	w.lastSeq = seq
	w.segBytes += int64(len(frame))
	w.appended += int64(len(frame))
	w.dirty = true
	if w.opts.Mode == SyncAlways {
		if err := w.syncLocked(); err != nil {
			// The frame reached the file but its durability is unknown —
			// the commit is NOT acknowledged, so the sequence number stays
			// unconsumed. The writer is already poisoned (syncLocked);
			// Recover truncates the unacked bytes away.
			w.lastSeq = seq - 1
			return err
		}
	}
	w.mAppends.Inc()
	w.mAppendBytes.Add(int64(len(frame)))
	return nil
}

// failedWriteLocked repairs the tail after a short or failed frame write:
// the partial frame's bytes are truncated away so the segment ends at the
// last intact frame and the NEXT append (a retry of the same sequence
// number, or anything else) lands on a clean tail. If the repair itself
// fails the garbage stays on disk, so the writer poisons itself rather
// than risk appending after a tear Replay would stop at.
func (w *Writer) failedWriteLocked(prevEnd int64, cause error) error {
	if terr := w.f.Truncate(prevEnd); terr == nil {
		if _, serr := w.f.Seek(prevEnd, io.SeekStart); serr == nil {
			w.segBytes = prevEnd
			return fmt.Errorf("wal: append write failed (frame discarded, log still append-safe): %w", cause)
		}
	}
	w.err = fmt.Errorf("wal: append write failed (%v) and the partial frame could not be removed — refusing further appends until Recover", cause)
	return w.err
}

// Sync forces an fsync of the active segment.
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("wal: writer is closed")
	}
	return w.syncLocked()
}

func (w *Writer) syncLocked() error {
	if w.f == nil || !w.dirty {
		return nil
	}
	t0 := time.Now()
	if err := w.f.Sync(); err != nil {
		// fsync-gate: after a failed fsync the dirty pages' fate is
		// unknown and a retried fsync can succeed without persisting
		// them, so this file can never vouch for an ack again. Poison the
		// writer; Recover abandons the segment.
		w.err = fmt.Errorf("wal: fsync failed — segment poisoned, refusing further appends until Recover: %w", err)
		return w.err
	}
	w.dirty = false
	w.synced = w.appended
	w.syncs++
	w.syncedEnd = w.segBytes
	w.syncedSeq = w.lastSeq
	w.mFsyncs.Inc()
	w.mFsyncSeconds.ObserveSince(t0)
	return nil
}

// Sick reports the writer's poison state: non-nil after a failed fsync or
// an unrepaired partial write, when every Append refuses. The engine uses
// it to distinguish a permanently failed log (degrade immediately) from a
// transient refusal (count and retry).
func (w *Writer) Sick() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Recover clears the poison latch after the underlying fault is fixed. The
// active segment is abandoned honoring the fsync-gate — truncated back to
// its durable prefix (the last successful fsync), fsynced, and sealed or
// removed — so the next append starts a fresh segment file. Only unacked
// bytes are discarded; under a lax sync policy acknowledged-but-unsynced
// records can exist, and then in-place recovery is refused (the acks
// cannot be honored without the records): restart and re-stitch from the
// snapshot instead.
func (w *Writer) Recover() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("wal: writer is closed")
	}
	if w.err == nil {
		return nil
	}
	if w.lastSeq > w.syncedSeq {
		return fmt.Errorf("wal: cannot recover in place: %d acknowledged records were never fsynced — restart and re-stitch from the last snapshot", w.lastSeq-w.syncedSeq)
	}
	if w.f != nil {
		if err := w.f.Truncate(w.syncedEnd); err != nil {
			return fmt.Errorf("wal: recover: %w", err)
		}
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("wal: recover: %w", err)
		}
		if err := w.f.Close(); err != nil {
			return fmt.Errorf("wal: recover: %w", err)
		}
		w.f = nil
		w.segBytes = w.syncedEnd
		if w.lastSeq < w.segStart {
			// The abandoned segment holds no records, only a header.
			// Remove it: the next append allocates the same name (its
			// first record is still w.lastSeq+1) and segment creation is
			// O_EXCL.
			if err := w.fs.Remove(filepath.Join(w.dir, segmentName(w.segStart))); err != nil {
				return fmt.Errorf("wal: recover: %w", err)
			}
			if err := w.fs.SyncDir(w.dir); err != nil {
				return fmt.Errorf("wal: recover: %w", err)
			}
		}
	}
	w.dirty = false
	w.err = nil
	return nil
}

// TruncateThrough removes every segment whose records are all at or below
// seq — they are covered by a snapshot the caller just made durable. The
// active segment is sealed first when it too is fully covered, so steady
// snapshot-then-truncate cycles reclaim the whole applied prefix; a segment
// straddling seq survives intact (replay skips its covered records by
// sequence number).
func (w *Writer) TruncateThrough(seq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("wal: writer is closed")
	}
	if w.f != nil && w.lastSeq <= seq && w.lastSeq >= w.segStart {
		if err := w.sealLocked(); err != nil {
			return err
		}
	}
	segs, err := listSegments(w.fs, w.dir)
	if err != nil {
		return err
	}
	removed := false
	for i, s := range segs {
		// A segment's records end where the next segment begins; the
		// final segment ends at the writer's last appended sequence.
		segLast := w.lastSeq
		if i+1 < len(segs) {
			segLast = segs[i+1].firstSeq - 1
		}
		if segLast > seq {
			break
		}
		if w.f != nil && s.firstSeq == w.segStart {
			break // never remove the active segment
		}
		if err := w.fs.Remove(s.path); err != nil {
			return err
		}
		removed = true
	}
	if removed {
		return w.fs.SyncDir(w.dir)
	}
	return nil
}

// Close syncs and closes the active segment and stops the background
// flusher. The writer must not be used afterwards.
func (w *Writer) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	err := w.syncLocked()
	if w.f != nil {
		if cerr := w.f.Close(); err == nil {
			err = cerr
		}
		w.f = nil
	}
	stop := w.stopFlush
	w.mu.Unlock()
	if stop != nil {
		close(stop)
		<-w.flushDone
	}
	return err
}

// Stats reports the durability counters.
func (w *Writer) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	if segs, err := listSegments(w.fs, w.dir); err == nil {
		n = len(segs)
	}
	return Stats{
		LastSeq:       w.lastSeq,
		AppendedBytes: w.appended,
		SyncedBytes:   w.synced,
		Syncs:         w.syncs,
		Segments:      n,
	}
}

// sealLocked makes the active segment immutable: synced, closed, and from
// now on trusted by recovery (an invalid frame in a sealed segment is an
// error, not a torn tail). Sealing before the next segment exists is what
// confines torn tails to the last segment.
func (w *Writer) sealLocked() error {
	if w.f == nil {
		return nil
	}
	if err := w.syncLocked(); err != nil {
		return err // poisoned by syncLocked (fsync-gate)
	}
	if err := w.f.Close(); err != nil {
		// The segment is durable but the handle is wedged; treat it like
		// a sync failure rather than retry on a half-sealed file.
		w.err = fmt.Errorf("wal: seal failed closing segment — refusing further appends until Recover: %w", err)
		return w.err
	}
	w.f = nil
	return nil
}

// startSegmentLocked creates the segment that will hold seq as its first
// record and makes its directory entry durable.
func (w *Writer) startSegmentLocked(seq uint64) error {
	path := filepath.Join(w.dir, segmentName(seq))
	f, err := w.fs.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if errors.Is(err, fs.ErrExist) {
		// Leftover from an earlier aborted creation whose cleanup failed.
		// It is only safe to clobber if it holds no acknowledged records.
		if res, serr := scanSegment(w.fs, path, seq, nil); serr == nil && res.frames == 0 {
			if rerr := w.fs.Remove(path); rerr == nil {
				f, err = w.fs.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
			}
		}
	}
	if err != nil {
		return fmt.Errorf("wal: segment rotation failed (previous segment sealed, log still append-safe): %w", err)
	}
	var hdr bytes.Buffer
	hdr.WriteString(segMagic)
	var tmp [binary.MaxVarintLen64]byte
	hdr.Write(tmp[:binary.PutUvarint(tmp[:], FormatVersion)])
	hdr.Write(tmp[:binary.PutUvarint(tmp[:], seq)])
	if _, err := f.Write(hdr.Bytes()); err != nil {
		w.abortSegmentLocked(f, path)
		return fmt.Errorf("wal: segment rotation failed (previous segment sealed, log still append-safe): %w", err)
	}
	if err := f.Sync(); err != nil {
		w.abortSegmentLocked(f, path)
		return fmt.Errorf("wal: segment rotation failed (previous segment sealed, log still append-safe): %w", err)
	}
	if err := w.fs.SyncDir(w.dir); err != nil {
		w.abortSegmentLocked(f, path)
		return fmt.Errorf("wal: segment rotation failed (previous segment sealed, log still append-safe): %w", err)
	}
	w.f = f
	w.segStart = seq
	w.segBytes = int64(hdr.Len())
	w.appended += int64(hdr.Len())
	w.synced = w.appended
	w.syncedEnd = w.segBytes
	w.syncedSeq = w.lastSeq
	w.mRotations.Inc()
	return nil
}

// abortSegmentLocked disposes of a segment file whose creation failed
// partway. The file holds no records, but leaving it behind would make the
// retry's O_EXCL create fail, so removal failure poisons the writer (and
// Open knows to trim record-less tail segments after a crash).
func (w *Writer) abortSegmentLocked(f vfs.File, path string) {
	f.Close()
	if err := w.fs.Remove(path); err != nil {
		w.err = fmt.Errorf("wal: aborted segment %s could not be removed — refusing further appends until Recover: %v", path, err)
	}
}

func (w *Writer) flushLoop() {
	defer close(w.flushDone)
	tick := time.NewTicker(w.opts.Interval)
	defer tick.Stop()
	for {
		select {
		case <-w.stopFlush:
			return
		case <-tick.C:
			w.mu.Lock()
			if !w.closed && w.err == nil {
				// A failure poisons the writer inside syncLocked: an
				// Append acked after a failed background sync would be
				// claiming durability we lost.
				_ = w.syncLocked()
			}
			w.mu.Unlock()
		}
	}
}

// ReplayInfo summarizes a Replay pass.
type ReplayInfo struct {
	// LastSeq is the last valid record's sequence number (0 when the log
	// is empty).
	LastSeq uint64
	// Frames is the number of valid records seen (applied or skipped).
	Frames int
	// Torn describes the discarded tail of the last segment, empty when
	// the log ended cleanly at a frame boundary.
	Torn string
}

// Replay walks every record in sequence order and hands each to fn along
// with a decoder positioned just past the record's sequence number. fn owns
// the rest of the payload: it either decodes the record fully (Close on the
// decoder verifies the payload's own trailer) or returns without touching
// it to skip — the frame CRC verified here already covers skipped bytes.
//
// Replay stops cleanly at a torn tail in the last segment (see ReplayInfo)
// and fails loudly on anything else: CRC or framing damage in a sealed
// segment, a sequence discontinuity, or a segment header that contradicts
// the file name. A missing directory is an empty log.
func Replay(dir string, fn func(seq uint64, dec *checkpoint.Decoder) error) (ReplayInfo, error) {
	return ReplayFS(vfs.Default, dir, fn)
}

// ReplayFS is Replay through an explicit filesystem (fault-injection
// tests; vfs.Default elsewhere).
func ReplayFS(fsys vfs.FS, dir string, fn func(seq uint64, dec *checkpoint.Decoder) error) (ReplayInfo, error) {
	var info ReplayInfo
	segs, err := listSegments(fsys, dir)
	if err != nil {
		if os.IsNotExist(err) {
			return info, nil
		}
		return info, err
	}
	expect := uint64(0)
	for i, s := range segs {
		isLast := i == len(segs)-1
		if expect != 0 && s.firstSeq != expect {
			return info, fmt.Errorf("wal: %s starts at seq %d, want %d — log is not contiguous", s.path, s.firstSeq, expect)
		}
		res, err := scanSegment(fsys, s.path, s.firstSeq, func(seq uint64, payload []byte) error {
			dec, err := checkpoint.NewDecoder(bytes.NewReader(payload))
			if err != nil {
				return fmt.Errorf("wal: %s seq %d: %w", s.path, seq, err)
			}
			if got := dec.Uvarint(); got != seq || dec.Err() != nil {
				return fmt.Errorf("wal: %s: payload seq %d disagrees with frame scan", s.path, got)
			}
			return fn(seq, dec)
		})
		if err != nil {
			return info, err
		}
		if res.frames > 0 {
			info.LastSeq = res.lastSeq
			info.Frames += res.frames
			expect = res.lastSeq + 1
		} else if expect == 0 {
			expect = s.firstSeq
		}
		if res.torn != "" {
			if !isLast {
				// Sealed segments were fsynced before their successor was
				// created; damage here is corruption of acknowledged
				// history, not a crash artifact.
				return info, fmt.Errorf("wal: %s: %s in a sealed segment — acknowledged commits are damaged", s.path, res.torn)
			}
			info.Torn = res.torn
		}
	}
	return info, nil
}

// ---- segment scanning ----

type segmentFile struct {
	path     string
	firstSeq uint64
}

func segmentName(firstSeq uint64) string {
	return fmt.Sprintf("wal-%016d.seg", firstSeq)
}

// listSegments returns the segment files sorted by first sequence number.
func listSegments(fsys vfs.FS, dir string) ([]segmentFile, error) {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segmentFile
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
			continue
		}
		var seq uint64
		if _, err := fmt.Sscanf(name, "wal-%016d.seg", &seq); err != nil || seq == 0 {
			return nil, fmt.Errorf("wal: unrecognized segment file name %q in %s", name, dir)
		}
		segs = append(segs, segmentFile{path: filepath.Join(dir, name), firstSeq: seq})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstSeq < segs[j].firstSeq })
	return segs, nil
}

type scanResult struct {
	lastSeq  uint64 // last valid frame's seq (0 when frames == 0)
	frames   int
	validEnd int64  // file offset just past the last valid frame (or the header)
	torn     string // non-empty when trailing bytes after validEnd were invalid
}

// scanSegment validates one segment: header (against the expected first
// sequence from the file name), then frames in order, calling fn (when
// non-nil) with each frame's seq and payload. Scanning stops at the first
// invalid frame, reporting it in torn; deciding whether torn is acceptable
// (tail segment) or fatal (sealed segment) is the caller's job. Errors are
// reserved for damage no crash can explain: an unreadable file, a
// valid-CRC frame whose contents contradict the framing, or a sequence
// discontinuity inside the segment.
func scanSegment(fsys vfs.FS, path string, wantFirst uint64, fn func(seq uint64, payload []byte) error) (scanResult, error) {
	var res scanResult
	f, err := fsys.Open(path)
	if err != nil {
		return res, err
	}
	defer f.Close()
	cr := &countingReader{r: bufio.NewReader(f)}

	hdr := make([]byte, len(segMagic))
	if _, err := io.ReadFull(cr, hdr); err != nil || string(hdr) != segMagic {
		res.torn = "missing or short segment header"
		return res, nil
	}
	ver, err := binary.ReadUvarint(cr)
	if err != nil || ver != FormatVersion {
		if err == nil {
			return res, fmt.Errorf("wal: %s: segment format version %d, this build reads %d", path, ver, FormatVersion)
		}
		res.torn = "truncated segment header"
		return res, nil
	}
	first, err := binary.ReadUvarint(cr)
	if err != nil {
		res.torn = "truncated segment header"
		return res, nil
	}
	if first != wantFirst {
		return res, fmt.Errorf("wal: %s: header says first seq %d, file name says %d", path, first, wantFirst)
	}
	res.validEnd = cr.n
	expect := wantFirst
	for {
		n, err := binary.ReadUvarint(cr)
		if err == io.EOF {
			return res, nil // clean end at a frame boundary
		}
		if err != nil {
			res.torn = "truncated frame length"
			return res, nil
		}
		if n > maxFrameBytes {
			res.torn = fmt.Sprintf("implausible frame length %d", n)
			return res, nil
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(cr, payload); err != nil {
			res.torn = "truncated frame payload"
			return res, nil
		}
		var crcb [4]byte
		if _, err := io.ReadFull(cr, crcb[:]); err != nil {
			res.torn = "truncated frame checksum"
			return res, nil
		}
		if binary.BigEndian.Uint32(crcb[:]) != crc32.Checksum(payload, castagnoli) {
			res.torn = fmt.Sprintf("frame %d checksum mismatch", expect)
			return res, nil
		}
		// The frame is integral; its seq must be the expected one — a
		// valid-CRC frame out of sequence is a writer bug or tampering,
		// never a crash artifact.
		seq, perr := peekSeq(payload)
		if perr != nil {
			return res, fmt.Errorf("wal: %s: %v", path, perr)
		}
		if seq != expect {
			return res, fmt.Errorf("wal: %s: frame seq %d, want %d — log is not contiguous", path, seq, expect)
		}
		if fn != nil {
			if err := fn(seq, payload); err != nil {
				return res, err
			}
		}
		res.lastSeq = seq
		res.frames++
		res.validEnd = cr.n
		expect = seq + 1
	}
}

// peekSeq reads the record sequence number from the head of a payload
// without consuming the record body.
func peekSeq(payload []byte) (uint64, error) {
	dec, err := checkpoint.NewDecoder(bytes.NewReader(payload))
	if err != nil {
		return 0, err
	}
	seq := dec.Uvarint()
	if err := dec.Err(); err != nil {
		return 0, err
	}
	return seq, nil
}

// openSegmentAt opens a segment for appending, discarding everything past
// validEnd (the torn-tail repair) and making the repair durable.
func openSegmentAt(fsys vfs.FS, path string, validEnd int64) (vfs.File, error) {
	f, err := fsys.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(validEnd); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(validEnd, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// countingReader tracks the byte offset so scans can report where the last
// valid frame ended.
type countingReader struct {
	r *bufio.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		c.n++
	}
	return b, err
}
