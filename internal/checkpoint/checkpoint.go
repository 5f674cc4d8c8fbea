// Package checkpoint implements the versioned, self-describing binary
// encoding that durable operator-state snapshots are written in.
//
// A checkpoint stream is
//
//	magic "TVRCKPT" | format version (uvarint) | payload ... | crc32c trailer
//
// The payload is a flat sequence of primitively encoded fields written by the
// layers above (exec operators, the tvr containers, live sessions, the engine
// catalog). Three properties make the format safe to evolve:
//
//   - Versioned: the header carries a format version; a decoder refuses
//     streams from a different version instead of misreading them.
//   - Self-describing: every value carries its kind tag, and structural
//     boundaries are marked with named sections (Section/Expect), so a
//     writer/reader mismatch fails loudly at the exact section that drifted
//     rather than silently decoding garbage.
//   - Checksummed: the whole stream is covered by a CRC-32C trailer verified
//     by Decoder.Close, so a truncated or bit-rotted checkpoint file is
//     detected before any restored state goes live.
//
// Both halves accumulate their first error and turn every subsequent call
// into a no-op, so call sites can encode a whole snapshot and check the error
// once at Close.
package checkpoint

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"path/filepath"

	"repro/internal/types"
	"repro/internal/vfs"
)

// magic identifies a checkpoint stream. Seven bytes so that with the version
// uvarint the common header is eight.
const magic = "TVRCKPT"

// FormatVersion is the current encoding version. Bump it on any change to
// the byte layout; a decoder only accepts its own version.
const FormatVersion = 1

// castagnoli is the CRC-32C table (the polynomial used by modern storage
// systems for end-to-end integrity checks).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// value kind tags. These deliberately do NOT reuse types.Kind numeric values:
// the wire format must stay stable even if the in-memory enum is reordered.
const (
	tagNull      byte = 'n'
	tagBool      byte = 'b'
	tagInt       byte = 'i'
	tagFloat     byte = 'f'
	tagString    byte = 's'
	tagTimestamp byte = 't'
	tagInterval  byte = 'd'
	tagSection   byte = '!' // section marker prefix
)

// Encoder writes a checkpoint stream. Create with NewEncoder, write fields,
// then Close to append the integrity trailer.
type Encoder struct {
	w   *bufio.Writer
	crc uint32
	n   int64
	err error
	buf [binary.MaxVarintLen64]byte
}

// NewEncoder starts a checkpoint stream on w, writing the header.
func NewEncoder(w io.Writer) *Encoder {
	e := &Encoder{w: bufio.NewWriter(w)}
	e.raw([]byte(magic))
	e.Uvarint(FormatVersion)
	return e
}

// Err returns the first error encountered.
func (e *Encoder) Err() error { return e.err }

// Close appends the CRC trailer and flushes. The Encoder must not be used
// afterwards.
func (e *Encoder) Close() error {
	if e.err != nil {
		return e.err
	}
	var tr [4]byte
	binary.BigEndian.PutUint32(tr[:], e.crc)
	if _, err := e.w.Write(tr[:]); err != nil {
		e.err = err
		return err
	}
	if err := e.w.Flush(); err != nil {
		e.err = err
	}
	return e.err
}

// Bytes written so far (header included, trailer excluded) — the checkpoint
// size measure the recovery benchmark records.
func (e *Encoder) Bytes() int64 { return e.n }

func (e *Encoder) raw(p []byte) {
	if e.err != nil {
		return
	}
	if _, err := e.w.Write(p); err != nil {
		e.err = err
		return
	}
	e.crc = crc32.Update(e.crc, castagnoli, p)
	e.n += int64(len(p))
}

// Uvarint writes an unsigned varint.
func (e *Encoder) Uvarint(u uint64) {
	n := binary.PutUvarint(e.buf[:], u)
	e.raw(e.buf[:n])
}

// Varint writes a signed (zigzag) varint.
func (e *Encoder) Varint(v int64) {
	n := binary.PutVarint(e.buf[:], v)
	e.raw(e.buf[:n])
}

// Int writes an int as a signed varint.
func (e *Encoder) Int(v int) { e.Varint(int64(v)) }

// Bool writes a single boolean byte.
func (e *Encoder) Bool(b bool) {
	if b {
		e.raw([]byte{1})
	} else {
		e.raw([]byte{0})
	}
}

// String writes a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.raw([]byte(s))
}

// Time writes a types.Time as a signed varint (MinTime/MaxTime included).
func (e *Encoder) Time(t types.Time) { e.Varint(int64(t)) }

// Duration writes a types.Duration as a signed varint.
func (e *Encoder) Duration(d types.Duration) { e.Varint(int64(d)) }

// Value writes one SQL value with its kind tag.
func (e *Encoder) Value(v types.Value) {
	switch v.Kind() {
	case types.KindNull:
		e.raw([]byte{tagNull})
	case types.KindBool:
		e.raw([]byte{tagBool})
		e.Bool(v.Bool())
	case types.KindInt64:
		e.raw([]byte{tagInt})
		e.Varint(v.Int())
	case types.KindFloat64:
		e.raw([]byte{tagFloat})
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], math.Float64bits(v.Float()))
		e.raw(b[:])
	case types.KindString:
		e.raw([]byte{tagString})
		e.String(v.Str())
	case types.KindTimestamp:
		e.raw([]byte{tagTimestamp})
		e.Varint(int64(v.Timestamp()))
	case types.KindInterval:
		e.raw([]byte{tagInterval})
		e.Varint(int64(v.Interval()))
	default:
		e.fail(fmt.Errorf("checkpoint: cannot encode value kind %s", v.Kind()))
	}
}

// Row writes a length-prefixed row. A nil row and an empty row are
// distinguished (operators use nil rows as "no output yet" markers).
func (e *Encoder) Row(r types.Row) {
	if r == nil {
		e.Bool(false)
		return
	}
	e.Bool(true)
	e.Uvarint(uint64(len(r)))
	for _, v := range r {
		e.Value(v)
	}
}

// Section writes a named structural marker. The matching Decoder.Expect
// fails loudly — naming both sections — when writer and reader disagree
// about what comes next.
func (e *Encoder) Section(name string) {
	e.raw([]byte{tagSection})
	e.String(name)
}

func (e *Encoder) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// Decoder reads a checkpoint stream written by Encoder.
type Decoder struct {
	r   *bufio.Reader
	crc uint32
	err error
}

// NewDecoder opens a checkpoint stream, verifying the header.
func NewDecoder(r io.Reader) (*Decoder, error) {
	d := &Decoder{r: bufio.NewReader(r)}
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(d.r, head); err != nil {
		return nil, fmt.Errorf("checkpoint: reading header: %w", err)
	}
	d.crc = crc32.Update(d.crc, castagnoli, head)
	if string(head) != magic {
		return nil, fmt.Errorf("checkpoint: bad magic %q (not a checkpoint stream)", head)
	}
	ver := d.Uvarint()
	if d.err != nil {
		return nil, d.err
	}
	if ver != FormatVersion {
		return nil, fmt.Errorf("checkpoint: format version %d, this build reads %d", ver, FormatVersion)
	}
	return d, nil
}

// Err returns the first decode error.
func (d *Decoder) Err() error { return d.err }

// Close reads and verifies the CRC trailer. It must be called after the last
// field: a mismatch means the stream was truncated, corrupted, or not fully
// consumed.
func (d *Decoder) Close() error {
	if d.err != nil {
		return d.err
	}
	want := d.crc // trailer is not part of its own coverage
	var tr [4]byte
	if _, err := io.ReadFull(d.r, tr[:]); err != nil {
		d.err = fmt.Errorf("checkpoint: reading crc trailer: %w", err)
		return d.err
	}
	if got := binary.BigEndian.Uint32(tr[:]); got != want {
		d.err = fmt.Errorf("checkpoint: crc mismatch (stream corrupted or not fully consumed)")
	}
	return d.err
}

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// ReadByte implements io.ByteReader over the CRC accounting.
func (d *Decoder) readByte() byte {
	if d.err != nil {
		return 0
	}
	b, err := d.r.ReadByte()
	if err != nil {
		d.fail(fmt.Errorf("checkpoint: unexpected end of stream: %w", err))
		return 0
	}
	// crc32.Update for one byte, inlined: most fields are one- or two-byte
	// varints and tags, and a call (plus a one-byte slice) per byte was the
	// largest single cost of a restore.
	c := ^d.crc
	d.crc = ^(castagnoli[byte(c)^b] ^ (c >> 8))
	return b
}

func (d *Decoder) readFull(p []byte) {
	if d.err != nil {
		return
	}
	if _, err := io.ReadFull(d.r, p); err != nil {
		d.fail(fmt.Errorf("checkpoint: unexpected end of stream: %w", err))
		return
	}
	d.crc = crc32.Update(d.crc, castagnoli, p)
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	var x uint64
	var s uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b := d.readByte()
		if d.err != nil {
			return 0
		}
		if b < 0x80 {
			return x | uint64(b)<<s
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	d.fail(fmt.Errorf("checkpoint: varint overflow"))
	return 0
}

// Varint reads a signed (zigzag) varint.
func (d *Decoder) Varint() int64 {
	u := d.Uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// Int reads an int-sized signed varint.
func (d *Decoder) Int() int { return int(d.Varint()) }

// Bool reads one boolean byte.
func (d *Decoder) Bool() bool {
	switch d.readByte() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail(fmt.Errorf("checkpoint: invalid boolean byte"))
		return false
	}
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if n > 1<<31 {
		d.fail(fmt.Errorf("checkpoint: implausible string length %d", n))
		return ""
	}
	// Grow in bounded steps, so a corrupt length fails at the end of the
	// stream instead of allocating up to 2 GiB first (see CapHint).
	p := make([]byte, 0, CapHint(n))
	for rem := n; rem > 0 && d.err == nil; {
		k := min(rem, 1<<16)
		p = append(p, make([]byte, k)...)
		d.readFull(p[uint64(len(p))-k:])
		rem -= k
	}
	return string(p)
}

// Time reads a types.Time.
func (d *Decoder) Time() types.Time { return types.Time(d.Varint()) }

// Duration reads a types.Duration.
func (d *Decoder) Duration() types.Duration { return types.Duration(d.Varint()) }

// Value reads one tagged SQL value.
func (d *Decoder) Value() types.Value {
	switch tag := d.readByte(); tag {
	case tagNull:
		return types.Null()
	case tagBool:
		return types.NewBool(d.Bool())
	case tagInt:
		return types.NewInt(d.Varint())
	case tagFloat:
		var b [8]byte
		d.readFull(b[:])
		return types.NewFloat(math.Float64frombits(binary.BigEndian.Uint64(b[:])))
	case tagString:
		return types.NewString(d.String())
	case tagTimestamp:
		return types.NewTimestamp(types.Time(d.Varint()))
	case tagInterval:
		return types.NewInterval(types.Duration(d.Varint()))
	default:
		if d.err == nil {
			d.fail(fmt.Errorf("checkpoint: unknown value tag 0x%02x", tag))
		}
		return types.Null()
	}
}

// Row reads a length-prefixed row (nil-awareness mirrors Encoder.Row).
func (d *Decoder) Row() types.Row {
	if !d.Bool() {
		return nil
	}
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > 1<<20 {
		d.fail(fmt.Errorf("checkpoint: implausible row width %d", n))
		return nil
	}
	row := make(types.Row, n)
	for i := range row {
		row[i] = d.Value()
	}
	return row
}

// CapHint bounds a stream-supplied element count for use as an allocation
// hint. Restore loops append (or map-insert) one decoded element at a time,
// so a corrupt count fails at the next read or at the CRC trailer either
// way; clamping the pre-allocation keeps the failure an error instead of an
// out-of-memory abort before the trailer check runs.
func CapHint(n uint64) int {
	const max = 1 << 16
	if n > max {
		return max
	}
	return int(n)
}

// Section consumes a section marker and returns its name, for a reader that
// accepts more than one layout at this point of the stream.
func (d *Decoder) Section() string {
	if b := d.readByte(); d.err == nil && b != tagSection {
		d.fail(fmt.Errorf("checkpoint: expected a section, found value tag 0x%02x", b))
	}
	return d.String()
}

// Expect consumes a section marker and verifies its name, failing with a
// got/want error on drift. This is the loud-failure seam between encoding
// layers.
func (d *Decoder) Expect(name string) error {
	if got := d.Section(); d.err == nil && got != name {
		d.fail(fmt.Errorf("checkpoint: section mismatch: stream has %q, reader wants %q", got, name))
	}
	return d.err
}

// WriteFileAtomicFS writes a checkpoint file through fsys crash-safely: the
// stream is produced into a temp file in the same directory, synced, renamed
// over path, and the parent directory is synced, so a crash at any point
// leaves either the old complete checkpoint or the new one — never a torn
// file.
// The directory fsync is what makes the rename itself durable: without it a
// crash shortly after return can roll the directory entry back to the old
// file (or to nothing, in a freshly created data dir), silently undoing a
// checkpoint that was already reported successful. The write callback
// receives the open Encoder; the trailer is appended after it returns. On
// any failure the temp file is removed, so an interrupted checkpoint leaves
// no `.tmp` litter of its own — only a hard crash can, and core.Open sweeps
// those.
func WriteFileAtomicFS(fsys vfs.FS, path string, write func(*Encoder) error) (int64, error) {
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return 0, err
	}
	tmpName := tmp.Name()
	defer fsys.Remove(tmpName) // no-op after a successful rename
	enc := NewEncoder(tmp)
	if err := write(enc); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := enc.Close(); err != nil {
		tmp.Close()
		return 0, err
	}
	size := enc.Bytes()
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		return 0, err
	}
	if err := fsys.Rename(tmpName, path); err != nil {
		return 0, err
	}
	if err := fsys.SyncDir(dir); err != nil {
		return 0, err
	}
	return size, nil
}

// ReadFileFS opens a checkpoint file through fsys, hands the Decoder to
// read, and verifies the trailer afterwards.
func ReadFileFS(fsys vfs.FS, path string, read func(*Decoder) error) error {
	f, err := fsys.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	dec, err := NewDecoder(f)
	if err != nil {
		return err
	}
	if err := read(dec); err != nil {
		return err
	}
	return dec.Close()
}
