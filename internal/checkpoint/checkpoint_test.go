package checkpoint

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/types"
	"repro/internal/vfs"
)

// TestRoundTrip encodes one of every primitive and reads it back.
func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	enc.Section("header")
	enc.Uvarint(0)
	enc.Uvarint(1 << 60)
	enc.Varint(-1 << 55)
	enc.Int(42)
	enc.Bool(true)
	enc.Bool(false)
	enc.String("")
	enc.String("hello, checkpoint")
	enc.Time(types.MinTime)
	enc.Time(types.MaxTime)
	enc.Duration(10 * types.Minute)
	enc.Section("values")
	vals := []types.Value{
		types.Null(),
		types.NewBool(true),
		types.NewInt(-7),
		types.NewFloat(math.Pi),
		types.NewFloat(math.Inf(-1)),
		types.NewString("päper"),
		types.NewTimestamp(types.ClockTime(8, 7)),
		types.NewInterval(types.Second),
	}
	for _, v := range vals {
		enc.Value(v)
	}
	enc.Row(nil)
	enc.Row(types.Row{})
	enc.Row(types.Row{types.NewInt(1), types.Null(), types.NewString("x")})
	if err := enc.Close(); err != nil {
		t.Fatalf("encode: %v", err)
	}

	dec, err := NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := dec.Expect("header"); err != nil {
		t.Fatal(err)
	}
	if got := dec.Uvarint(); got != 0 {
		t.Errorf("uvarint = %d", got)
	}
	if got := dec.Uvarint(); got != 1<<60 {
		t.Errorf("uvarint = %d", got)
	}
	if got := dec.Varint(); got != -1<<55 {
		t.Errorf("varint = %d", got)
	}
	if got := dec.Int(); got != 42 {
		t.Errorf("int = %d", got)
	}
	if !dec.Bool() || dec.Bool() {
		t.Errorf("bools corrupted")
	}
	if got := dec.String(); got != "" {
		t.Errorf("empty string = %q", got)
	}
	if got := dec.String(); got != "hello, checkpoint" {
		t.Errorf("string = %q", got)
	}
	if got := dec.Time(); got != types.MinTime {
		t.Errorf("MinTime = %v", got)
	}
	if got := dec.Time(); got != types.MaxTime {
		t.Errorf("MaxTime = %v", got)
	}
	if got := dec.Duration(); got != 10*types.Minute {
		t.Errorf("duration = %v", got)
	}
	if err := dec.Expect("values"); err != nil {
		t.Fatal(err)
	}
	for i, want := range vals {
		got := dec.Value()
		if !got.Equal(want) || got.Kind() != want.Kind() {
			t.Errorf("value %d = %v (%s), want %v (%s)", i, got, got.Kind(), want, want.Kind())
		}
	}
	if row := dec.Row(); row != nil {
		t.Errorf("nil row decoded as %v", row)
	}
	if row := dec.Row(); row == nil || len(row) != 0 {
		t.Errorf("empty row decoded as %v", row)
	}
	row := dec.Row()
	want := types.Row{types.NewInt(1), types.Null(), types.NewString("x")}
	if !row.Equal(want) {
		t.Errorf("row = %v, want %v", row, want)
	}
	if err := dec.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestSectionMismatch: a drifted reader fails loudly at the section seam.
func TestSectionMismatch(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	enc.Section("agg-state")
	enc.Int(3)
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.Expect("join-state"); err == nil {
		t.Fatal("section mismatch not detected")
	}
}

// TestCorruptionDetected: flipping any payload byte fails the CRC check.
func TestCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	enc.String("state bytes that matter")
	enc.Int(12345)
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	corrupt := append([]byte{}, data...)
	corrupt[len(magic)+3] ^= 0x40
	dec, err := NewDecoder(bytes.NewReader(corrupt))
	if err != nil {
		// Corruption in the length prefix may already fail the open/read.
		return
	}
	_ = dec.String()
	dec.Int()
	if dec.Close() == nil {
		t.Fatal("corruption not detected by crc trailer")
	}
}

// TestTruncationDetected: a stream cut short fails rather than zero-filling.
func TestTruncationDetected(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	enc.String("0123456789")
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:buf.Len()-6]
	dec, err := NewDecoder(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	_ = dec.String()
	if dec.Close() == nil {
		t.Fatal("truncation not detected")
	}
}

// TestCorruptStringLengthFailsSmall: a string length read from a corrupt
// stream is not trusted as an allocation size; decoding fails at the end of
// the stream having allocated about what the stream holds, not 1 GiB.
func TestCorruptStringLengthFailsSmall(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	enc.Uvarint(1 << 30) // the length of a string whose bytes never follow
	enc.Uvarint(7)
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_ = dec.String()
	runtime.ReadMemStats(&after)
	if dec.Err() == nil {
		t.Fatal("a string longer than the stream decoded without error")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("decoding allocated %d bytes for a string the stream cannot hold", grew)
	}
}

// TestVersionMismatch: a future-format stream is refused at open.
func TestVersionMismatch(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(magic)
	buf.WriteByte(FormatVersion + 1)
	if _, err := NewDecoder(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("future format version accepted")
	}
}

// TestBadMagic: arbitrary files are refused.
func TestBadMagic(t *testing.T) {
	if _, err := NewDecoder(bytes.NewReader([]byte("NOTACKPTFILE"))); err == nil {
		t.Fatal("bad magic accepted")
	}
}

// TestWriteFileAtomic: the on-disk swap leaves either the old or the new
// complete checkpoint, and ReadFileFS verifies the trailer.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "checkpoint.ckpt")
	size, err := WriteFileAtomicFS(vfs.Default, path, func(e *Encoder) error {
		e.Section("v1")
		e.Int(1)
		return e.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	if size <= 0 {
		t.Fatalf("size = %d", size)
	}
	// Overwrite with new content; a failed write must not clobber it.
	if _, err := WriteFileAtomicFS(vfs.Default, path, func(e *Encoder) error {
		e.Section("v2")
		e.Int(2)
		return e.Err()
	}); err != nil {
		t.Fatal(err)
	}
	var got int
	if err := ReadFileFS(vfs.Default, path, func(d *Decoder) error {
		if err := d.Expect("v2"); err != nil {
			return err
		}
		got = d.Int()
		return d.Err()
	}); err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("read back %d, want 2", got)
	}
	// No temp litter left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want just the checkpoint", len(entries))
	}
}
