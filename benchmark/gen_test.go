package main

import (
	"bytes"
	"testing"
)

// The generator is the benchmark's only source of input: the same seed must
// give the same bytes (or two commits would not do the same work) and a
// different seed different ones (or the seed would not be an input).
func TestGeneratorDeterminism(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			a, err := buildInput(w, 7, 0.2)
			if err != nil {
				t.Fatal(err)
			}
			b, err := buildInput(w, 7, 0.2)
			if err != nil {
				t.Fatal(err)
			}
			if len(a.batches) != len(b.batches) || a.warm != b.warm || a.paced != b.paced {
				t.Fatalf("same seed: %d/%d/%d batches vs %d/%d/%d", len(a.batches), a.warm, a.paced, len(b.batches), b.warm, b.paced)
			}
			for i := range a.batches {
				if a.batches[i].rel != b.batches[i].rel || !bytes.Equal(a.batches[i].body, b.batches[i].body) {
					t.Fatalf("same seed: batch %d differs", i)
				}
			}
			hash := func(in *input) string {
				ref, err := newReference(w, in)
				if err != nil {
					t.Fatal(err)
				}
				h, _, err := ref.streamHash()
				if err != nil {
					t.Fatal(err)
				}
				return h
			}
			if ha, hb := hash(a), hash(b); ha != hb {
				t.Fatalf("same seed: reference hash %s vs %s", ha, hb)
			}

			c, err := buildInput(w, 8, 0.2)
			if err != nil {
				t.Fatal(err)
			}
			same := len(a.batches) == len(c.batches)
			for i := 0; same && i < len(a.batches); i++ {
				same = bytes.Equal(a.batches[i].body, c.batches[i].body)
			}
			if same {
				t.Fatal("seeds 7 and 8 gave identical request bodies")
			}

			// Each batch owns its ptime range: per relation the ranges are
			// disjoint and ascend, and across relations batches never go
			// back in time — the order the reference replay merges in.
			last := make([]int64, len(w.relations))
			for i := range last {
				last[i] = -1 << 62
			}
			prevHi := int64(-1 << 62)
			for i, bt := range a.batches {
				if len(bt.log) == 0 || bt.lo != bt.log[0].Ptime || bt.hi != bt.log[len(bt.log)-1].Ptime || bt.lo > bt.hi {
					t.Fatalf("batch %d: bad range [%d,%d]", i, bt.lo, bt.hi)
				}
				if int64(bt.lo) <= last[bt.rel] {
					t.Fatalf("batch %d: range [%d,%d] overlaps the relation's previous batch ending %d", i, bt.lo, bt.hi, last[bt.rel])
				}
				if int64(bt.lo) < prevHi {
					t.Fatalf("batch %d: starts at %d before the previous batch's end %d", i, bt.lo, prevHi)
				}
				last[bt.rel], prevHi = int64(bt.hi), int64(bt.hi)
			}
		})
	}
}
