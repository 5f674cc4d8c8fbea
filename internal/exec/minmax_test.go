package exec

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/types"
)

// minMaxCorpus is the value alphabet the MIN/MAX property test draws from:
// NULL, BIGINT 1 beside DOUBLE 1.0 (one multiset member under two
// representations), and BIGINTs beyond 2^53 that share a float64 rounding but
// not a key. No two values compare equal without sharing a key, so the
// extremum a recompute finds does not depend on map iteration order.
func minMaxCorpus() []types.Value {
	const big = int64(1) << 53
	return []types.Value{
		types.Null(),
		types.NewInt(1), types.NewFloat(1), types.NewInt(2), types.NewFloat(2.5), types.NewInt(3),
		types.NewInt(big), types.NewInt(big + 1), types.NewInt(big + 2), types.NewFloat(float64(big + 2)),
	}
}

// accBytes returns saveAcc's encoding of one accumulator.
func accBytes(t *testing.T, acc accumulator) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := checkpoint.NewEncoder(&buf)
	saveAcc(enc, acc)
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// loadMinMax restores a MIN/MAX accumulator from saveAcc's bytes.
func loadMinMax(t *testing.T, min bool, b []byte) *minMaxAcc {
	t.Helper()
	dec, err := checkpoint.NewDecoder(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	m := newMinMaxAcc(min)
	if err := loadAcc(dec, m); err != nil {
		t.Fatal(err)
	}
	if err := dec.Close(); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestMinMaxAccMatchesMultiset drives minMaxAcc through random inserts and
// retractions over minMaxCorpus, in groups small enough that the inline
// single-value form and the keyed multiset both occur, and after every step
// checks it against a plain multiset model and against an accumulator held
// in the keyed multiset from its first value:
//
//   - value() is the model's extremum (NULL when the multiset is empty);
//   - retracting a value the multiset does not hold is an error;
//   - saveAcc writes the bytes the always-keyed accumulator writes, and a
//     load of them saves the same bytes again. The test continues on the
//     loaded copy half of the time, so restored states are driven further.
func TestMinMaxAccMatchesMultiset(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	corpus := minMaxCorpus()
	var inlineSteps, multisetSteps int
	for trial := 0; trial < 400; trial++ {
		min := trial%2 == 0
		alphabet := append([]types.Value(nil), corpus...)
		rng.Shuffle(len(alphabet), func(i, j int) { alphabet[i], alphabet[j] = alphabet[j], alphabet[i] })
		alphabet = alphabet[:1+rng.Intn(len(alphabet))]
		m := newMinMaxAcc(min)
		ref := &minMaxAcc{min: min, counts: map[string]*minMaxEntry{}, current: types.Null()}
		model := map[string]int{}        // key -> multiplicity
		reps := map[string]types.Value{} // key -> a value under it
		for step := 0; step < 30; step++ {
			v := alphabet[rng.Intn(len(alphabet))]
			key := string(v.AppendKey(nil))
			delta := 1
			if model[key] > 0 && rng.Intn(3) == 0 {
				delta = -1
			}
			if err := m.update(v, delta); err != nil {
				t.Fatalf("trial %d step %d: update(%s, %d): %v", trial, step, v, delta, err)
			}
			if err := ref.update(v, delta); err != nil {
				t.Fatal(err)
			}
			if !v.IsNull() {
				model[key] += delta
				reps[key] = v
			}

			want := types.Null()
			for k, c := range model {
				if c == 0 {
					continue
				}
				if cmp, _ := reps[k].Compare(want); want.IsNull() || min && cmp < 0 || !min && cmp > 0 {
					want = reps[k]
				}
			}
			got := m.value()
			if got.IsNull() != want.IsNull() || !got.IsNull() && !got.Equal(want) {
				t.Fatalf("trial %d step %d: value() = %s, model extremum %s", trial, step, got, want)
			}
			ref.value()
			if m.counts == nil {
				inlineSteps++
			} else {
				multisetSteps++
			}

			saved := accBytes(t, m)
			if want := accBytes(t, ref); !bytes.Equal(saved, want) {
				t.Fatalf("trial %d step %d: saveAcc wrote %x, the keyed multiset writes %x", trial, step, saved, want)
			}
			loaded := loadMinMax(t, min, saved)
			if again := accBytes(t, loaded); !bytes.Equal(again, saved) {
				t.Fatalf("trial %d step %d: a load of %x saves %x", trial, step, saved, again)
			}
			for _, absent := range alphabet {
				if k := string(absent.AppendKey(nil)); !absent.IsNull() && model[k] == 0 {
					probe := loadMinMax(t, min, saved)
					if err := probe.update(absent, -1); err == nil {
						t.Fatalf("trial %d step %d: retracting absent %s succeeded", trial, step, absent)
					}
					break
				}
			}
			if rng.Intn(2) == 0 {
				m = loaded
			}
		}
	}
	if inlineSteps == 0 || multisetSteps == 0 {
		t.Fatalf("%d inline and %d multiset steps; the generator must reach both forms", inlineSteps, multisetSteps)
	}
}
