package trace

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/isa"
)

// synthetic returns a deterministic instruction sequence for equivalence
// tests.
func synthetic(n int) []isa.Inst {
	out := make([]isa.Inst, n)
	rng := rand.New(rand.NewSource(11))
	for i := range out {
		out[i] = isa.Inst{
			Class: isa.Class(rng.Intn(int(isa.NumClasses))),
			PC:    uint64(0x400000 + 4*i),
			Addr:  uint64(rng.Int63()),
			Seq:   uint64(i),
		}
	}
	return out
}

// oneByOne hands out at most one instruction per NextBatch call.
type oneByOne struct{ s Stream }

func (o oneByOne) NextBatch(buf []isa.Inst) int { return o.s.NextBatch(buf[:min(len(buf), 1)]) }

// TestBatchedMatchesNext: for every stream shape, draining with random
// chunk sizes must yield exactly the sequence that draining one
// instruction per call yields.
func TestBatchedMatchesNext(t *testing.T) {
	insts := synthetic(10_000)
	var recorded bytes.Buffer
	if _, err := WriteTrace(&recorded, NewSliceStream(insts), len(insts), Header{}); err != nil {
		t.Fatal(err)
	}
	shapes := map[string]func() Stream{
		"slice":          func() Stream { return NewSliceStream(insts) },
		"limit-slice":    func() Stream { return NewLimit(NewSliceStream(insts), 7_777) },
		"limit-onebyone": func() Stream { return NewLimit(oneByOne{NewSliceStream(insts)}, 7_777) },
		"limit-overlong": func() Stream { return NewLimit(NewSliceStream(insts), len(insts)+5) },
		"nested-limit":   func() Stream { return NewLimit(NewLimit(NewSliceStream(insts), 9_000), 8_000) },
		"limit-zero":     func() Stream { return NewLimit(NewSliceStream(insts), 0) },
		"reader": func() Stream {
			r, err := NewReader(bytes.NewReader(recorded.Bytes()))
			if err != nil {
				panic(err)
			}
			return r
		},
	}
	for name, mk := range shapes {
		t.Run(name, func(t *testing.T) {
			want := drainOne(mk())
			rng := rand.New(rand.NewSource(5))
			for trial := 0; trial < 5; trial++ {
				got := drainBatch(mk(), rng)
				if len(got) != len(want) {
					t.Fatalf("trial %d: %d insts in random chunks, %d one at a time", trial, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("trial %d: inst %d differs: %+v vs %+v", trial, i, got[i], want[i])
					}
				}
			}
		})
	}
}

func drainOne(s Stream) []isa.Inst {
	var out []isa.Inst
	var one [1]isa.Inst
	for s.NextBatch(one[:]) == 1 {
		out = append(out, one[0])
	}
	return out
}

func drainBatch(s Stream, rng *rand.Rand) []isa.Inst {
	var out []isa.Inst
	buf := make([]isa.Inst, 512)
	for {
		n := 1 + rng.Intn(len(buf))
		k := s.NextBatch(buf[:n])
		if k == 0 {
			return out
		}
		out = append(out, buf[:k]...)
	}
}

// TestBatchedMixedConsumption: interleaving Record, Fill and NextBatch
// calls on one stream must still produce the underlying sequence exactly
// once — none of them may read past what it returns.
func TestBatchedMixedConsumption(t *testing.T) {
	insts := synthetic(5_000)
	s := NewLimit(oneByOne{NewSliceStream(insts)}, 4_000)
	rng := rand.New(rand.NewSource(9))
	var out []isa.Inst
	buf := make([]isa.Inst, 64)
	for {
		var got []isa.Inst
		switch n := 1 + rng.Intn(64); rng.Intn(3) {
		case 0:
			got = Record(s, n)
		case 1:
			got = buf[:Fill(s, buf[:n])]
		default:
			got = buf[:s.NextBatch(buf[:n])]
		}
		if len(got) == 0 {
			break
		}
		out = append(out, got...)
	}
	if len(out) != 4_000 {
		t.Fatalf("drained %d insts, want 4000", len(out))
	}
	for i := range out {
		if out[i] != insts[i] {
			t.Fatalf("inst %d differs", i)
		}
	}
}

// TestRecordBounds: Record must stop at either bound.
func TestRecordBounds(t *testing.T) {
	insts := synthetic(100)
	if got := Record(NewSliceStream(insts), 40); len(got) != 40 {
		t.Fatalf("Record(.., 40) = %d insts", len(got))
	}
	if got := Record(NewSliceStream(insts), 500); len(got) != 100 {
		t.Fatalf("Record(.., 500) = %d insts", len(got))
	}
	if got := Record(oneByOne{NewSliceStream(insts)}, 500); len(got) != 100 {
		t.Fatalf("Record(one at a time, 500) = %d insts", len(got))
	}
}
